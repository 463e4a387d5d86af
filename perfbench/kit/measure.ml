(* Clocks, allocation and memory probes. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Bytes allocated by [f] on this domain (minor and major heaps). *)
let alloc f =
  let a0 = Gc.allocated_bytes () in
  let x = f () in
  (x, Gc.allocated_bytes () -. a0)

let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* Peak resident set of this process (VmHWM), in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
        | None -> failwith "VmHWM missing from /proc/self/status"
      in
      find ())

(* Remove a file tree; a missing path is not an error. *)
let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
