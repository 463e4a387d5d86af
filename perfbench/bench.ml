(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   --trace 0 runs workload W as a single-domain closed loop for S
   seconds, checks every output against its oracle and prints the
   end-to-end metrics.  --trace 1 times the calls into every layer and
   prints the per-layer metrics.  The last line of stdout is one JSON
   object; the exit code is non-zero when a check or an op failed.  Run
   it from the repository root: its working files go to [work]. *)

open Bench_kit

let workloads = [ "paper-verify"; "scale-ring" ]
let work = ".bench_work"

(* The end-to-end metrics every workload reports. *)
let end_to_end (l : Loop.t) =
  let tail = Stats.tail l.ops in
  Report.line "op_tail_ms = %.6g ms (%s of %d samples, %d beyond)" (1e3 *. tail.value)
    (Stats.tail_label tail) tail.samples tail.beyond;
  Report.line "passes = %d, ops = %d, set-ups = %d" l.passes l.attempted l.setups;
  Report.line "counter.events_per_pass = %d" l.events_per_pass;
  Report.line "counter.minor_words_per_pass = %.0f" l.minor_words_per_pass;
  Report.
    [
      metric "setup_s" "s" l.setup_s;
      metric "events_per_s" "1/s" l.events_per_s;
      metric "op_p50_ms" "ms" (1e3 *. Stats.median l.ops);
      metric "op_tail_ms" "ms" (1e3 *. tail.value);
      metric "peak_rss_mb" "MiB" l.peak_rss_mb;
      metric "alloc_bytes_per_event" "B" (l.alloc_bytes_per_pass /. float_of_int l.events_per_pass);
    ]

let paper ~seed ~seconds =
  let cells = Paper_verify.grid ~seed in
  let first = ref None in
  let l =
    Loop.run ~seconds
      ~setup:(fun () -> Paper_verify.setup cells)
      (Paper_verify.loop_pass cells ~first)
  in
  let p0 = Option.get !first in
  Report.line "paper.digest = %s" p0.digest;
  Paper_verify.check_pinned ~seed p0.digest;
  Report.line "counter.forced_per_pass = %d" p0.counters.forced;
  Report.line "counter.payload_bytes_per_pass = %d" p0.counters.payload_bytes;
  (l, end_to_end l)

let scale ~seed ~seconds =
  let p = Scale_ring.params ~seed in
  let reference = ref None in
  let l =
    Loop.run ~seconds
      ~setup:(fun () -> ignore (Scale_ring.run ~jobs:1 p : Rdt_harness.Scale.result))
      (fun _ -> Scale_ring.pass p ~reference)
  in
  let r0 = Option.get !reference in
  Scale_ring.check_pinned ~seed r0;
  Scale_ring.check_pool p r0;
  Report.line "scale.result = %s"
    (String.concat " " (String.split_on_char '\n' (Scale_ring.render r0)));
  Report.line "counter.forced_per_pass = %d" r0.ckpts_forced;
  Report.line "counter.payload_bytes_per_pass = %d" r0.payload_bytes;
  (l, end_to_end l)

let usage () =
  prerr_endline
    "usage: bench.exe --workload (paper-verify|scale-ring) --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := w;
        parse rest
    | "--seed" :: s :: rest ->
        seed := int_of_string s;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: t :: rest ->
        trace := int_of_string t;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then
    usage ();
  if not (Sys.file_exists work) then Unix.mkdir work 0o755;
  Report.line "workload = %s seed = %d seconds = %g trace = %d" !workload !seed !seconds !trace;
  let seed = !seed and seconds = !seconds in
  let attempted, failed, metrics =
    try
      if !trace = 1 then Layers.run ~seed ~work
      else
        let l, metrics =
          match !workload with
          | "paper-verify" -> paper ~seed ~seconds
          | _ -> scale ~seed ~seconds
        in
        (l.Loop.attempted, l.failed, metrics)
    with e ->
      (* an op that raised (a rejected stream, a stalled daemon) fails the
         run like any other check *)
      Report.check false "the run raised %s" (Printexc.to_string e);
      (1, 1, [])
  in
  exit (Report.finish ~attempted ~failed metrics)
