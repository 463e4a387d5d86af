(* Per-layer recorder for traced runs.  Spans are timed around calls into
   a layer from the benchmark's own code and kept in memory; counts are
   summed at the same boundaries.  Everything is read once, at the end. *)

type t = { samples : (string, float list) Hashtbl.t; counts : (string, float) Hashtbl.t }

let create () = { samples = Hashtbl.create 64; counts = Hashtbl.create 64 }

let add t name v =
  Hashtbl.replace t.samples name (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples name))

let count t name v =
  Hashtbl.replace t.counts name (v +. Option.value ~default:0. (Hashtbl.find_opt t.counts name))

let samples t name =
  match Hashtbl.find_opt t.samples name with
  | Some (_ :: _ as xs) -> xs
  | _ -> failwith (Printf.sprintf "no samples recorded for span %s" name)

let median t name = Stats.median (samples t name)

(* A count never noted is zero. *)
let total t name = Option.value ~default:0. (Hashtbl.find_opt t.counts name)

(* How a workload's code reaches its layers: [off] calls straight
   through; [on t] times every call into [t] under the span's name. *)
type probe = { span : 'a. string -> (unit -> 'a) -> 'a; rec_ : t option }

let off = { span = (fun _ f -> f ()); rec_ = None }

let on t =
  {
    span =
      (fun name f ->
        let x, dt = Measure.time f in
        add t name dt;
        x);
    rec_ = Some t;
  }

(* [note p name v] adds [v] to count [name] when tracing. *)
let note p name v = match p.rec_ with Some t -> count t name v | None -> ()

(* Like [p.span], also counting the bytes [f] allocates under
   [name ^ ".alloc"]. *)
let span_alloc p name f =
  match p.rec_ with
  | None -> f ()
  | Some t ->
      let x, a = Measure.alloc (fun () -> p.span name f) in
      count t (name ^ ".alloc") a;
      x
