(* The measured closed loop: whole passes of identical work, one after
   another on this domain, until the run's seconds are spent. *)

type pass = {
  op_s : float array;  (** latency of every op in the pass *)
  busy_s : float;  (** time the pass spent doing the workload's work *)
  events : int;
  failed : int;  (** ops that failed or disagreed with their oracle *)
}

type t = {
  ops : float list;  (** every op latency of every pass *)
  events_per_s : float;  (** every pass's events over every pass's busy seconds *)
  passes : int;
  events_per_pass : int;
  alloc_bytes_per_pass : float;  (** of the second pass *)
  minor_words_per_pass : float;  (** of the second pass *)
  peak_rss_mb : float;  (** VmHWM when the last pass ended *)
  setup_s : float;  (** median of the set-ups interleaved with the passes *)
  setups : int;
  attempted : int;
  failed : int;
}

(* Set-up is spread over the run, not timed once at its start: host
   speed drifts in stretches of seconds, and a burst of back-to-back
   set-ups would all land in one of them.  Before each pass, set-ups run
   while their total time is at most [setup_share] of the loop's time so
   far, so the first runs before any pass (cold) and the rest interleave
   with the passes for the whole run. *)
let setup_share = 0.2

(* [run ?setup ~seconds f] runs [f 0], [f 1], ... until [seconds] have
   elapsed, and at least two passes, with [setup] interleaved as above;
   [setup_s] is the median set-up time (0 without [setup]).  Each pass
   and each set-up starts on a freshly compacted heap, so a major
   collection left over from the last pass does not land in a random op
   of the next one.  Allocation is read around the second pass only (the
   first may also run untimed oracle checks): every pass does the same
   work, so it is the same on every run whatever the host's speed.  Peak
   memory is read as the loop ends, before any untimed check after it
   (such as a two-domain run) can raise it. *)
let run ?setup ~seconds f =
  let t0 = Measure.now () in
  let t_end = t0 +. seconds in
  let setups = ref [] and setup_total = ref 0. in
  let set_up () =
    match setup with
    | None -> ()
    | Some s ->
        while !setup_total <= setup_share *. (Measure.now () -. t0) do
          Gc.compact ();
          let (), dt = Measure.time s in
          setups := dt :: !setups;
          setup_total := !setup_total +. dt
        done
  in
  let pass k =
    set_up ();
    Gc.compact ();
    f k
  in
  let first = pass 0 in
  set_up ();
  Gc.compact ();
  (* [f 1] directly, so that no set-up falls inside the allocation window *)
  let w0 = Measure.minor_words () and a0 = Gc.allocated_bytes () in
  let second = f 1 in
  let alloc = Gc.allocated_bytes () -. a0 and minor = Measure.minor_words () -. w0 in
  let rec go k acc = if Measure.now () >= t_end then (k, acc) else go (k + 1) (pass k :: acc) in
  let passes, all = go 2 [ second; first ] in
  let peak_rss_mb = Measure.peak_rss_mb () in
  List.iter
    (fun p ->
      Report.check (p.events = first.events) "a pass handled %d events, the first %d" p.events
        first.events)
    all;
  {
    ops = List.concat_map (fun p -> Array.to_list p.op_s) all;
    events_per_s =
      float_of_int (List.fold_left (fun a (p : pass) -> a + p.events) 0 all)
      /. List.fold_left (fun a p -> a +. p.busy_s) 0. all;
    passes;
    events_per_pass = first.events;
    alloc_bytes_per_pass = alloc;
    minor_words_per_pass = minor;
    peak_rss_mb;
    setup_s = (if !setups = [] then 0. else Stats.median !setups);
    setups = List.length !setups;
    attempted = List.fold_left (fun a (p : pass) -> a + Array.length p.op_s) 0 all;
    failed = List.fold_left (fun a (p : pass) -> a + p.failed) 0 all;
  }
