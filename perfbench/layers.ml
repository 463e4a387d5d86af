(* The traced run: per-layer metrics.

   Every traced run measures every layer, each on the inputs of the
   workload that exercises it, from the benchmark's own code.  Each
   workload section first runs two untraced passes through the same loop
   as the untraced run, for its exact-repeat counters, then pairs
   untraced and traced ops in alternating order: the per-layer times come
   from the traced copies, and their extra cost is the section's
   [trace_overhead_pct].  The micro sections time one layer function in
   batches and report the median batch. *)

open Bench_kit
module Pattern = Rdt_pattern.Pattern

let metric = Report.metric

(* Median over 15 batches of [batch] calls of [f i], per call. *)
let per_call ~batch f =
  Stats.median
    (List.init 15 (fun _ ->
         let (), dt =
           Measure.time (fun () ->
               for i = 0 to batch - 1 do
                 f i
               done)
         in
         dt /. float_of_int batch))

(* Paired ops: run [plain i] and [traced i] for every [i], alternating
   which goes first; the overhead of the traced copies, in percent. *)
let paired ~ops ~plain ~traced =
  let p = ref 0. and t = ref 0. in
  for i = 0 to ops - 1 do
    let run f acc = acc := !acc +. snd (Measure.time (fun () -> f i)) in
    if i mod 2 = 0 then (run plain p; run traced t) else (run traced t; run plain p)
  done;
  100. *. ((!t /. !p) -. 1.)

let counters name (l : Loop.t) extra =
  [
    metric (name ^ ".events_per_pass") "count" (float_of_int l.events_per_pass);
    metric (name ^ ".minor_words_per_pass") "count" l.minor_words_per_pass;
  ]
  @ List.map (fun (k, v) -> metric (name ^ "." ^ k) "count" (float_of_int v)) extra

(* ------------------------------------------------------------------ *)
(* paper-verify                                                        *)
(* ------------------------------------------------------------------ *)

let paper ~seed =
  let cells = Paper_verify.grid ~seed in
  let first = ref None in
  let l = Loop.run ~seconds:0. (Paper_verify.loop_pass cells ~first) in
  let p0 = Option.get !first in
  Paper_verify.check_pinned ~seed p0.digest;
  let r = Spans.create () in
  let probe = Spans.on r in
  (* the traced ops: the grid's first replica *)
  let ops = Array.length cells / Paper_verify.replicas in
  let events = ref 0 in
  let overhead =
    paired ~ops
      ~plain:(fun i -> ignore (Paper_verify.run_cell Spans.off cells.(i) : Paper_verify.result))
      ~traced:(fun i ->
        let c = cells.(i) in
        let res = Paper_verify.run_cell probe c in
        if c.mode <> Paper_verify.Crash then events := !events + Paper_verify.events res.pattern)
  in
  let ms name = 1e3 *. Spans.median r name and us name = 1e6 *. Spans.median r name in
  let reach_all =
    List.map2 ( +. ) (Spans.samples r "rgraph.build") (Spans.samples r "rgraph.reach")
  in
  let alloc = Spans.total r "runtime.reliable.alloc" +. Spans.total r "runtime.faulty.alloc" in
  ( l,
    [
      metric "runtime.reliable_ms" "ms" (ms "runtime.reliable");
      metric "runtime.faulty_ms" "ms" (ms "runtime.faulty");
      metric "runtime.alloc_bytes_per_event" "B" (alloc /. float_of_int !events);
      metric "crash_sim.run_ms" "ms" (ms "crash_sim.run");
      metric "tdv.compute_us" "us" (us "tdv.compute");
      metric "rgraph.build_us" "us" (us "rgraph.build");
      metric "rgraph.reach_all_us" "us" (1e6 *. Stats.median reach_all);
    ]
    @ List.map
        (fun a ->
          let name = "checker." ^ Rdt_core.Checker.algo_name a in
          metric (name ^ "_ms") "ms" (ms name))
        Rdt_core.Checker.all_algos
    @ [
        metric "min_gcp.min_us" "us" (us "min_gcp.min");
        metric "min_gcp.max_us" "us" (us "min_gcp.max");
        metric "paper-verify.trace_overhead_pct" "%" overhead;
      ]
    @ counters "paper-verify" l
        [
          ("forced_per_pass", p0.counters.forced);
          ("payload_bytes_per_pass", p0.counters.payload_bytes);
        ] )

(* The ROADMAP's small-n baseline pattern: bhmr, random, n = 8, 300
   messages, seed 42.  It reads the ROADMAP's "within 10% of commit
   c86bcad" target, the figures before the n = 10^4 engine. *)
let baseline () =
  let cfg =
    {
      (Rdt_core.Runtime.default_config
         (Rdt_workloads.Registry.find_exn "random")
         (Rdt_core.Registry.find_exn "bhmr"))
      with
      Rdt_core.Runtime.n = 8;
      seed = 42;
      max_messages = 300;
    }
  in
  let pat = (Rdt_core.Runtime.run cfg).Rdt_core.Runtime.pattern in
  let tdv =
    per_call ~batch:200 (fun _ -> ignore (Rdt_pattern.Tdv.compute pat : Rdt_pattern.Tdv.t))
  in
  let reach =
    per_call ~batch:100 (fun _ ->
        let g = Rdt_pattern.Rgraph.build pat in
        ignore (Rdt_pattern.Rgraph.reaches g (0, 0) (1, 1) : bool))
  in
  let check =
    per_call ~batch:20 (fun _ -> ignore (Rdt_core.Checker.run pat : Rdt_core.Checker.report))
  in
  [
    metric "baseline.tdv.compute_us" "us" (1e6 *. tdv);
    metric "baseline.rgraph.reach_all_us" "us" (1e6 *. reach);
    metric "baseline.checker.rgraph_ms" "ms" (1e3 *. check);
  ]

(* ------------------------------------------------------------------ *)
(* Small-universe and large-universe containers                        *)
(* ------------------------------------------------------------------ *)

let pairs = 256

(* [merge] of random sources into fresh copies of random targets, so
   every call merges new elements; per call. *)
let merge_cost ~make ~copy ~merge =
  let src = Array.init pairs (fun _ -> make ()) and dst = Array.init pairs (fun _ -> make ()) in
  Stats.median
    (List.init 15 (fun _ ->
         let fresh = Array.map copy dst in
         let (), dt = Measure.time (fun () -> Array.iteri (fun i d -> merge d src.(i)) fresh) in
         dt /. float_of_int pairs))

let bitset_union ~universe ~members =
  let module B = Rdt_pattern.Bitset in
  let rng = Rdt_dist.Rng.create (universe + members) in
  merge_cost ~copy:B.copy
    ~merge:(fun d s -> ignore (B.union_into d s : bool))
    ~make:(fun () ->
      let b = B.create universe in
      for _ = 1 to members do
        B.add b (Rdt_dist.Rng.int rng universe)
      done;
      b)

let vclock_merge ~n ~nonzero =
  let module V = Rdt_dist.Vclock in
  let rng = Rdt_dist.Rng.create (n + nonzero) in
  merge_cost ~copy:V.copy ~merge:V.merge ~make:(fun () ->
      let v = V.create ~n in
      for _ = 1 to nonzero do
        V.set v (Rdt_dist.Rng.int rng n) (1 + Rdt_dist.Rng.int rng 1000)
      done;
      v)

let event_queue () =
  let k = 10_000 in
  let rng = Rdt_dist.Rng.create k in
  let times = Array.init k (fun _ -> Rdt_dist.Rng.int rng 1_000_000) in
  Stats.median
    (List.init 15 (fun _ ->
         let (), dt =
           Measure.time (fun () ->
               let q = Rdt_dist.Event_queue.create () in
               Array.iteri (fun i time -> Rdt_dist.Event_queue.schedule q ~time i) times;
               while Rdt_dist.Event_queue.pop q <> None do
                 ()
               done)
         in
         dt /. float_of_int k))

let containers () =
  [
    metric "bitset.union_ns.n32" "ns" (1e9 *. bitset_union ~universe:32 ~members:12);
    metric "bitset.union_ns.n10000" "ns" (1e9 *. bitset_union ~universe:10_000 ~members:64);
    metric "vclock.merge_ns.n32" "ns" (1e9 *. vclock_merge ~n:32 ~nonzero:32);
    metric "vclock.merge_ns.n10000" "ns" (1e9 *. vclock_merge ~n:10_000 ~nonzero:64);
    metric "event_queue.push_pop_ns" "ns" (1e9 *. event_queue ());
  ]

(* ------------------------------------------------------------------ *)
(* scale-ring                                                          *)
(* ------------------------------------------------------------------ *)

let scale ~seed =
  let p = Scale_ring.params ~seed in
  let reference = ref None in
  let l = Loop.run ~seconds:0. (fun _ -> Scale_ring.pass p ~reference) in
  let r0 = Option.get !reference in
  Scale_ring.check_pinned ~seed r0;
  let r = Spans.create () in
  let probe = Spans.on r in
  let runs = 6 in
  let overhead =
    paired ~ops:runs
      ~plain:(fun _ -> ignore (Scale_ring.run ~jobs:1 p : Rdt_harness.Scale.result))
      ~traced:(fun _ -> ignore (Scale_ring.run ~probe ~jobs:1 p : Rdt_harness.Scale.result))
  in
  let jobs = Scale_ring.pool_jobs in
  for _ = 1 to runs do
    let res = Scale_ring.run ~probe ~jobs p in
    Report.check (res = r0) "traced: jobs=%d result differs from jobs=1" jobs
  done;
  let jobs1 = Spans.median r "scale.run.jobs1" in
  let jobsn = Spans.median r (Printf.sprintf "scale.run.jobs%d" jobs) in
  ( l,
    [
      metric "scale.run_s.jobs1" "s" jobs1;
      metric "scale.run_s.jobs2" "s" jobsn;
      metric "pool.scaleout" "ratio" (jobs1 /. jobsn);
      metric "scale-ring.trace_overhead_pct" "%" overhead;
    ]
    @ counters "scale-ring" l
        [
          ("forced_per_pass", r0.Rdt_harness.Scale.ckpts_forced);
          ("payload_bytes_per_pass", r0.payload_bytes);
        ] )

(* ------------------------------------------------------------------ *)
(* serve-live                                                          *)
(* ------------------------------------------------------------------ *)

module D = Rdt_durable.Session
module O = Rdt_check.Online
module S = Rdt_check.Session

(* Median of 5 runs of [f] over [events], per event. *)
let ns_per_event events f =
  1e9 *. Stats.median (List.init 5 (fun _ -> snd (Measure.time f)))
  /. float_of_int (Array.length events)

let online_observe (inp : Serve_live.input) =
  ns_per_event inp.events (fun () ->
      let eng = O.create ~track_open:true ~n:Serve_live.n () in
      Array.iter (O.observe eng) inp.events)

(* The client's frames for a whole stream, decoded as the server does. *)
let frame_decode (inp : Serve_live.input) =
  let buf = Buffer.create (1 lsl 20) in
  let len = Array.length inp.events in
  let rec frames k =
    if k < len then begin
      let m = min Serve_live.frame_events (len - k) in
      let req = S.Wire.Events (Array.to_list (Array.sub inp.events k m)) in
      Buffer.add_string buf (S.Frame.encode (S.Wire.encode_request req));
      frames (k + m)
    end
  in
  frames 0;
  let bytes = Buffer.to_bytes buf in
  ns_per_event inp.events (fun () ->
      let d = S.Frame.decoder () in
      S.Frame.feed d bytes ~off:0 ~len:(Bytes.length bytes);
      let rec drain () =
        match S.Frame.next d with
        | Ok (Some payload) ->
            (match S.Wire.decode_request payload with
            | Ok _ -> ()
            | Error e -> failwith ("frame decode: " ^ e));
            drain ()
        | Ok None -> ()
        | Error e -> failwith ("frame decode: " ^ e)
      in
      drain ())

let durable ~work (inp : Serve_live.input) =
  let dir = Filename.concat work "layers-durable" in
  let fresh () = Measure.rm_rf dir in
  let meter = Rdt_obs.Meter.create () in
  let open_ () = D.open_ ~meter ~dir ~n:Serve_live.n ~track_open:true () in
  let observe =
    Stats.median
      (List.init 3 (fun _ ->
           fresh ();
           let ds, _ = open_ () in
           let (), dt = Measure.time (fun () -> Array.iter (D.observe ds) inp.events) in
           D.close ds;
           dt))
    /. float_of_int (Array.length inp.events)
  in
  fresh ();
  Unix.mkdir dir 0o755;
  let w =
    Rdt_durable.Wal.create ~dir ~gen:0
      ~header:{ Rdt_durable.Wal.gen = 0; base_events = 0; n = Serve_live.n; track_open = true }
  in
  let fsync =
    Stats.median
      (List.init 20 (fun i ->
           for k = 0 to 31 do
             let ev = inp.events.(((32 * i) + k) mod Array.length inp.events) in
             ignore (Rdt_durable.Wal.append w ev : int)
           done;
           snd (Measure.time (fun () -> Rdt_durable.Wal.sync w))))
  in
  Rdt_durable.Wal.close w;
  let export =
    match O.check_trace (Array.to_list inp.events) with
    | Ok t -> O.export t
    | Error e -> failwith e
  in
  let install =
    Stats.median
      (List.init 10 (fun gen ->
           snd (Measure.time (fun () -> Rdt_durable.Snapshot.install ~dir ~gen:(gen + 1) export))))
  in
  fresh ();
  [
    metric "durable.observe_ns" "ns" (1e9 *. observe);
    metric "wal.fsync_ms" "ms" (1e3 *. fsync);
    metric "snapshot.install_ms" "ms" (1e3 *. install);
  ]

(* [Session.pattern] at three history lengths, each four times the last. *)
let session_pattern (inp : Serve_live.input) =
  let len = Array.length inp.events in
  let at = [ ("short", len / 16); ("mid", len / 4); ("long", len) ] in
  List.map
    (fun (label, k) ->
      let sess = S.ephemeral ~n:Serve_live.n () in
      (match S.feed sess (Array.to_list (Array.sub inp.events 0 k)) with
      | Ok () -> ()
      | Error e -> failwith e);
      let t =
        Stats.median
          (List.init 7 (fun _ ->
               snd (Measure.time (fun () -> ignore (S.pattern sess : (Pattern.t, string) result)))))
      in
      metric ("session.pattern_ms." ^ label) "ms" (1e3 *. t))
    at

(* Daemon restarts: [Serve_live.write_restart_root] leaves every stream
   in the durable root and kills the daemon; each restart is
   [Server.create] on that root plus a [Hello] reattaching every stream,
   which runs [Rdt_durable.Session] recovery.  The median of 5 restarts
   is [durable.recover_s].  A last restart feeds every stream to its end,
   and [Serve_live.finish_restart] checks the summaries after the abort
   against the uninterrupted ones. *)
let recover e =
  Serve_live.write_restart_root e;
  let t =
    Stats.median
      (List.init 5 (fun _ ->
           Gc.compact ();
           let clients, dt = Measure.time (fun () -> Serve_live.restart e) in
           Serve_live.abort e clients;
           dt))
  in
  Serve_live.finish_restart e;
  metric "durable.recover_s" "s" t

let serve ~seed ~work =
  let e = Serve_live.create ~seed ~work in
  let recover_s = recover e in
  let wire_bytes = Serve_live.wire_bytes e in
  let first = ref None in
  let l = Loop.run ~seconds:0. (fun _ -> Serve_live.loop_pass e ~first) in
  let p0 = Option.get !first in
  let r = Spans.create () in
  let probe = Spans.on r in
  Rdt_obs.Meter.reset e.meter;
  let overhead =
    paired ~ops:4
      ~plain:(fun _ -> ignore (Serve_live.pass e : Serve_live.pass))
      ~traced:(fun _ ->
        let p = Serve_live.pass ~probe e in
        Report.check (p.stats.failed = 0) "traced serve pass: %d answers disagree" p.stats.failed)
  in
  (* the meter's spans cover both halves of the pairs *)
  let span name = List.assoc name (Rdt_obs.Meter.spans e.meter) in
  let apply = span "serve.apply" and query = span "serve.query" in
  let served = List.assoc "serve.events" (Rdt_obs.Meter.counters e.meter) in
  Serve_live.close e;
  let busy = Spans.total r "server.step_busy_s" and idle = Spans.total r "server.step_idle_s" in
  let reliable = List.hd e.inputs and crash = List.nth e.inputs 1 in
  let st = p0.stats in
  ( l,
    [
      metric "online.observe_ns" "ns" (online_observe crash);
      metric "frame.decode_ns_per_event" "ns" (frame_decode crash);
    ]
    @ durable ~work crash
    @ [ recover_s ]
    @ session_pattern reliable
    @ [
        metric "server.apply_us_per_event" "us" (1e6 *. apply.seconds /. float_of_int served);
        metric "server.query_ms" "ms" (1e3 *. query.seconds /. float_of_int query.calls);
        metric "server.step_busy_share" "ratio" (busy /. (busy +. idle));
        metric "serve-live.events_per_s" "1/s" l.events_per_s;
        metric "serve-live.op_p50_ms" "ms" (1e3 *. Stats.median l.ops);
        metric "serve-live.gcp_refused_share" "ratio"
          (float_of_int st.gcp_refused /. float_of_int st.gcp_attempted);
        metric "serve-live.trace_overhead_pct" "%" overhead;
      ]
    @ counters "serve-live" l
        [ ("wire_bytes_per_pass", wire_bytes); ("wal_bytes_per_pass", p0.wal_bytes) ] )

let run ~seed ~work =
  let lp, paper = paper ~seed in
  let ls, scale = scale ~seed in
  let lv, serve = serve ~seed ~work in
  let metrics = paper @ baseline () @ containers () @ scale @ serve in
  let ls = [ lp; ls; lv ] in
  ( List.fold_left (fun a (l : Loop.t) -> a + l.attempted) 0 ls,
    List.fold_left (fun a (l : Loop.t) -> a + l.failed) 0 ls,
    metrics )
