(* paper-verify: the paper's regime.

   One op is one cell of a fixed grid: protocol x environment x mode x n.
   A cell simulates the run (reliable channels, the faulty network
   through [Transport], or one crash through [Crash_sim]), computes the
   pattern's TDVs and R-graph, runs all four RDT checkers and answers
   the minimum and maximum consistent-global-checkpoint query of every
   process.  Cell seeds derive from the workload seed and the cell's
   name, so every pass repeats exactly the same work. *)

open Bench_kit
module Runtime = Rdt_core.Runtime
module Crash_sim = Rdt_failures.Crash_sim
module Checker = Rdt_core.Checker
module Min_gcp = Rdt_core.Min_gcp
module Pattern = Rdt_pattern.Pattern
module Tdv = Rdt_pattern.Tdv
module Rgraph = Rdt_pattern.Rgraph

type mode = Reliable | Faulty | Crash

let mode_name = function Reliable -> "reliable" | Faulty -> "faulty" | Crash -> "crash"

type cell = { protocol : string; env : string; mode : mode; n : int; seed : int }

let cell_name c = Printf.sprintf "%s/%s/%s/n%d" c.protocol c.env (mode_name c.mode) c.n

let protocols = [ "fdas"; "bhmr"; "bhmr-v1"; "cbr"; "none" ]
let envs = [ "random"; "group"; "client-server" ]
let modes = [ Reliable; Faulty; Crash ]
let sizes = [ 8; 32 ]

(* The chain and doubling checkers are superlinear in the pattern, so the
   n = 32 cells get only twice the n = 8 budget: a pass over the 90 grid
   points then takes about 1 s on a 2.1 GHz Xeon, and no cell more than
   45 ms. *)
let messages n = if n <= 8 then 120 else 240

(* Each of the 90 grid points appears [replicas] times with independent
   seeds: one pattern per point lets the seed move the pass's median by
   about 10%, three bring that near 6%. *)
let replicas = 3

let grid ~seed =
  List.concat_map
    (fun r ->
      List.concat_map
        (fun protocol ->
          List.concat_map
            (fun env ->
              List.concat_map
                (fun mode ->
                  List.map
                    (fun n ->
                      let c = { protocol; env; mode; n; seed = 0 } in
                      let label = Printf.sprintf "%s#%d" (cell_name c) r in
                      { c with seed = Rdt_dist.Rng.derive_seed seed label })
                    sizes)
                modes)
            envs)
        protocols)
    (List.init replicas Fun.id)
  |> Array.of_list

let faults = { Rdt_dist.Faults.none with drop = 0.05; dup = 0.05 }

(* Early enough that every environment is still running at n = 8. *)
let crash c = { Crash_sim.victim = c.seed mod c.n; at = 300; repair_delay = 200 }

let simulate (p : Spans.probe) c =
  let env = Rdt_workloads.Registry.find_exn c.env in
  let protocol = Rdt_core.Registry.find_exn c.protocol in
  let n = c.n and seed = c.seed and messages = messages c.n in
  match c.mode with
  | Reliable ->
      Spans.span_alloc p "runtime.reliable" (fun () ->
          ((Runtime.run (Runtime.configure ~n ~seed ~messages env protocol)).Runtime.pattern, 0))
  | Faulty ->
      Spans.span_alloc p "runtime.faulty" (fun () ->
          ( (Runtime.run
               (Runtime.configure ~n ~seed ~messages ~faults
                  ~transport:Rdt_dist.Transport.default_params env protocol))
              .Runtime.pattern,
            0 ))
  | Crash ->
      p.span "crash_sim.run" (fun () ->
          let r =
            Crash_sim.run (Crash_sim.configure ~n ~seed ~messages ~crashes:[ crash c ] env protocol)
          in
          (r.Crash_sim.pattern, List.length r.Crash_sim.recoveries))

let events pat =
  let k = ref 0 in
  for q = 0 to Pattern.n pat - 1 do
    k := !k + Array.length (Pattern.events pat q)
  done;
  !k

type result = {
  pattern : Pattern.t;
  recoveries : int;
  reports : Checker.report list;
  reach : bool;  (** the R-graph query C_{0,0} ~> C_{1,1}, or C_{1,0} if P_1 has one checkpoint *)
  edges : int;
  gcps : (int array option * int array option) list;  (** per process *)
}

(* The op: everything a cell computes, and nothing that only checks it. *)
let run_cell (p : Spans.probe) c =
  let pattern, recoveries = simulate p c in
  let tdv = p.span "tdv.compute" (fun () -> Tdv.compute pattern) in
  let g = p.span "rgraph.build" (fun () -> Rgraph.build pattern) in
  let target = (1, min 1 (Pattern.last_index pattern 1)) in
  let reach = p.span "rgraph.reach" (fun () -> Rgraph.reaches g (0, 0) target) in
  let reports =
    List.map
      (fun algo ->
        p.span ("checker." ^ Checker.algo_name algo) (fun () -> Checker.run ~algo ~tdv pattern))
      Checker.all_algos
  in
  let gcps =
    List.init (Pattern.n pattern) (fun q ->
        let set = [ (q, Pattern.last_index pattern q / 2) ] in
        let lo = p.span "min_gcp.min" (fun () -> Min_gcp.minimum_of_set pattern set) in
        let hi = p.span "min_gcp.max" (fun () -> Min_gcp.maximum_of_set pattern set) in
        (lo, hi))
  in
  { pattern; recoveries; reports; reach; edges = Rgraph.edge_count g; gcps }

let cut = function
  | None -> "-"
  | Some a -> String.concat "." (Array.to_list (Array.map string_of_int a))

(* Counts, verdicts and GCP answers of one cell, as one digest line. *)
let digest_line c r =
  let pat = r.pattern in
  let reports f = String.concat "," (List.map f r.reports) in
  Printf.sprintf
    "%s seed=%d events=%d ckpts=%d forced=%d recoveries=%d rdt=%s checked=%s edges=%d reach=%b \
     gcp=%s"
    (cell_name c) c.seed (events pat) (Pattern.num_checkpoints pat)
    (Pattern.count_kind pat Rdt_pattern.Types.Forced)
    r.recoveries
    (reports (fun (x : Checker.report) -> string_of_bool x.rdt))
    (reports (fun (x : Checker.report) -> string_of_int x.checked))
    r.edges r.reach
    (String.concat "," (List.map (fun (lo, hi) -> cut lo ^ "/" ^ cut hi) r.gcps))

let rdt_protocol c = Rdt_core.Protocol.ensures_rdt (Rdt_core.Registry.find_exn c.protocol)

(* The oracle checks of one cell; [false] if any fails. *)
let verify c r =
  let name = cell_name c in
  let ok = ref true in
  let check cond fmt =
    if not cond then ok := false;
    Report.check cond fmt
  in
  let rdt = (List.hd r.reports).Checker.rdt in
  check
    (List.for_all (fun (x : Checker.report) -> x.rdt = rdt) r.reports)
    "%s: the four checkers disagree" name;
  check (c.mode <> Crash || r.recoveries = 1) "%s: %d recoveries, expected exactly 1" name
    r.recoveries;
  if rdt_protocol c then begin
    check rdt "%s: an RDT protocol produced a pattern without RDT" name;
    check (Min_gcp.corollary_holds r.pattern) "%s: Corollary 4.5 does not hold" name
  end;
  !ok

type counters = { events : int; forced : int; payload_bytes : int }

let count_cell c r acc =
  let bits = Rdt_core.Protocol.payload_bits (Rdt_core.Registry.find_exn c.protocol) ~n:c.n in
  {
    events = acc.events + events r.pattern;
    forced = acc.forced + Pattern.count_kind r.pattern Rdt_pattern.Types.Forced;
    payload_bytes = acc.payload_bytes + (Pattern.num_messages r.pattern * bits / 8);
  }

(* Pinned one-pass digests for the default seed and a held-out seed: the
   simulations, verdicts and GCP answers must stay byte-identical. *)
let pinned =
  [ (1, "c63b75bda2a4ba7fc268fc1e18565f91"); (1009, "71263862f30a2abe18c4c7a56756dacd") ]

let check_pinned ~seed digest =
  match List.assoc_opt seed pinned with
  | Some pin -> Report.check (pin = digest) "seed %d: pass digest %s, pinned %s" seed digest pin
  | None -> ()

(* Set-up: a cold first cell of each (protocol, mode) pair, taken from
   the grid's first replica at env = random, n = 32. *)
let setup cells =
  Array.iteri
    (fun i c ->
      if i < Array.length cells / replicas && c.env = "random" && c.n = 32 then
        ignore (run_cell Spans.off c : result))
    cells

type pass = {
  op_s : float array;  (** per cell *)
  counters : counters;
  digest : string;
  failed : int;  (** cells whose checks failed *)
}

(* One pass over the grid.  [verify] runs the oracle checks, untimed:
   passes repeat the same work, so the loop verifies the first pass and
   compares every later pass's digest with it. *)
let pass ?(probe = Spans.off) ~verify:verifying cells =
  let op_s = Array.make (Array.length cells) 0. in
  let counters = ref { events = 0; forced = 0; payload_bytes = 0 } in
  let failed = ref 0 in
  let lines =
    Array.mapi
      (fun i c ->
        let r, dt = Measure.time (fun () -> run_cell probe c) in
        op_s.(i) <- dt;
        counters := count_cell c r !counters;
        if verifying && not (verify c r) then incr failed;
        digest_line c r)
      cells
  in
  {
    op_s;
    counters = !counters;
    digest = Digest.to_hex (Digest.string (String.concat "\n" (Array.to_list lines)));
    failed = !failed;
  }

(* The measured loop's pass [k]: the first pass runs the oracle checks,
   and every later pass must repeat its digest. *)
let loop_pass cells ~first k =
  let p = pass ~verify:(k = 0) cells in
  (match !first with
  | None -> first := Some p
  | Some p0 -> Report.check (p.digest = p0.digest) "pass %d: digest differs from pass 0" k);
  {
    Loop.op_s = p.op_s;
    busy_s = Array.fold_left ( +. ) 0. p.op_s;
    events = p.counters.events;
    failed = p.failed;
  }
