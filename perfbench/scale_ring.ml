(* scale-ring: the sharded n = 10^4 engine ([Rdt_harness.Scale]).

   One op is one [Scale.run ~jobs:1] of a fixed size.  The measured loop
   stays on one domain: on a 2-vCPU VM two-domain runs are bimodal, so
   [Pool] scale-out is a per-layer figure only.  An untimed two-domain
   run checks that the pool path computes the identical result. *)

open Bench_kit
module Scale = Rdt_harness.Scale

(* 5 * 10^4 messages at n = 10^4 are 10^5 events, some 0.11 s on a
   2.1 GHz Xeon: a 60 s run, a fifth of it set-ups, makes about 440 ops,
   inside the p90 rung of the tail (100 to 999 samples) from 0.23 to 2.2
   times that speed. *)
let params ~seed = { Scale.default_params with Scale.messages = 50_000; seed }

let render r = Format.asprintf "%a" Scale.pp_result r

(* The pool check runs two domains on any host; on a one-CPU host they
   share it, which changes the timing, not the result. *)
let pool_jobs = 2

(* Pinned digests of the rendered result (every field, the final
   vectors' checksum included) for the default seed and a held-out seed:
   a fast but wrong engine must not pass as correct. *)
let pinned = [ (1, "37feee9ab453cb3812e84ece44f6580e"); (1009, "38cf1b9d0faf72cb38fdbdc66a5d433a") ]

let digest r = Digest.to_hex (Digest.string (render r))

let check_pinned ~seed r =
  match List.assoc_opt seed pinned with
  | Some pin ->
      let d = digest r in
      Report.check (pin = d) "seed %d: result digest %s, pinned %s" seed d pin
  | None -> ()

let run ?(probe = Spans.off) ~jobs p =
  probe.span (Printf.sprintf "scale.run.jobs%d" jobs) (fun () -> Scale.run ~jobs p)

(* The loop's pass: one timed run, checked against the first. *)
let pass p ~reference =
  let r, dt = Measure.time (fun () -> run ~jobs:1 p) in
  let same = match !reference with None -> (reference := Some r; true) | Some r0 -> r = r0 in
  Report.check same "scale run differs from the first run:\n%s" (render r);
  { Loop.op_s = [| dt |]; busy_s = dt; events = r.Scale.events; failed = (if same then 0 else 1) }

let check_pool p r0 =
  let jobs = pool_jobs in
  if not Rdt_harness.Pool.parallelism_available then
    Report.line "scale.pool = sequential backend: jobs=%d runs on one domain" jobs;
  let r = run ~jobs p in
  Report.check (r = r0) "jobs=%d result differs from the jobs=1 runs:\n%s\nvs\n%s" jobs (render r)
    (render r0)
