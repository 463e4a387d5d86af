(* Tests for rdt_failures: online crashes, rollback, protocol-state
   restoration, and message replay. *)

module CS = Rdt_failures.Crash_sim
module P = Rdt_pattern.Pattern
module Checker = Rdt_core.Checker
module Consistency = Rdt_pattern.Consistency

let check = Alcotest.(check bool)
let qt = QCheck_alcotest.to_alcotest

let config ?(n = 5) ?(seed = 7) ?(messages = 800) ?(envname = "random") ?(crashes = [])
    ?(faults = Rdt_dist.Faults.none) ?transport pname =
  let p = Rdt_core.Registry.find_exn pname in
  let env = Rdt_workloads.Registry.find_exn envname in
  {
    (CS.default_config env p) with
    CS.n;
    seed;
    max_messages = messages;
    crashes;
    faults;
    transport;
  }

let one_crash = [ { CS.victim = 2; at = 2500; repair_delay = 200 } ]

let three_crashes =
  [
    { CS.victim = 2; at = 2000; repair_delay = 200 };
    { CS.victim = 0; at = 4500; repair_delay = 300 };
    { CS.victim = 2; at = 7000; repair_delay = 150 };
  ]

let test_no_crash_baseline () =
  (* without crashes the simulation must behave like a normal run *)
  let r = CS.run (config "bhmr") in
  Alcotest.(check int) "no recoveries" 0 (List.length r.recoveries);
  Alcotest.(check int) "budget delivered" 800 r.metrics.CS.messages_delivered;
  Alcotest.(check int) "nothing undone" 0 r.metrics.CS.total_events_undone;
  check "valid" true (Result.is_ok (P.validate r.pattern));
  check "rdt" true (Checker.run r.pattern).Checker.rdt

let test_rdt_survives_crashes () =
  (* the surviving execution of an RDT protocol must satisfy RDT, with
     the on-line vectors still faithful after state restorations *)
  List.iter
    (fun pname ->
      List.iter
        (fun envname ->
          let r = CS.run (config ~envname ~crashes:three_crashes pname) in
          Alcotest.(check int) (pname ^ " three recoveries") 3 (List.length r.recoveries);
          if not (Checker.run r.pattern).Checker.rdt then
            Alcotest.failf "%s on %s: RDT violated after recovery" pname envname;
          check (pname ^ " online tdv") true (Checker.online_tdv_consistent r.pattern);
          check (pname ^ " valid") true (Result.is_ok (P.validate r.pattern)))
        [ "random"; "client-server" ])
    [ "bhmr"; "bhmr-v1"; "fdas"; "cbr"; "cas" ]

let test_recovery_lines_consistent () =
  let r = CS.run (config ~crashes:three_crashes "bhmr") in
  (* each recorded recovery line must be a consistent global checkpoint of
     the *surviving* pattern whenever its checkpoints survived; at minimum
     the victim's entry never exceeds its last durable checkpoint *)
  List.iter
    (fun (rc : CS.recovery) ->
      check "line entries nonnegative" true (Array.for_all (fun x -> x >= 0) rc.CS.line))
    r.recoveries;
  check "lines are monotone across recoveries" true
    (let rec mono = function
       | (a : CS.recovery) :: (b : CS.recovery) :: rest ->
           Array.for_all2 ( <= ) a.CS.line b.CS.line && mono (b :: rest)
       | [ _ ] | [] -> true
     in
     mono r.recoveries)

let test_domino_under_none () =
  let surgical = CS.run (config ~messages:1200 ~crashes:three_crashes "bhmr") in
  let domino = CS.run (config ~messages:1200 ~crashes:three_crashes "none") in
  check "none undoes far more work" true
    (domino.metrics.CS.total_events_undone > 10 * surgical.metrics.CS.total_events_undone);
  (* both executions remain structurally valid *)
  check "none still valid" true (Result.is_ok (P.validate domino.pattern))

let test_replay_accounting () =
  let r = CS.run (config ~crashes:one_crash "bhmr") in
  let rc = List.hd r.recoveries in
  check "replays bounded by undone deliveries" true
    (rc.CS.messages_replayed <= rc.CS.events_undone);
  (* every message in the final pattern is delivered exactly once *)
  Alcotest.(check int) "pattern messages = delivered" r.metrics.CS.messages_delivered
    (P.num_messages r.pattern)

let test_deterministic () =
  let a = CS.run (config ~crashes:three_crashes "bhmr") in
  let b = CS.run (config ~crashes:three_crashes "bhmr") in
  check "same recoveries" true
    (List.map (fun (rc : CS.recovery) -> rc.CS.line) a.recoveries
    = List.map (fun (rc : CS.recovery) -> rc.CS.line) b.recoveries);
  Alcotest.(check int) "same undone" a.metrics.CS.total_events_undone
    b.metrics.CS.total_events_undone

let test_crash_while_idle_process () =
  (* crashing a process that has no volatile state loses nothing of its own *)
  let crashes = [ { CS.victim = 1; at = 1; repair_delay = 50 } ] in
  let r = CS.run (config ~crashes "bhmr") in
  check "recovered" true (List.length r.recoveries = 1);
  check "rdt" true (Checker.run r.pattern).Checker.rdt

let test_validation () =
  Alcotest.check_raises "bad victim" (Invalid_argument "Crash_sim: victim out of range")
    (fun () ->
      ignore (CS.run (config ~crashes:[ { CS.victim = 9; at = 10; repair_delay = 10 } ] "bhmr")));
  Alcotest.check_raises "overlapping crashes"
    (Invalid_argument "Crash_sim: overlapping crashes of the same process") (fun () ->
      ignore
        (CS.run
           (config
              ~crashes:
                [
                  { CS.victim = 1; at = 100; repair_delay = 500 };
                  { CS.victim = 1; at = 200; repair_delay = 100 };
                ]
              "bhmr")));
  Alcotest.check_raises "zero repair" (Invalid_argument "Crash_sim: repair_delay must be >= 1")
    (fun () ->
      ignore (CS.run (config ~crashes:[ { CS.victim = 1; at = 100; repair_delay = 0 } ] "bhmr")));
  (* the settings shared with Runtime are checked by the same validator *)
  Alcotest.check_raises "negative budget" (Invalid_argument "Crash_sim: negative message budget")
    (fun () -> ignore (CS.run (config ~messages:(-5) "bhmr")));
  Alcotest.check_raises "inverted basic period" (Invalid_argument "Crash_sim: bad basic period")
    (fun () -> ignore (CS.run { (config "bhmr") with CS.basic_period = (700, 300) }))

(* Without crashes the crash layer must drive the same engine to the same
   pattern as [Runtime] on the paper's reliable channels.  Basic
   checkpoints are off: the two stop their basic timers under different
   rules once the send budget is spent (see [crash_sim.mli]). *)
let test_crash_free_matches_runtime () =
  List.iter
    (fun protocol ->
      let (module Pr : Rdt_core.Protocol.S) = protocol in
      List.iter
        (fun envname ->
          for seed = 1 to 10 do
            let env = Rdt_workloads.Registry.find_exn envname in
            let rt =
              Rdt_core.Runtime.run
                (Rdt_core.Runtime.configure ~n:5 ~seed ~messages:200 ~basic_period:(0, 0) env
                   protocol)
            in
            let cs =
              CS.run (CS.configure ~n:5 ~seed ~messages:200 ~basic_period:(0, 0) env protocol)
            in
            if not (P.equal rt.Rdt_core.Runtime.pattern cs.CS.pattern) then
              Alcotest.failf "%s/%s seed %d: crash-free Crash_sim differs from Runtime" Pr.name
                envname seed
          done)
        Rdt_workloads.Registry.names)
    Rdt_core.Registry.all

(* -------------------- crashes composed with network faults ------------- *)

let lossy =
  {
    Rdt_dist.Faults.drop = 0.1;
    dup = 0.05;
    reorder = 0.05;
    reorder_window = 40;
    partitions = [ { Rdt_dist.Faults.between = [ 2 ]; from_t = 2000; to_t = 4500 } ];
    intermittent = [];
  }

let faulty_config ?transport ?(crashes = three_crashes) ?(envname = "random") pname =
  let transport = Option.value transport ~default:Rdt_dist.Transport.default_params in
  config ~envname ~crashes ~faults:lossy ~transport pname

let test_rdt_survives_crashes_under_faults () =
  (* the strongest end-to-end property: crashes, rollbacks and replays on
     top of a network that loses, duplicates, reorders and partitions —
     and the surviving pattern still satisfies RDT *)
  List.iter
    (fun pname ->
      List.iter
        (fun envname ->
          let r = CS.run (faulty_config ~envname pname) in
          Alcotest.(check int) (pname ^ " three recoveries") 3 (List.length r.recoveries);
          if not (Checker.run r.pattern).Checker.rdt then
            Alcotest.failf "%s on %s: RDT violated under crashes + faults" pname envname;
          check (pname ^ " valid") true (Result.is_ok (P.validate r.pattern));
          check (pname ^ " retransmitted") true (r.metrics.CS.retransmissions > 0);
          Alcotest.(check int)
            (pname ^ " pattern messages = delivered")
            r.metrics.CS.messages_delivered (P.num_messages r.pattern))
        [ "random"; "client-server" ])
    [ "bhmr"; "fdas" ]

let test_deterministic_under_faults () =
  let a = CS.run (faulty_config "bhmr") in
  let b = CS.run (faulty_config "bhmr") in
  check "same pattern" true (Rdt_pattern.Pattern.equal a.pattern b.pattern);
  check "same metrics (incl. retransmission counts)" true (a.metrics = b.metrics);
  check "same recoveries" true (a.recoveries = b.recoveries)

let test_undeliverable_under_faults () =
  (* a dead network with a tiny retry budget: every message is abandoned,
     the run still terminates and the pattern is empty of messages *)
  let r =
    CS.run
      (config ~messages:100
         ~faults:{ Rdt_dist.Faults.none with drop = 1.0 }
         ~transport:{ Rdt_dist.Transport.default_params with max_retx = 2 }
         "bhmr")
  in
  check "messages were sent" true (r.metrics.CS.undeliverable > 0);
  Alcotest.(check int) "nothing delivered" 0 r.metrics.CS.messages_delivered;
  Alcotest.(check int) "pattern empty of messages" 0 (P.num_messages r.pattern);
  check "still a valid pattern" true (Result.is_ok (P.validate r.pattern))

let test_transport_without_faults_matches_reliability () =
  (* a perfect network under the transport: nothing dropped, nothing
     abandoned, every message delivered despite the crash plan *)
  let r =
    CS.run (config ~crashes:three_crashes ~transport:Rdt_dist.Transport.default_params "bhmr")
  in
  (* packets_dropped still counts copies lost at crashed hosts, but with a
     perfect network nothing may be abandoned *)
  Alcotest.(check int) "no undeliverable" 0 r.metrics.CS.undeliverable;
  check "rdt" true (Checker.run r.pattern).Checker.rdt;
  Alcotest.(check int) "pattern messages = delivered" r.metrics.CS.messages_delivered
    (P.num_messages r.pattern)

let crash_rdt_property =
  QCheck.Test.make ~name:"RDT survives random crash plans" ~count:25
    QCheck.(triple (int_bound 4) (int_bound 3) small_nat)
    (fun (victim, n_crashes, seed) ->
      let crashes =
        List.init (1 + n_crashes) (fun k ->
            { CS.victim = victim mod 4; at = 1500 * (k + 1); repair_delay = 100 + (37 * k) })
      in
      let r = CS.run (config ~n:4 ~seed:(seed + 1) ~messages:400 ~crashes "bhmr") in
      (Checker.run r.pattern).Checker.rdt
      && Checker.online_tdv_consistent r.pattern
      && Result.is_ok (P.validate r.pattern))

let crash_consistency_property =
  QCheck.Test.make ~name:"surviving pattern has no useless checkpoints (bhmr)" ~count:15
    QCheck.(pair (int_bound 4) small_nat)
    (fun (victim, seed) ->
      let crashes = [ { CS.victim = victim mod 4; at = 2000; repair_delay = 150 } ] in
      let r = CS.run (config ~n:4 ~seed:(seed + 1) ~messages:300 ~crashes "bhmr") in
      let ok = ref true in
      P.iter_ckpts r.pattern (fun c ->
          if
            Consistency.useless r.pattern
              (c.Rdt_pattern.Types.owner, c.Rdt_pattern.Types.index)
          then ok := false);
      !ok)

let () =
  Alcotest.run "rdt_failures"
    [
      ( "crash-sim",
        [
          Alcotest.test_case "no crashes = plain run" `Quick test_no_crash_baseline;
          Alcotest.test_case "RDT survives crashes" `Quick test_rdt_survives_crashes;
          Alcotest.test_case "recovery lines monotone" `Quick test_recovery_lines_consistent;
          Alcotest.test_case "domino under none" `Quick test_domino_under_none;
          Alcotest.test_case "replay accounting" `Quick test_replay_accounting;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "early crash" `Quick test_crash_while_idle_process;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "crash-free run = Runtime run" `Quick test_crash_free_matches_runtime;
          qt crash_rdt_property;
          qt crash_consistency_property;
        ] );
      ( "crash+faults",
        [
          Alcotest.test_case "RDT survives crashes under faults" `Quick
            test_rdt_survives_crashes_under_faults;
          Alcotest.test_case "deterministic" `Quick test_deterministic_under_faults;
          Alcotest.test_case "graceful degradation" `Quick test_undeliverable_under_faults;
          Alcotest.test_case "perfect network, crashes only" `Quick
            test_transport_without_faults_matches_reliability;
        ] );
    ]
