(* Tests of the benchmark's own statistics and result line. *)

open Bench_kit
module Json = Rdt_obs.Trace.Json

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL: %s\n%!" name
  end

let range n = List.init n (fun i -> float_of_int (i + 1))

let test_median () =
  expect "median of one" (Stats.median [ 4. ] = 4.);
  expect "median of odd count" (Stats.median [ 3.; 1.; 2. ] = 2.);
  expect "median of even count averages the middle pair" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  expect "median ignores input order" (Stats.median [ 9.; 1.; 5.; 7.; 3. ] = 5.);
  expect "median of nothing is rejected"
    (match Stats.median [] with _ -> false | exception Invalid_argument _ -> true)

(* The tail is the highest of p99.9/p99/p90 with at least ten samples
   beyond it. *)
let test_tail () =
  let rung n = Stats.tail (range n) in
  let check n label value beyond =
    let t = rung n in
    expect
      (Printf.sprintf "tail of %d samples is %s = %g with %d beyond (got %s = %g, %d beyond)" n
         label value beyond (Stats.tail_label t) t.value t.beyond)
      (Stats.tail_label t = label && t.value = value && t.beyond = beyond && t.samples = n)
  in
  check 100 "p90" 90. 10;
  check 999 "p90" 900. 99;
  check 1000 "p99" 990. 10;
  check 9999 "p99" 9900. 99;
  check 10000 "p99.9" 9990. 10;
  (* below 100 samples no rung has ten beyond: p90 is reported anyway *)
  check 99 "p90" 90. 9;
  check 1 "p90" 1. 0

let test_json_line () =
  let line =
    Report.json_line ~correct:true ~attempted:12 ~failed:0
      [ Report.metric "latency_ms" "ms" 1.25; Report.metric "events_per_s" "1/s" 123456.789 ]
  in
  match Json.parse line with
  | Error e -> expect ("result line parses: " ^ e) false
  | Ok (Json.Obj fields) ->
      expect "result line has exactly the four keys"
        (List.map fst fields = [ "correct"; "attempted"; "failed"; "metrics" ]);
      expect "correct is a boolean" (List.assoc "correct" fields = Json.Bool true);
      expect "attempted and failed are integers"
        (List.assoc "attempted" fields = Json.Int 12 && List.assoc "failed" fields = Json.Int 0);
      (match List.assoc "metrics" fields with
      | Json.Obj ms ->
          expect "every metric is listed" (List.map fst ms = [ "latency_ms"; "events_per_s" ]);
          List.iter
            (fun (name, m) ->
              match m with
              | Json.Obj [ ("value", (Json.Float _ | Json.Int _)); ("unit", Json.String _) ] -> ()
              | _ -> expect (name ^ " has exactly a numeric value and a unit") false)
            ms;
          expect "values keep all their digits"
            (match Json.member "value" (List.assoc "events_per_s" ms) with
            | Some (Json.Float v) -> v = 123456.789
            | _ -> false)
      | _ -> expect "metrics is an object" false)
  | Ok _ -> expect "result line is an object" false

let test_non_finite () =
  expect "a non-finite metric is refused"
    (match Report.json_number Float.nan with _ -> false | exception Invalid_argument _ -> true)

(* Set-ups are spread over the run: the first comes before any pass, and
   later ones fall between passes, never inside the second pass, where
   allocation is read. *)
let test_setup_spread () =
  let log = ref [] in
  let l =
    Loop.run ~seconds:0.2
      ~setup:(fun () ->
        log := `Setup :: !log;
        Unix.sleepf 0.004)
      (fun k ->
        log := `Pass k :: !log;
        Unix.sleepf 0.002;
        { Loop.op_s = [| 0.002 |]; busy_s = 0.002; events = 1; failed = 0 })
  in
  let log = List.rev !log in
  let setups = List.length (List.filter (( = ) `Setup) log) in
  expect "the first set-up comes before the first pass" (List.hd log = `Setup);
  expect "set-ups also run between later passes"
    (match List.find_index (( = ) (`Pass 2)) log with
    | Some i -> List.exists (( = ) `Setup) (List.filteri (fun j _ -> j > i) log)
    | None -> false);
  expect "every set-up is counted" (l.setups = setups);
  expect "set-ups take about a fifth of the run"
    (let share = float_of_int setups *. 0.004 /. 0.2 in
     share > 0.1 && share < 0.3);
  expect "setup_s is the median set-up" (l.setup_s >= 0.004 && l.setup_s < 0.05)

(* Runs last: a failed check is global to the run. *)
let test_failed_check () =
  expect "a run without failures exits 0" (Report.exit_code ~failed:0 = 0);
  expect "a failed op makes the exit non-zero" (Report.exit_code ~failed:1 <> 0);
  Report.check false "a check this test fails on purpose";
  expect "a failed check makes the run incorrect" (not (Report.correct ()));
  expect "a failed check makes the exit non-zero" (Report.exit_code ~failed:0 <> 0)

let () =
  test_median ();
  test_tail ();
  test_json_line ();
  test_non_finite ();
  test_setup_spread ();
  test_failed_check ();
  if !failures > 0 then exit 1;
  print_endline "bench_kit: all tests passed"
