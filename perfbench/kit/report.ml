(* Output checks, human-readable lines and the final JSON result line.

   Checks never abort a run: each failure is printed as it happens, and
   the run ends with [correct = false] and a non-zero exit.  Metric names
   and units are plain identifiers, so they need no JSON escaping. *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let failures = ref []

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        failures := msg :: !failures;
        Printf.printf "CHECK FAILED: %s\n%!" msg
      end)
    fmt

let correct () = !failures = []

let line fmt = Printf.ksprintf print_endline fmt

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else invalid_arg "Report.json_number: non-finite value"

let json_line ~correct ~attempted ~failed metrics =
  let field m =
    Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name (json_number m.value) m.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map field metrics))

(* A run is correct when no check failed and no operation failed. *)
let exit_code ~failed = if correct () && failed = 0 then 0 else 1

(* Print every metric, then the JSON line last; returns the exit code. *)
let finish ~attempted ~failed metrics =
  List.iter (fun m -> line "%s = %.6g %s" m.name m.value m.unit_) metrics;
  let ok = correct () && failed = 0 in
  print_endline (json_line ~correct:ok ~attempted ~failed metrics);
  exit_code ~failed
