(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

type tail = { permille : int; value : float; samples : int; beyond : int }

(* Tail percentiles in per mille, highest first: p99.9, p99, p90. *)
let rungs = [ 999; 990; 900 ]

(* Nearest-rank percentile: the value at rank ceil(p * n) of the sorted
   samples, with n - rank samples beyond it. *)
let rank ~permille n = ((permille * n) + 999) / 1000

(* The highest of p99.9/p99/p90 with at least ten samples beyond it, so
   the figure never rests on a handful of outliers.  Below 100 samples no
   rung qualifies and the p90 is reported anyway, with its count. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let at permille =
    let r = max 1 (rank ~permille n) in
    { permille; value = a.(r - 1); samples = n; beyond = n - r }
  in
  match List.find_opt (fun pm -> n - rank ~permille:pm n >= 10) rungs with
  | Some pm -> at pm
  | None -> at 900

let tail_label t =
  if t.permille mod 10 = 0 then Printf.sprintf "p%d" (t.permille / 10)
  else Printf.sprintf "p%d.%d" (t.permille / 10) (t.permille mod 10)
