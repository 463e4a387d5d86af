(** Rebuild a checkpoint-and-communication pattern from a trace.

    The rebuild records the events, in emission order, into the same
    {!Rdt_pattern.History} the live run recorded into; a {!Trace.Rollback}
    truncates a process's history back to the named checkpoint, exactly
    as recovery did.  The surviving history yields a pattern structurally
    equal to the one the live run handed to the checkers — so the trace is
    a self-contained correctness artifact: re-running the offline RDT
    checkers on the rebuilt pattern must reproduce the recorded
    {!Trace.Verdict} lines. *)

val meta : Trace.event list -> (int * string * string * int * string) option
(** First [Meta] header as [(n, protocol, env, seed, mode)], if any. *)

val verdicts : Trace.event list -> (string * bool) list
(** Recorded live verdicts, in trace order. *)

val rebuild : Trace.event list -> (Rdt_pattern.Pattern.t, string) result
(** Rebuild the surviving pattern.  The process count is taken from the
    [Meta] header when present, otherwise inferred from the largest pid.
    Errors on structurally impossible traces (delivery of an unknown or
    undeliverable message, rollback to a rolled-back checkpoint, ...). *)

type summary = {
  n : int;
  events : int;
  by_kind : (string * int) list;  (** tag -> occurrences, every tag listed *)
  forced_by_pred : (string * int) list;
      (** forced checkpoints grouped by the predicate set that fired,
          e.g. [("c2,c_fdas", 3)]; sorted by key *)
  max_time : int;
}

val summarize : Trace.event list -> summary

val pp_summary : Format.formatter -> summary -> unit
