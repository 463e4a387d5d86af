(** The simulation runtime: runs an application environment under a CIC
    protocol over the asynchronous-message substrate, and produces the
    resulting checkpoint and communication pattern plus run metrics.

    The model is the paper's: [n] sequential fail-stop processes, every
    ordered pair connected by a reliable asynchronous channel with
    unpredictable-but-finite delays.  Determinism: all randomness comes
    from a single seed, time is integer, and event-queue ties break on
    insertion order, so a run is a pure function of its configuration.

    Each arrival follows statement S2 of Figure 6 and basic checkpoints
    are skipped while the current interval is empty; both live in
    {!Engine}, which this module drives over the perfect channel or, with
    a transport, over the faulty network. *)

type config = {
  n : int;  (** number of processes (>= 2) *)
  seed : int;
  env : Rdt_dist.Env.t;
  protocol : Protocol.t;
  channel : Rdt_dist.Channel.spec;
  basic_period : int * int;
      (** each basic-checkpoint delay is drawn uniformly in this inclusive
          range; [(0, 0)] disables basic checkpoints *)
  max_messages : int;  (** budget of application messages *)
  max_time : int;  (** spontaneous activity stops after this time *)
  faults : Rdt_dist.Faults.spec;
      (** network faults injected below the transport; requires
          [transport <> None] unless {!Rdt_dist.Faults.none} *)
  transport : Rdt_dist.Transport.params option;
      (** [None] (the default) runs the paper's reliable channels exactly
          as before; [Some params] routes every message through the
          reliable-delivery transport over the faulty network *)
  trace : Rdt_obs.Trace.t;
      (** structured event trace recorder ({!Rdt_obs.Trace.null} by
          default: every instrumentation site reduces to one branch).
          Records sends, deliveries, checkpoints (with the predicates that
          fired for forced ones), and — on the transport path — drops,
          retransmissions and undeliverable messages *)
  online : bool;
      (** run an incremental {!Rdt_check.Online} checker alongside the
          simulation (tee'd into the trace stream), reporting the verdict
          and the first-violation event index in the result.  Costs one
          engine update per traced event; [false] by default *)
}

val default_config : Rdt_dist.Env.t -> Protocol.t -> config
(** 8 processes, seed 1, uniform channel delays in [\[5; 100\]], basic
    period in [\[300; 700\]], 2000 messages, no faults, no transport, no
    tracing, no online checker.  Fields are meant to be overridden with
    [{ (default_config e p) with ... }]. *)

val configure :
  ?n:int ->
  ?seed:int ->
  ?messages:int ->
  ?channel:Rdt_dist.Channel.spec ->
  ?basic_period:int * int ->
  ?max_time:int ->
  ?faults:Rdt_dist.Faults.spec ->
  ?transport:Rdt_dist.Transport.params ->
  ?trace:Rdt_obs.Trace.t ->
  ?online:bool ->
  Rdt_dist.Env.t ->
  Protocol.t ->
  config
(** Labelled constructor over {!default_config}: every optional argument
    defaults to the corresponding default field, so
    [configure ~seed ~trace env protocol] reads the same across
    {!Rdt_core.Runtime}, [Rdt_failures.Crash_sim] and the harness. *)

type result = {
  pattern : Rdt_pattern.Pattern.t;
      (** the delivered communication: a message the transport abandoned
          as undeliverable appears in neither sends nor deliveries *)
  metrics : Metrics.t;
  predicate_counts : (string * int) list;
      (** how many deliveries evaluated each named predicate to true *)
  hierarchy_violations : (string * string) list;
      (** pairs [(weaker, stronger)] observed violating the expected
          implication weaker => stronger at some delivery; always expected
          empty, recorded for the test suite *)
  transport : Rdt_dist.Transport.stats option;
      (** retransmission/ack/drop accounting; [None] on the reliable
          path *)
  online : Rdt_check.Online.summary option;
      (** the incremental checker's verdict after the last event, with
          the index of the first event whose prefix violated RDT;
          [Some _] iff the config set [online] *)
}

val run : config -> result
(** Executes the configured run to completion (message budget exhausted
    and all channels drained — with a transport, every message ends
    delivered or reported undeliverable in [transport] stats), ending with
    a final checkpoint per process.  The protocol sees each message at
    most once, at its first in-order arrival.
    @raise Invalid_argument on nonsensical configurations (bad channel or
    fault specs, faults without a transport, bad transport params). *)
