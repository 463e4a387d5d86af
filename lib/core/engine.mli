(** The simulation engine: one event loop for every simulation mode.

    It owns the arrival skeleton of Figure 6, statement S2 (predicate on
    the pre-delivery state, maybe a [Forced] checkpoint, merge, delivery,
    then the application's reaction), checkpoint taking (a basic
    checkpoint is skipped while the interval is empty), the application
    and basic-checkpoint timers, predicate and run accounting, the trace,
    and the surviving {!Rdt_pattern.History}.  A mode supplies its
    network ({!net}): {!Runtime}'s perfect channel or transport, or
    [Rdt_failures.Crash_sim]'s stop-and-wait links, which also crash and
    roll processes back. *)

type msg = { id : int; src : int; dst : int; payload : Control.t }
(** An application message; ids are dense, in send order from 0. *)

type 'a net = {
  transmit : msg -> unit;  (** a message was just sent: put it on the wire *)
  handle : 'a -> unit;  (** one of the network's own events is due *)
  busy : unit -> bool;
      (** whether messages are still owed a delivery: once the send
          budget is spent, basic timers run only while this holds *)
}

val validate :
  who:string ->
  n:int ->
  max_messages:int ->
  channel:Rdt_dist.Channel.spec ->
  basic_period:int * int ->
  faults:Rdt_dist.Faults.spec ->
  transport:Rdt_dist.Transport.params option ->
  unit
(** Checks the settings every mode shares.
    @raise Invalid_argument ["<who>: <problem>"] on the first bad one. *)

module Make (P : Protocol.S) (E : Rdt_dist.Env.S) : sig
  type 'a t

  val create :
    ?restorable:bool ->
    ?count_predicates:bool ->
    n:int ->
    seed:int ->
    max_messages:int ->
    max_time:int ->
    basic_period:int * int ->
    trace:Rdt_obs.Trace.t ->
    unit ->
    'a t
  (** Seeds the root stream, from which the environment's is split.
      [restorable] (default [false]) saves the protocol state with every
      checkpoint, for {!rollback}.  [count_predicates] (default [true])
      evaluates every predicate at every arrival, for
      {!predicate_counts}; otherwise only to name a traced forced
      checkpoint's cause. *)

  val rng : 'a t -> Rdt_dist.Rng.t

  val start : 'a t -> 'a net -> unit
  (** Takes the initial checkpoints and arms every process's timers. *)

  val run : 'a t -> meter:string -> unit
  (** Runs until the queue drains; meters ["<meter>.sim"/".runs"]. *)

  val now : 'a t -> int
  val schedule : 'a t -> at:int -> 'a -> unit

  val deliver : ?received:(unit -> unit) -> 'a t -> msg -> unit
  (** [received] runs once the delivery is recorded, before the
      application reacts. *)

  val abandon : 'a t -> msg -> unit

  val force : 'a t -> preds:string list -> int -> unit
  val dirty : 'a t -> int -> bool
  (** Whether the process executed events since its last checkpoint. *)

  val next_index : 'a t -> int -> int
  val down : 'a t -> int -> bool

  val halt : 'a t -> int -> unit
  (** The process crashes: it stops acting and its pending timers die. *)

  val revive : 'a t -> int -> unit

  val start_timers : 'a t -> int -> first_tick:int -> unit
  (** The basic timer's first delay is drawn. *)

  val rollback : 'a t -> int -> to_index:int -> Rdt_pattern.History.undone
  (** Also restores the protocol state saved with the checkpoint. *)

  val sent : 'a t -> int
  val delivered : 'a t -> int
  val history : 'a t -> Rdt_pattern.History.t

  val metrics : 'a t -> seed:int -> Metrics.t
  (** [messages] counts the sends not abandoned. *)

  val predicate_counts : 'a t -> (string * int) list
  val hierarchy_violations : 'a t -> (string * string) list
  (** Sorted, as in {!Runtime.result}. *)
end
