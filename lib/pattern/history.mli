(** The surviving history of a run, recorded as it unfolds.

    Every simulation mode and the trace rebuild record into one: sends,
    deliveries, internal events and checkpoints, per process, in global
    recording order.  Unlike a {!Pattern.Builder} it can take events back:
    {!rollback} discards what a process recorded after one of its
    checkpoints, and {!abandon} withdraws a message the network gave up
    on.  {!to_pattern} replays the surviving entries, in recording order,
    into a fresh builder.  Message ids are the caller's, each sent once. *)

type t

val create : n:int -> t
val send : t -> msg:int -> src:Types.pid -> dst:Types.pid -> unit

val recv : t -> msg:int -> dst:Types.pid -> unit
(** Recorded in [dst]'s history. *)

val internal : t -> Types.pid -> unit

val checkpoint :
  t -> ?index:int -> ?tdv:int array -> kind:Types.ckpt_kind -> time:int -> Types.pid -> int
(** Returns the checkpoint's index: [index] when given (a recorded trace
    names its own), otherwise {!next_index}.  [Initial] checkpoints are
    kept for {!rollback} but left out of the pattern, whose builder takes
    [C_{i,0}] itself. *)

val next_index : t -> Types.pid -> int
(** One past the process's last surviving checkpoint index. *)

type undone = {
  sends : int list;  (** oldest first *)
  recvs : int list;  (** oldest first *)
  events : int;  (** entries discarded, checkpoints included *)
  checkpoints : int;
}

val rollback : t -> Types.pid -> to_index:int -> undone
(** Discards the process's entries after its checkpoint [to_index], which
    survives.  With no such checkpoint, index [0] (the implicit initial
    checkpoint) empties the history.
    @raise Invalid_argument ["rollback of pid P to missing checkpoint X"]
    otherwise. *)

val abandon : t -> int -> unit
(** The message will never be delivered: its send leaves the pattern. *)

val to_pattern : t -> Pattern.t
(** The surviving entries' pattern, with final checkpoints.
    @raise Invalid_argument ["surviving delivery of rolled-back send M"]
    when a delivery outlives its send, or the builder's own error when
    the entries do not form a pattern. *)
