(** The typed event vocabulary of the engine.

    The paper's dynamic processes are streams of remove/insert events
    against a live allocation state, so the engine speaks events: the rep
    loops ({!Sim.iterate}, {!Sim.first_hit}, ...) drive a machine with
    {!Step} events, while the serve layer ({!Serve.Cluster}) feeds it the
    mixed mutation/query traffic of a long-running service and journals
    the mutations for deterministic replay.

    Machines answer through {!Sim.apply}.  Events a machine does not
    support — [Insert] on a coupled pair, say — come back {!Rejected}
    rather than raising, so a server batch survives bad requests. *)

type t =
  | Step  (** One full process transition (remove + insert). *)
  | Round
      (** One synchronous round of a round-parallel process (every
          non-empty bin ejects one ball, ejected balls re-place): the
          unit transition of {!Rbb}-style machines, beside [Step] for
          the sequential ones.  Machines without a round semantics
          answer [Rejected]. *)
  | Insert of int
      (** Place one new ball per the machine's scheduling rule.  The
          payload is an opaque routing key (the serve layer shards on
          it); single machines ignore it. *)
  | Remove  (** Remove one ball per the machine's removal scenario. *)
  | Probe  (** Cheap scalar observable; never mutates. *)
  | Occupancy  (** Full per-bin load snapshot; never mutates. *)
  | Watermark  (** Highest probe level seen after any mutation. *)

type reply =
  | Ack  (** Mutation applied, no payload ([Step]). *)
  | Placed of int  (** [Insert]: the bin that received the ball. *)
  | Removed of int  (** [Remove]: the bin that lost the ball. *)
  | Level of int  (** [Probe] / [Watermark]. *)
  | Loads of int array  (** [Occupancy]. *)
  | Rejected of string
      (** Unsupported event for this machine, or a mutation against an
          empty state.  Rejected events consume no randomness and leave
          the state untouched, so they are replay-neutral. *)

val name : t -> string
(** Lower-case event name (also the wire protocol's ["op"] value). *)

val is_mutation : t -> bool
(** Whether the event advances machine state (and so belongs in a
    replay journal). *)

val reply_name : reply -> string
val reply_ok : reply -> bool
(** [false] exactly on [Rejected]. *)
