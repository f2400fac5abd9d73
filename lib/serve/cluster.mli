(** A cluster of shards behind one deterministic router.

    The cluster partitions the [n] global bins into contiguous shards
    (sizes differing by at most one), each a {!Serve.Shard} with its own
    generator, and handles each event as it arrives:

    - [Insert key] — routed by a stateless splitmix hash of [key] mod
      shards;
    - [Remove] / [Step] — routed to a shard drawn from the {e router's}
      generator with probability proportional to its tracked ball count
      (exact for the global scenario-A removal law; an approximation
      for B);
    - [Round] (round-synchronous clusters only) — a {e broadcast}: every
      shard advances one synchronous round, in shard order; the router
      draws nothing (rounds conserve balls);
    - queries ([Probe]/[Occupancy]/[Watermark]) are answered globally
      from the current state.

    A routed mutation is applied to its shard at once.  Routing is
    sequential and every shard sees its events in arrival order, so the
    state after [N] events does not depend on how the caller batches
    them — the invariance {!Serve.Store} and the replay tests rely
    on. *)

type config = {
  n : int;  (** Global bins. *)
  m : int;  (** Initial balls, spread near-uniformly ([m >= n] keeps every shard non-empty). *)
  shards : int;
  process : Process.t;
      (** Which machine the shards host: [Sequential] answers
          [Step]/[Remove] and rejects [Round]; [Rbb] answers [Round]
          (and [Insert]) and rejects [Step]/[Remove] — the
          round-synchronous family conserves balls.  An [Rbb] cluster
          requires an ABKU rule ({!Rbb.of_scheduling_rule}). *)
  scenario : Core.Scenario.t;
  rule : Core.Scheduling_rule.t;
  repr : Core.Repr.t;
      (** Representation backend for the shards' insertion machinery.
          [Count_sampled] with an ABKU rule switches every shard to
          cutoff-table insertion (see {!Core.Bins.insert_sampled});
          [Array_backed] and [Count_backed] are identical here, since
          {!Core.Bins} is already count-indexed.  Part of the durability
          fingerprint: snapshots and journals record it. *)
  seed : int;
}

type t

val create : config -> t
(** @raise Invalid_argument on a non-positive [n] or [shards], [shards >
    n], or an initial placement that leaves some shard without a ball. *)

val config : t -> config

val seq : t -> int
(** Mutation events routed since creation (counting rejected ones —
    this is the journal sequence number). *)

val total_balls : t -> int

val set_telemetry : t -> Telemetry.t -> unit
(** Attach a telemetry bank: route and shard-apply stages are timed
    into it from then on, and the cluster's gauges ([seq], [balls], [max_load], [watermark] and the
    per-shard [shard_*] family) are registered in its registry.
    Without one the hot path performs no clock reads.  Attach at most
    once. *)

val apply_batch : t -> Engine.Event.t array -> Engine.Event.reply array
(** Apply a batch in arrival order; [replies.(i)] answers [events.(i)].
    [Placed]/[Removed] bin ids are global.  A [Remove]/[Step] against an
    empty cluster is [Rejected "empty"] and consumes no randomness; so
    are the family mismatches ([Round] on a sequential cluster,
    [Step]/[Remove] on a round-synchronous one). *)

val apply : t -> Engine.Event.t -> Engine.Event.reply
(** [apply t ev] is [apply_batch t [|ev|]].(0). *)

(** {2 Snapshot state} *)

type state = {
  seq : int;
  router : int64 array;  (** {!Prng.Rng.save} words of the router. *)
  counts : int array;  (** Router-tracked balls per shard. *)
  shards : Shard.state array;
}

val state : t -> state

val of_state : config -> state -> t
(** Rebuild a cluster that replays bit-identically to the one
    {!state} was taken from.
    @raise Invalid_argument on a config/state mismatch. *)
