(** One shard of the allocation service.

    A shard owns a contiguous range of the global bin space as a private
    event machine over {!Core.Bins} plus its own generator — a
    {!Core.System} for the sequential family, an {!Rbb.service_sim} for
    the round-synchronous one — and is driven exclusively through
    {!Engine.Sim.apply}.  Bin ids in its replies are {e shard-local};
    {!Serve.Cluster} translates them by the shard's {!lo} offset. *)

type t

val create :
  id:int ->
  lo:int ->
  process:Process.t ->
  scenario:Core.Scenario.t ->
  rule:Core.Scheduling_rule.t ->
  repr:Core.Repr.t ->
  loads:int array ->
  rng:Prng.Rng.t ->
  t
(** [process] selects the hosted machine; [scenario]/[repr] configure
    the sequential one (see {!Core.System.create}) and are ignored by
    the round-synchronous machine, whose [rule] must be ABKU
    ({!Rbb.of_scheduling_rule}).
    @raise Invalid_argument when [loads] is empty or holds no balls
    (every shard must start with at least one ball, because the
    underlying {!Core.System} forbids empty systems), or when [process]
    is [Rbb] and [rule] has no round-synchronous form. *)

val lo : t -> int
(** First global bin id owned by this shard. *)

val bin_count : t -> int
val balls : t -> int
val max_load : t -> int
val watermark : t -> int
val loads : t -> int array

val applied : t -> int
(** Accepted mutations applied since creation (restored by snapshots). *)

val apply : t -> Engine.Event.t -> Engine.Event.reply
(** Apply one event with the shard's own generator.  [Step] against an
    empty shard is [Rejected "empty"] (consuming no randomness), like
    the machine's own [Remove] guard; everything else is
    {!Engine.Sim.apply} on the shard's machine.  [Round] needs no
    guard: a round over an empty shard ejects nothing and draws
    nothing. *)

(** {2 Snapshot state}

    The full mutable state as plain data — what {!Serve.Journal}
    serializes.  Restoring from [state] and replaying the same event
    suffix reproduces the shard bit-identically: the generator words
    capture the exact stream position and the registry snapshot the
    exact sampling orders. *)

type state = {
  applied : int;
  watermark : int;
  rng : int64 array;  (** {!Prng.Rng.save} words. *)
  bins : Core.Bins.snapshot;
      (** The {e full} registry snapshot — loads alone would not replay
          identically, because removals sample internal registry
          orders. *)
}

val state : t -> state

val of_state :
  lo:int ->
  process:Process.t ->
  scenario:Core.Scenario.t ->
  rule:Core.Scheduling_rule.t ->
  repr:Core.Repr.t ->
  state ->
  t
(** Accepts a drained state (zero balls) even though {!create} refuses
    one — a shard can be emptied legitimately after boot, and its
    snapshot must restore.
    @raise Invalid_argument on an empty or malformed state. *)
