(** The closed dynamic system on concrete bins.

    One step = remove a ball per the scenario, then insert a new one per
    the rule.  This is the application-level view (jobs on servers) used
    by the recovery experiments; it is distributionally identical to
    {!Dynamic_process.chain} on the normalized state. *)

type t

val create : ?repr:Repr.t -> Scenario.t -> Scheduling_rule.t -> Bins.t -> t
(** Adopts (and will mutate) the given bins.  [repr] (default
    {!Repr.Array_backed}) selects the insertion machinery:
    [Count_sampled] with an ABKU rule enables the bins'
    {!Bins.enable_sampled_insertion} cutoff table (2 draws per insert,
    equal in law but not in trace); [Count_backed] is identical to
    [Array_backed] here, since {!Bins} is already count-indexed.
    @raise Invalid_argument if the bins hold no balls. *)

val bins : t -> Bins.t

val step : Prng.Rng.t -> t -> unit
val step_probes : Prng.Rng.t -> t -> int
(** As {!step}, returning the probes used by the insertion. *)

val run : Prng.Rng.t -> t -> steps:int -> unit

val max_load : t -> int

val sim : ?metrics:Engine.Metrics.t -> t -> int array Engine.Sim.t
(** The system as a full event machine (observations are per-bin load
    snapshots; the probe is the maximum load).  Besides [Step], its
    {!Engine.Sim.apply} answers [Insert] ([Placed bin], counting probes
    and raising the watermark), [Remove] ([Removed bin], or
    [Rejected "empty"] — consuming no randomness — when no balls
    remain), [Occupancy], [Probe] and [Watermark].  The recovery harness
    drives it through {!Engine.Sim.first_hit}; the serve layer's shards
    ({!Serve.Shard}) drive it through the full vocabulary. *)

val run_until :
  Prng.Rng.t -> t -> pred:(t -> bool) -> limit:int -> int option
(** First step count [<= limit] at which [pred] holds (checked before the
    first step and after every step), or [None]. *)
