(** The paper's dynamic allocation processes (Section 3.3).

    A process is a removal scenario plus a scheduling rule; one step
    removes a ball and re-inserts one.  The instances are:

    - [Id-ABKU[d]]  = scenario A + ABKU[d]   (protocol 1_A)
    - [Id-ADAP(x)]  = scenario A + ADAP(x)
    - [Ib-ABKU[d]]  = scenario B + ABKU[d]   (protocol 1_B)
    - [Ib-ADAP(x)]  = scenario B + ADAP(x)

    Each step is written once over {!Load_state.S}, so it runs on every
    {!Repr} backend: {!step} on any load state, {!sim_repr} as an
    engine adapter.  A functional one-step view ({!chain}) and the exact
    transition law serve small-state-space ground truth. *)

type t

val make : Scenario.t -> Scheduling_rule.t -> n:int -> t
(** @raise Invalid_argument if [n <= 0]. *)

val scenario : t -> Scenario.t
val rule : t -> Scheduling_rule.t
val n : t -> int

val name : t -> string
(** E.g. ["Id-ABKU[2]"] (scenario A) or ["Ib-ADAP(linear)"]. *)

val step : (module Load_state.S with type t = 's) -> t -> Prng.Rng.t -> 's -> int
(** One step (remove, then insert) on a load state of the given
    instance, mutating it; returns the probes the insertion used (of
    interest for the ADAP ablation).  Consumes one removal float, then
    the rule's draws: the {!Load_state.Array} oracle and the
    {!Load_state.Counts} twin stay bit-identical on equal multisets.
    @raise Invalid_argument if the state has no balls or wrong
    dimension. *)

val step_in_place : t -> Prng.Rng.t -> Loadvec.Mutable_vector.t -> unit
(** {!step} on the sorted-array oracle, discarding the probe count. *)

val chain : t -> Prng.Rng.t -> Loadvec.Load_vector.t -> Loadvec.Load_vector.t
(** Functional one-step view on immutable vectors (each step copies the
    state through {!Loadvec.Mutable_vector.of_load_vector}, so this is
    for exact-analysis-style functional composition — e.g. feeding
    {!Markov.Empirical} — not for simulation loops; those use {!sim}
    or {!sim_repr} with the {!Engine.Sim} drivers). *)

val sim :
  ?metrics:Engine.Metrics.t ->
  t ->
  Loadvec.Mutable_vector.t ->
  Loadvec.Load_vector.t Engine.Sim.t
(** Zero-allocation stepper on the given state buffer (adopted and
    mutated; the caller may keep it for cheap reads).  The probe is the
    maximum load; probes and RNG draws are counted per step.
    @raise Invalid_argument on a dimension mismatch. *)

val sim_repr :
  ?metrics:Engine.Metrics.t ->
  ?repr:Repr.t ->
  t ->
  Loadvec.Load_vector.t ->
  Loadvec.Load_vector.t Engine.Sim.t
(** Representation-selectable stepper, started from the given state, on
    the {!Load_state.of_repr} instance.

    - {!Repr.Array_backed} (default): {!sim} on a fresh
      {!Loadvec.Mutable_vector} — the oracle.
    - {!Repr.Count_backed}: {!Loadvec.Count_vector} state; same RNG
      draw order as the oracle, bit-identical trajectories.
    - {!Repr.Count_sampled}: count-vector state with branch-free
      ABKU\[d\] insertion via {!Scheduling_rule.Abku_table} — one float
      draw replaces the [d] probe draws, so trajectories are equal in
      law but not in trace (checked by {!Validate}); ADAP rules fall
      back to [Count_backed].

    The probe metric always records the law's probe count; the draw
    metric records actual RNG consumption (2 per step for the sampled
    backend, [1 + probes] otherwise).
    @raise Invalid_argument on a dimension mismatch. *)

val exact_transitions :
  t -> Loadvec.Load_vector.t -> (Loadvec.Load_vector.t * float) list
(** Exact one-step law from a state, one outcome per (removal load
    class × insertion load class) pair: by Fact 3.2 every rank of a class
    gives the same normalized successor, so each class's mass is summed
    over its ranks first.  Only the state itself can be listed more than
    once (once per removal class); probabilities sum to 1.  Apply it to
    the process once and reuse the result: the ABKU\[d\] rank law is
    computed at that application.
    @raise Invalid_argument if the state's dimension is not [n t]. *)
