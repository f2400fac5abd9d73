(** Repeated balls-into-bins: the round-synchronous process family.

    RBB (Becchetti, Clementi, Natale, Pasquale, Posta; Cancrini &
    Posta; Los & Sauerwald) is the parallel-update sibling of the
    paper's sequential dynamic processes: in every {e round}, each
    non-empty bin ejects exactly one ball, and the ejected balls are
    re-placed one after another by a static rule — uniformly, or into
    the least loaded of [d] random bins.  The process is conservative
    (the ball count [m] never changes), so its state space is the same
    partition space the sequential scenario-B processes live in, and
    the whole exact pipeline ({!Markov.Exact_builder}, stationarity,
    mixing times) applies unchanged.

    The unit transition here is the {e round}, and the engine treats it
    as such: a [Step] of the sims below is one full round, so every
    generic driver ([iterate], [first_hit], the conformance harness)
    works without change; the service machine also answers the serve
    layer's [Round] event.

    A round over a normalized load vector splits into two phases:

    + {e ejection} — every strictly positive entry loses one ball.
      Deterministic, consumes no randomness, preserves sortedness
      (the positives are a prefix and drop uniformly).
    + {e re-placement} — the [q] ejected balls are inserted
      sequentially; each insertion lands at the maximum of [d] uniform
      ranks ([d = 1] for the uniform rule), exactly the ABKU\[d\]
      placement law of {!Core.Scheduling_rule}.

    Like the sequential step, the round is written once over
    {!Core.Load_state.S} and runs on every {!Core.Repr} backend: the
    sorted-array oracle, the draw-order-preserving count twin
    (bit-identical traces), and the cutoff-table sampler (equal in law,
    one float per ball). *)

type rule =
  | Uniform  (** Each ejected ball lands in a bin chosen i.u.r. *)
  | Dchoice of int
      (** Each ejected ball probes [d >= 2] bins i.u.r. and lands in
          the least loaded (ties to the earlier probe). *)

val uniform : rule

val dchoice : int -> rule
(** @raise Invalid_argument if [d < 2] (use {!uniform} for [d = 1]). *)

val rule_name : rule -> string
(** ["uniform"] or ["d2"], ["d3"], ... *)

val of_scheduling_rule : Core.Scheduling_rule.t -> (rule, string) result
(** The RBB rule whose placement is the given scheduling rule —
    [Abku 1 -> Uniform], [Abku d -> Dchoice d].  ADAP has no
    round-synchronous form (its probe count is data-adaptive, which
    breaks the fixed-draws-per-ball round structure): [Error]. *)

type t
(** An RBB process: a re-placement rule over [n] bins.  The ball count
    [m] is carried by the state, as in {!Core.Dynamic_process}. *)

val make : rule -> n:int -> t
(** @raise Invalid_argument if [n <= 0]. *)

val name : t -> string
(** ["RBB-u"] or ["RBB-d2"], ... — the subsystem tag every derived
    artifact (validate subjects, serve fingerprints) embeds. *)

val chain : t -> Prng.Rng.t -> Loadvec.Load_vector.t -> Loadvec.Load_vector.t
(** One round per step, on immutable vectors — the adapter the
    empirical TV machinery consumes. *)

(** {2 Simulation engine adapter} *)

val sim_repr :
  ?metrics:Engine.Metrics.t ->
  ?repr:Core.Repr.t ->
  t ->
  Loadvec.Load_vector.t ->
  Loadvec.Load_vector.t Engine.Sim.t
(** Start a round sim from a snapshot under the chosen representation
    (default [Array_backed]), on the {!Core.Load_state.of_repr} instance.
    Probes are accounted as [q * d] per round, with [q] the number of
    non-empty bins at round start; draws record the real RNG
    consumption: [q * d] ints for the draw-order-preserving backends,
    [q] floats for the sampler, whose cutoff table is rebuilt from the
    counts after each ejection.
    @raise Invalid_argument on a dimension mismatch. *)

(** {2 Exact one-round law}

    Feeds {!Markov.Exact_builder} exactly like
    {!Core.Dynamic_process.exact_transitions}: the state space is
    {!Markov.Partition_space.enumerate}[ ~n ~m] (the process is
    conservative). *)

val exact_transitions :
  t -> Loadvec.Load_vector.t -> (Loadvec.Load_vector.t * float) list
(** The distribution of the state after one round: deterministic
    ejection, then [q] placement laws
    ({!Core.Scheduling_rule.rank_distribution}) folded sequentially.
    Probabilities sum to 1. *)

(** {2 Identity-based service machine}

    The bin-identity lift of the round process, over {!Core.Bins} —
    what a serve shard hosts.  Destinations are planned sequentially
    against the post-ejection loads (the same law as the normalized
    round stepper), then realised as ball moves, so the ball count is
    conserved and checkpoint replay is exact. *)

val service_sim :
  ?metrics:Engine.Metrics.t -> t -> Core.Bins.t -> int array Engine.Sim.t
(** [Step] and [Round] both perform one round ([Ack]); [Insert] places
    one new ball by the placement rule ([Placed]); [Remove] is rejected
    (rounds conserve balls — a round-synchronous shard has no
    single-ball removal law); [Occupancy] snapshots the loads.
    @raise Invalid_argument on a dimension mismatch at reset. *)
