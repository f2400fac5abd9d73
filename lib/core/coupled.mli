(** Couplings of the allocation chains (Sections 4 and 5).

    Two couplings are provided:

    {ul
    {- the {e monotone} coupling used for coalescence measurement on
       arbitrary pairs: the removal ranks of both copies are produced by
       inverse CDF from one shared uniform variate, and the insertions
       read one shared probe sequence (the right-oriented coupling of
       Lemma 3.3 with [Φ] the identity, which Lemma 3.4 licenses for both
       ABKU and ADAP).  The removal scans both copies in one pass
       ({!Scenario.remove_pair}); each probe is drawn once and offered
       to every copy still probing ({!Load_state.insert_pair});}
    {- the {e paper} couplings, defined exactly as in Section 4
       (scenario A) and Section 5 (scenario B) for pairs at distance
       [Δ = 1], used to check Corollary 4.2 and Claims 5.1–5.3
       empirically.}} *)

val monotone :
  Dynamic_process.t -> Loadvec.Mutable_vector.t Coupling.Coupled_chain.t
(** Monotone coupling on mutable states.  The step mutates its arguments
    and returns them; callers must not retain old states (the coalescence
    runners do not).  Under ABKU[d] a step allocates only the boxed
    removal variate and the returned pair, 5 words. *)

val find_adjacent_offsets :
  Loadvec.Load_vector.t -> Loadvec.Load_vector.t -> (int * int) option
(** [find_adjacent_offsets v u] is [Some (lambda, delta)] when
    [v = u + e_lambda − e_delta] with [lambda < delta] (0-based ranks),
    [None] otherwise. *)

val adjacent_pair :
  Prng.Rng.t -> n:int -> m:int ->
  Loadvec.Load_vector.t * Loadvec.Load_vector.t
(** A random pair [(v, u)] at distance 1 with
    [v = u + e_lambda − e_delta], [lambda < delta]: [u] is a uniform
    random allocation, perturbed by moving one ball.
    @raise Invalid_argument if [m < 1] or [n < 2]. *)

val paper_step :
  Dynamic_process.t ->
  Prng.Rng.t ->
  Loadvec.Load_vector.t ->
  Loadvec.Load_vector.t ->
  Loadvec.Load_vector.t * Loadvec.Load_vector.t
(** One step of the paper's coupling.  The pair must be at distance 1
    (with either orientation; the step re-orients internally).  For equal
    states the identity coupling is applied.
    @raise Invalid_argument if the states are neither equal nor
    adjacent. *)

val paper_coupling :
  Dynamic_process.t -> Loadvec.Load_vector.t Coupling.Coupled_chain.t
(** {!paper_step} packaged with the metric Δ, suitable for
    [Coupling.Path_coupling.beta_estimate]. *)
