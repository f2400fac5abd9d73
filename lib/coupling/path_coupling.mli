(** The inputs of the Path Coupling Lemma of Bubley and Dyer (paper,
    Lemma 3.1), estimated from a coupling.

    Given an integer metric Δ on the state space, a set Γ of adjacent
    pairs along which any pair decomposes geodesically, and a coupling
    defined on Γ, the lemma bounds τ(ε) from the contraction β of
    [E Δ(X', Y')] on Γ (case 1) or from the probability α that Δ changes
    (case 2).  The calculators are [Theory.Bounds.path_coupling_case1]
    and [Theory.Bounds.path_coupling_case2]. *)

val beta_estimate :
  reps:int ->
  rng:Prng.Rng.t ->
  'state Coupled_chain.t ->
  pair:(Prng.Rng.t -> 'state * 'state) ->
  float * float
(** [beta_estimate ~reps ~rng c ~pair] empirically estimates, over random
    adjacent pairs from [pair] (which must return pairs at Δ = 1), the
    contraction factor: returns [(mean Δ after one step, fraction of steps
    with Δ ≠ 1)] — estimates of β and α for the two lemma cases.
    @raise Invalid_argument if [reps <= 0]. *)
