(** Exact analysis of finite Markov chains.

    Given a chain built by {!Exact_builder.build}, whose transition
    matrix is stored as blocked CSR (see {!Blocked_csr}), computes the
    stationary distribution, total-variation distances and the {e exact}
    mixing time

    {v τ(ε) = min { T : ∀t ≥ T, max_x ‖L(M_t | M_0 = x) − π‖ ≤ ε } v}

    of the paper's Section 3.  All per-start quantities evolve
    distribution {e vectors} by repeated fused sparse products rather
    than materialising dense powers [P^t]: one sweep advances a batch of
    starts one product at a time and retires each start once it is
    done.  The stationary distribution is computed once per chain and
    cached.  The one parallel axis is over batches of starts, which fan
    out over {!Parallel.map_array} with results identical for any domain
    count; each product runs on one domain.  Long solves checkpoint
    through {!Exact_checkpoint} sinks and resume to bit-identical
    answers.  Still only for enumerable state spaces.

    A chain value caches its stationary distribution and must not be
    shared across domains while these functions run on it. *)

type 'state t

val size : _ t -> int

val blocked : _ t -> Blocked_csr.t
(** The transition matrix. *)

val states : 'state t -> 'state array
(** The state enumeration, in index order (a copy). *)

val index : 'state t -> 'state -> int
(** @raise Not_found for a state outside the enumeration. *)

val state : 'state t -> int -> 'state

val tv_distance : float array -> float array -> float
(** Total variation distance [½ Σ |p_i − q_i|] between two distributions
    given as dense vectors.
    @raise Invalid_argument on length mismatch. *)

val stationary :
  ?tol:float ->
  ?max_iter:int ->
  ?domains:int ->
  ?checkpoint:Exact_checkpoint.sink ->
  'state t ->
  float array
(** Stationary distribution by power iteration from the uniform
    distribution (default [tol = 1e-12], [max_iter = 1_000_000]).
    Convergence requires the residual [‖πP − π‖₁] {e and} its
    gap-corrected projection of the true error to fall below [tol], so
    slowly-mixing chains are not declared converged early.  The result
    is cached on the chain and reused whenever the cached tolerance is
    at least as tight as the requested one.  The power iteration is one
    chain of products, so it runs on the calling domain: [domains] is
    accepted and ignored.  With a [checkpoint] sink the in-progress
    iterate is snapshotted periodically and resumed from on restart.
    @raise Failure if the iteration does not converge — e.g. for a
    periodic chain. *)

val distribution_after : 'state t -> start:int -> int -> float array
(** [distribution_after c ~start t] is the law of the chain after [t]
    steps from state index [start], by [t] sparse vector·matrix
    products. *)

val stationary_expectation :
  'state t -> ?pi:float array -> f:('state -> float) -> unit -> float
(** [stationary_expectation c ~f ()] is [Σ_x π(x) f(x)], computing π
    (cached) unless one is supplied. *)

val worst_tv_profile :
  ?domains:int ->
  ?drop_below:float ->
  ?starts:int array ->
  'state t ->
  max_t:int ->
  float array
(** [worst_tv_profile c ~max_t] is the sequence
    [t ↦ max_x ‖P^t(x,·) − π‖] for [t = 0..max_t] — the exact decay curve
    whose ε-crossing point is τ(ε).  Starts evolve in batches, fanned
    out over [domains]; the result is the same for any domain count.  A
    start whose TV has decayed to ≤ [drop_below] (default [0.], i.e.
    never) stops evolving and holds its last value: since per-start TV
    is non-increasing, the profile is then exact up to an additive error
    of at most [drop_below] and remains non-increasing.  [starts]
    restricts the max to the given state indices (default: all) — at
    scales where an all-start sweep is infeasible, designated extremal
    starts bound the profile from below.
    @raise Invalid_argument if [starts] is empty or holds an index out
    of range. *)

val relaxation_estimate :
  ?domains:int -> ?starts:int array -> 'state t -> ?max_t:int -> unit -> float
(** Fit [worst TV ≈ C·exp(−t/τ_rel)] to the tail of the decay curve and
    return the estimated relaxation time τ_rel (OLS on the log of the
    profile restricted to TV in [1e-8, 0.1], where the decay is cleanly
    exponential).  Complements {!mixing_time}: for a sound chain
    [τ(ε) ≲ τ_rel · ln(1/(ε·π_min))].  [starts] as in
    {!worst_tv_profile}.
    @raise Failure if the profile never decays enough to fit. *)

val mixing_time :
  ?eps:float ->
  ?max_t:int ->
  ?domains:int ->
  ?starts:int array ->
  ?checkpoint:Exact_checkpoint.sink ->
  'state t ->
  int
(** Exact [τ(ε)] (default [eps = 0.25], [max_t = 100_000]).  Uses the
    cached stationary distribution.  τ(ε) is the maximum over starts of
    the per-start crossing [τ_x = min {t : ‖P^t(x,·) − π‖ ≤ ε}].  A start
    within ε at [t = 0] crosses there; the others evolve in batches, one
    fused product per time step, and each retires at its first TV ≤ ε.
    Per-start TV to π is non-increasing in [t], so that first time is
    its crossing, reached in exactly [τ_x] products.

    [starts] restricts the maximum to the given state indices (default:
    all states — the definition above).  The batches fan out over
    [domains] (default {!Parallel.recommended_domains}) when every block
    of the matrix is in memory; the result is identical for any value.

    With a [checkpoint] sink the batches run in order on the calling
    domain, and the search snapshots the stationary iterate, the
    completed crossings and the live batch with its distributions; a
    killed run resumed with the same sink (matching chain fingerprint
    and ε) skips completed work and returns the bit-identical τ.
    @raise Failure if not mixed within [max_t].
    @raise Invalid_argument if [domains < 1], or [starts] is empty or
    out of range. *)

(**/**)

val of_blocked :
  states:'state array ->
  find:('state -> int option) ->
  Blocked_csr.t ->
  'state t
(** {!Exact_builder.build}'s hook: wrap a transition matrix it has
    already validated.  Checks only that the matrix is |states| ×
    |states| — no row, stochasticity or duplicate-state check — so build
    chains with {!Exact_builder.build}.  [find] must map exactly the
    members of [states] to their indices.
    @raise Invalid_argument if the matrix is not |states| × |states|. *)
