(** Discrete probability distributions over [0, n).

    The paper's removal rules are exactly such distributions: {b A(v)}
    picks index [i] with probability [v_i / m] (scenario A) and {b B(v)}
    picks uniformly among the non-empty prefix (scenario B).  This module
    samples them by inverse CDF, over float or integer weights. *)

val weighted : Rng.t -> float array -> int
(** [weighted g w] samples index [i] with probability [w.(i) / sum w] by
    inverse CDF over a single uniform draw.  Couplings rely on this using
    exactly one [Rng.float] call.
    @raise Invalid_argument if [w] is empty, has a negative entry, or sums
    to zero. *)

val weighted_int : Rng.t -> int array -> int
(** [weighted_int g w] is [weighted] for non-negative integer weights,
    using exact integer arithmetic (a single [Rng.int] draw on the total
    weight).
    @raise Invalid_argument if [w] is empty, has a negative entry, or sums
    to zero. *)

val inverse_cdf : float array -> float -> int
(** [inverse_cdf w u] maps the uniform variate [u] in [0,1) to the index
    drawn by inverse CDF on weights [w].  Deterministic; this is the
    function shared between two coupled chains fed the same [u]. *)
