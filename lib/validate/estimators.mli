(** Distance estimators and goodness-of-fit tests against exact laws.

    Everything here compares an empirical count vector ({!Stats.Freq.t})
    with an exact probability vector [q] over the same indexing (built
    by {!Space.dense_law} or {!Markov.Exact.stationary}).

    The plug-in TV estimator [½ Σ |p̂ᵢ − qᵢ|] is biased upward: with [N]
    samples each cell contributes noise of order [√(qᵢ/N)] even under
    the null.  {!bias_corrected_tv} subtracts the CLT estimate of that
    null expectation, [½ Σᵢ √(2 qᵢ(1−qᵢ)/(π N))] (the mean absolute
    deviation of a normal with the binomial cell variance), clamped at
    zero — the Valiant-style correction that makes small true distances
    distinguishable from sampling noise.

    The goodness-of-fit tests pool low-expectation cells (classical
    [E ≥ 5] rule, configurable) in a deterministic order before
    computing the statistic, and get p-values from
    {!Stats.Special.chi_square_sf}.  Mass observed on cells with [qᵢ = 0]
    is structurally impossible under the null; both tests then report a
    p-value of 0 and an infinite statistic. *)

val plugin_tv : Stats.Freq.t -> expected:float array -> float
(** [½ Σ |p̂ᵢ − qᵢ|].
    @raise Invalid_argument on a length mismatch or an empty count. *)

val tv_bias : expected:float array -> total:int -> float
(** The CLT null expectation of {!plugin_tv} with [total] samples. *)

val bias_corrected_tv : Stats.Freq.t -> expected:float array -> float
(** [max 0 (plugin_tv − tv_bias)]. *)

type gof = {
  statistic : float;
  df : int;  (** [pooled] − 1 (0 for a degenerate single cell). *)
  p_value : float;
  cells : int;  (** Cells with positive expectation before pooling. *)
  pooled : int;  (** Cells after pooling. *)
  forbidden : int;  (** Observations on zero-probability cells. *)
}

val g_test : ?min_expected:float -> Stats.Freq.t -> expected:float array -> gof
(** Likelihood-ratio statistic [G = 2 Σ O ln(O/E)] over pooled cells.
    [min_expected] (default 5.) is the pooling threshold on [E].
    @raise Invalid_argument on a length mismatch or an empty count. *)

val chi_square_test :
  ?min_expected:float -> Stats.Freq.t -> expected:float array -> gof
(** Pearson statistic [Σ (O−E)²/E] over the same pooling. *)

val standardized_residuals : Stats.Freq.t -> expected:float array -> float array
(** Per-cell (unpooled) residuals [(Oᵢ − N qᵢ) / √(N qᵢ (1−qᵢ))]; 0 when
    the null variance vanishes and the observation agrees, [infinity]
    when mass sits on a zero-probability cell. *)

val tv_ci :
  ?replicates:int ->
  ?level:float ->
  rng:Prng.Rng.t ->
  Stats.Freq.t ->
  expected:float array ->
  float * float
(** Percentile-bootstrap interval (default 200 replicates, level 0.95)
    for the plug-in TV distance, by multinomial resampling of the
    observations through {!Stats.Bootstrap.ci}. *)
