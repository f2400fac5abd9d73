(** Closed forms of the paper's bounds, for "predicted" table columns.

    Constants inside O(·) are taken literal where the paper states them
    (Theorem 1, Lemma 3.1) and set to 1 where it only gives an order of
    growth; every function documents which case applies. *)

val theorem1 : m:int -> eps:float -> float
(** Theorem 1: scenario-A mixing time [⌈m ln(m ε⁻¹)⌉] — exact statement.
    @raise Invalid_argument if [m < 1] or [eps] outside (0,1). *)

val claim53 : n:int -> m:int -> eps:float -> float
(** Claim 5.3: scenario-B upper bound O(n m² ln ε⁻¹); rendered via
    Lemma 3.1(2) with diameter m and α = 1/n:
    [⌈e·m²·n⌉·⌈ln ε⁻¹⌉]. *)

val scenario_b_improved : m:int -> float
(** The full-version improvement Õ(m²): rendered as [m² ln m]. *)

val scenario_b_lower : m:int -> float
(** The Ω(m²) lower bound: rendered as [m²]. *)

val corollary64 : n:int -> eps:float -> float
(** Corollary 6.4: edge orientation O(n³(ln n + ln ε⁻¹)); rendered from
    Lemma 3.1(1) with β = 1 − 4/(n²(n−1)) and diameter n:
    [(n²(n−1)/4)·ln(n ε⁻¹)]. *)

val theorem2 : n:int -> float
(** Theorem 2: O(n² ln² n) for τ(¼); rendered as [n² ln² n]. *)

val edge_lower : n:int -> float
(** The Ω(n²) remark: rendered as [n²]. *)

val path_coupling_case1 : beta:float -> diameter:int -> eps:float -> float
(** Lemma 3.1, case (1): if [E Δ(X', Y') ≤ β·Δ(X,Y)] on adjacent pairs
    with [β < 1], then [τ(ε) ≤ ln(diameter·ε⁻¹) / (1 − β)].
    @raise Invalid_argument unless [0 <= beta < 1], [diameter >= 1] and
    [0 < eps < 1]. *)

val path_coupling_case2 : alpha:float -> diameter:int -> eps:float -> float
(** Lemma 3.1, case (2): if [β ≤ 1] and [Pr(Δ changes) ≥ α > 0] on
    adjacent pairs, then [τ(ε) ≤ ⌈e·diameter²/α⌉·⌈ln ε⁻¹⌉].
    [Coupling.Path_coupling.beta_estimate] estimates β and α.
    @raise Invalid_argument unless [0 < alpha <= 1], [diameter >= 1] and
    [0 < eps < 1]. *)

val azar_static_max_load : n:int -> m:int -> d:int -> float
(** Azar et al.: static max load ≈ [ln ln n / ln d + m/n] for d ≥ 2 and
    ≈ [ln n / ln ln n] for d = 1 (m = n).
    @raise Invalid_argument for [n < 2], [m < 0] or [d < 1]. *)

val edge_stationary_unfairness : n:int -> float
(** Ajtai et al.: expected unfairness Θ(log log n); rendered as
    [log₂ log₂ n] (n ≥ 4). *)

val recovery_a_steps : n:int -> float
(** Section 1.1, second removal scenario (a job chosen i.u.r. ends):
    recovery within O(n ln n) steps — rendered as [n ln n]. *)

val recovery_b_steps : n:int -> float
(** Section 1.1, first removal scenario (a server chosen i.u.r. finishes
    a job): recovery within O(n² ln n) steps — rendered as [n² ln n]. *)

(** {2 Repeated balls-into-bins (round-synchronous family)} *)

val rbb_mixing : n:int -> m:int -> float
(** Los & Sauerwald (tight bounds for repeated balls-into-bins): for
    [m = Θ(n)] the uniform RBB process mixes in Θ(n log n) rounds;
    rendered with unit constants as [(m/n)·n ln n] so the [m = n] case
    reads [n ln n].  @raise Invalid_argument if [n < 2] or [m < 1]. *)

val rbb_stabilization : n:int -> float
(** Becchetti et al. (self-stabilizing repeated balls-into-bins,
    [m = n]): from any configuration the max load drops to O(log n)
    within O(n) rounds w.h.p.; the rounds bound rendered as [n].
    @raise Invalid_argument if [n < 2]. *)

val rbb_max_load : n:int -> float
(** The same theorem's equilibrium ceiling: max load O(log n) w.h.p.
    once stabilized; rendered as [ln n].
    @raise Invalid_argument if [n < 2]. *)
