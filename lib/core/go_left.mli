(** Always-Go-Left allocation (Vöcking's asymmetric d-choice rule).

    The bins are split into [d] contiguous groups of [n/d]; the ball
    probes one uniform bin {e per group} and goes to a least-loaded
    probe, breaking ties toward the leftmost group.  The asymmetry plus
    tie-breaking improves the maximum load from [ln ln n / ln d] to
    [ln ln n / (d·ln φ_d)] — a strictly better constant that experiment
    E18 contrasts with ABKU[d].

    Published the year after the paper, included here as the natural
    ablation of the d-choice rule family the paper analyses. *)

type t
(** The rule, fixed by [d] and the group layout for a given [n]. *)

val make : d:int -> n:int -> t
(** @raise Invalid_argument if [d < 1], [n < d], or [d] does not divide
    [n] (groups must be equal-sized). *)

val insert : t -> Prng.Rng.t -> Bins.t -> int
(** Place one ball; returns the bin.
    @raise Invalid_argument if the bins' size differs from the rule's
    [n]. *)

val static_run : t -> Prng.Rng.t -> m:int -> Bins.t
(** Throw [m] balls into fresh bins. *)

val dynamic_step : t -> Scenario.t -> Prng.Rng.t -> Bins.t -> unit
(** One remove-and-reinsert step of the dynamic process using this rule
    for insertion. *)
