(** Static allocation: throw [m] balls into [n] empty bins with a rule.

    The baseline of Azar et al.: with ABKU[1] the maximum load is
    Θ(ln n / ln ln n) for m = n; with ABKU[d], d ≥ 2, it drops to
    ln ln n / ln d (1 + o(1)) + Θ(m/n).  Experiment E5 reproduces this
    contrast. *)

val run : Scheduling_rule.t -> Prng.Rng.t -> n:int -> m:int -> Bins.t
(** Allocate [m] balls sequentially.
    @raise Invalid_argument if [n <= 0] or [m < 0]. *)

val max_load_samples :
  Scheduling_rule.t -> Prng.Rng.t -> n:int -> m:int -> reps:int -> int array
(** Max load over [reps] independent runs. *)
