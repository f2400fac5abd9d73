(** Bootstrap confidence intervals.

    Percentile bootstrap for statistics of measured recovery times,
    replacing the "w.h.p." qualifiers of the paper with empirical interval
    estimates. *)

val ci :
  ?replicates:int ->
  ?level:float ->
  rng:Prng.Rng.t ->
  stat:(float array -> float) ->
  float array ->
  float * float
(** [ci ~rng ~stat xs] returns a percentile-bootstrap confidence interval
    (default 1000 replicates, level 0.95) for [stat] of the distribution
    underlying the sample [xs].
    @raise Invalid_argument on an empty sample or a level outside (0,1). *)
