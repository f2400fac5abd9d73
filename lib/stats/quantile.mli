(** Quantiles of finite samples.

    Linear-interpolation quantiles (type 7 in Hyndman-Fan's taxonomy, the
    R default), used to report medians and spread of measured recovery
    times. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [0 <= q <= 1].  Does not modify [xs].
    @raise Invalid_argument on an empty array or [q] outside [0,1]. *)

val median : float array -> float

val of_ints : int array -> float array
(** Convenience conversion. *)
