(** Frequency counts of a non-negative integer variable.

    The count layer shared by {!Markov.Empirical}'s observable-law
    estimates, the [Validate] conformance subsystem's state-occupancy
    collection and the load histograms of [repro simulate]: a mutable
    vector of counts over [0 .. size-1] with an incrementally-maintained
    total, summaries of it, and the plug-in total-variation distances
    computed from such counts.  Deliberately free of any state-space or
    simulation dependency so every layer can share it. *)

type t

val create : size:int -> t
(** [size] cells, all zero.
    @raise Invalid_argument if [size <= 0]. *)

val size : t -> int
val total : t -> int

val observe : t -> int -> unit
(** Count one observation of cell [i].
    @raise Invalid_argument if [i] is outside [0 .. size-1]. *)

val add : t -> int -> int -> unit
(** [add t i k] counts [k] observations of cell [i].
    @raise Invalid_argument on a bad cell or [k < 0]. *)

val get : t -> int -> int
val counts : t -> int array
(** A copy of the count vector. *)

val merge_into : dst:t -> t -> unit
(** Add every count of the source into [dst].
    @raise Invalid_argument on a size mismatch. *)

val of_values : int array -> t
(** Counts of a sample of a non-negative integer variable; the size is
    [max value + 1].
    @raise Invalid_argument if the sample is empty or has a negative
    entry. *)

val mean : t -> float
(** Mean observed value; [nan] when empty. *)

val fraction_at_least : t -> int -> float
(** [fraction_at_least t v] is the empirical probability of an
    observation [>= v]; [nan] when empty. *)

val pp : Format.formatter -> t -> unit
(** Render as [value: count] lines with a proportional bar, from 0 up
    to the largest observed value. *)

val tv : t -> t -> float
(** Plug-in total-variation distance [½ Σ |p̂ᵢ − q̂ᵢ|] between two
    empirical distributions; the shorter count vector is padded with
    zeros.  Summed exactly over the integer counts and divided once, so
    the result is always in [\[0, 1\]].
    @raise Invalid_argument if either side is empty. *)

val tv_against : t -> float array -> float
(** Plug-in TV distance between the empirical distribution and an exact
    law given as a probability vector of length [size].
    @raise Invalid_argument on a length mismatch or an empty count. *)
