(** Streaming summary statistics.

    A single-pass running mean (Welford's update), plus extrema.  Used
    by every experiment to aggregate repeated measurements. *)

type t
(** Mutable accumulator. *)

val create : unit -> t

val add : t -> float -> unit
(** [add s x] folds the observation [x] into [s]. *)

val add_int : t -> int -> unit

val count : t -> int
val mean : t -> float
(** Mean of the observations so far; [nan] when empty. *)

val min : t -> float
(** Minimum observation; [infinity] when empty. *)

val max : t -> float
(** Maximum observation; [neg_infinity] when empty. *)

val sum : t -> float

val merge : t -> t -> t
(** [merge a b] is a fresh summary equivalent to having observed both
    streams (Chan's parallel update). *)
