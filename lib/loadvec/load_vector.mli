(** Normalized load vectors (paper, Section 3.1).

    A state of an allocation process on [n] bins is a {e normalized}
    vector [v] with [v.(0) >= v.(1) >= ... >= v.(n-1) >= 0]: entry [i] is
    the load of the bin of rank [i].  (We use 0-based ranks; the paper is
    1-based.)  The set of such vectors with [‖v‖₁ = m] is the paper's
    state space [Ω_m].

    The two primitive moves are [v ⊕ e_i] (add a ball at rank [i], then
    re-normalize) and [v ⊖ e_i] (remove one, then re-normalize).  By the
    paper's Fact 3.2 these are realised in place by incrementing the
    {e first} entry equal to [v.(i)], respectively decrementing the
    {e last} entry equal to [v.(i)] — which keeps the vector sorted. *)

type t
(** A normalized load vector.  Values of this type are immutable from the
    outside; every operation returns a fresh vector. *)

val of_array : int array -> t
(** [of_array a] normalizes (sorts) a copy of [a]; an [a] that is
    already normalized ({!is_normalized}) is copied without sorting, at
    the cost of one O(n) check.
    @raise Invalid_argument if [a] is empty or has a negative entry. *)

val of_loads : n:int -> int list -> t
(** [of_loads ~n loads] places the listed loads into [n] bins, remaining
    bins empty.
    @raise Invalid_argument if [List.length loads > n] or any load is
    negative. *)

val uniform : n:int -> m:int -> t
(** The most balanced state: loads differ by at most one. *)

val all_in_one : n:int -> m:int -> t
(** The adversarial state with all [m] balls in a single bin. *)

val to_array : t -> int array
(** A fresh copy of the underlying (sorted, non-increasing) array. *)

val dim : t -> int
(** Number of bins [n]. *)

val total : t -> int
(** Number of balls [m = ‖v‖₁]. *)

val get : t -> int -> int
(** [get v i] is the load at rank [i] (0-based).
    @raise Invalid_argument if [i] is out of bounds. *)

val max_load : t -> int
val min_load : t -> int

val support : t -> int
(** Number of non-empty bins, the paper's [s = max{i : v_i > 0}] (as a
    count).  0 for the empty vector. *)

val first_equal : t -> int -> int
(** [first_equal v i] is the smallest rank [j] with [v_j = v_i]
    (Fact 3.2's [j = min{t : v_t = v_i}]). *)

val last_equal : t -> int -> int
(** [last_equal v i] is the largest rank [s] with [v_s = v_i]. *)

val oplus : t -> int -> t
(** [oplus v i] is [v ⊕ e_i]: the normalization of [v + e_i].
    @raise Invalid_argument if [i] is out of bounds. *)

val ominus : t -> int -> t
(** [ominus v i] is [v ⊖ e_i].
    @raise Invalid_argument if [i] is out of bounds or [v.(i) = 0]. *)

val is_normalized : int array -> bool
(** Whether an array is sorted non-increasingly with non-negative
    entries. *)

val delta : t -> t -> int
(** [delta v u] is the paper's metric [Δ(v,u) = ½‖v−u‖₁].  Requires both
    vectors to have the same dimension and total; then
    [Δ(v,u) = Σᵢ max(vᵢ−uᵢ, 0)].
    @raise Invalid_argument on dimension or total mismatch. *)

val l1_distance : t -> t -> int
(** [‖v−u‖₁], defined for any two vectors of the same dimension. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit

val counts_by_load : t -> (int * int) list
(** [(load, number of bins with that load)] pairs, decreasing load. *)
