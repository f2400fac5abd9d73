(** Enumeration of the state space Ω_m (paper, Section 3.1).

    The normalized load vectors on [n] bins with [m] balls are exactly the
    partitions of [m] into at most [n] parts.  For small [(n, m)] we can
    enumerate them and analyse the allocation chains exactly, which is how
    the path-coupling bounds are validated against ground truth (bench
    experiment E7). *)

val enumerate : n:int -> m:int -> Loadvec.Load_vector.t array
(** All normalized vectors in Ω_m on [n] bins, in lexicographically
    decreasing order of the underlying arrays — the order the recursion
    emits them in, with no sort.  A chain built on this array numbers
    its states in this order, so a checkpoint's start ids depend on it.
    @raise Invalid_argument if [n <= 0] or [m < 0]. *)

val count : n:int -> m:int -> int
(** [count ~n ~m] is [p(m, n)], the number of partitions of [m] into at
    most [n] parts — computed without enumerating. *)

type index
(** Bidirectional mapping between states and dense indices. *)

val index_of_space : Loadvec.Load_vector.t array -> index
val find : index -> Loadvec.Load_vector.t -> int
(** @raise Not_found if the vector is not in the space. *)

val size : index -> int
