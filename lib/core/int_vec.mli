(** Growable integer vectors.

    A minimal dynamic array of [int]s (OCaml 5.1's stdlib has none) used
    for ball registries and non-empty-bin sets in {!Bins} and for probe
    memoization in {!Probe}. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val get : t -> int -> int
(** @raise Invalid_argument on out-of-bounds access. *)

val set : t -> int -> int -> unit
val push : t -> int -> unit
val pop : t -> int
(** Removes and returns the last element.
    @raise Invalid_argument when empty. *)

val swap_remove : t -> int -> int
(** [swap_remove v i] removes index [i] in O(1) by moving the last
    element into its place; returns the removed value. *)

val clear : t -> unit
