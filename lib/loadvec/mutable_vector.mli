(** Mutable normalized load vectors.

    An in-place variant of {!Load_vector} for the inner loops of coupled
    simulations (Scenario-B coalescence runs take Θ(m²) steps, so per-step
    allocation matters).  All operations preserve the sortedness invariant
    via Fact 3.2 and cost O(log n). *)

type t

val of_load_vector : Load_vector.t -> t
val to_load_vector : t -> Load_vector.t
(** Snapshot as an immutable vector. *)

val copy : t -> t

val set_from_load_vector : t -> Load_vector.t -> unit
(** Overwrite the state with the given snapshot, in place — the reset
    primitive of the simulation engine.
    @raise Invalid_argument on a dimension mismatch. *)

val dim : t -> int
val total : t -> int
(** Ball count, maintained incrementally. *)

val get : t -> int -> int
val max_load : t -> int
val min_load : t -> int

val support : t -> int
(** Number of non-empty bins, maintained incrementally (O(1)). *)

val incr_at : t -> int -> int
(** [incr_at v i] performs [v ⊕ e_i] in place and returns the rank that
    was actually incremented (Fact 3.2's [j]). *)

val decr_at : t -> int -> int
(** [decr_at v i] performs [v ⊖ e_i] in place and returns the rank that
    was actually decremented (Fact 3.2's [s]).
    @raise Invalid_argument if the load at rank [i] is zero. *)

val eject_all : t -> int
(** One synchronous ejection: every strictly positive entry loses one
    ball (the deterministic phase of a repeated balls-into-bins round).
    Returns the number of balls ejected, i.e. the support before the
    call.  O(support); sortedness is preserved because the positives
    form a prefix that drops uniformly. *)

val equal : t -> t -> bool
(** Structural equality of the load vectors. *)

val l1_distance : t -> t -> int
val unsafe_loads : t -> int array
(** The underlying array; callers must not mutate it. *)
