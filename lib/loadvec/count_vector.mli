(** Multiset (count-vector) view of a normalized load vector.

    Stores the number of bins at each load level rather than the sorted
    load array.  Because Fact 3.2 realises every ⊕/⊖ at a class
    boundary, the multiset determines the normalized vector exactly, and
    the elementary moves of the dynamic processes become O(1) level
    shifts.  Queries scan the L = max_load + 1 occupied levels instead
    of the n ranks — the representation behind the count-backed stepper
    backends in {!Core.Dynamic_process}. *)

type t

val of_load_vector : Load_vector.t -> t
val to_load_vector : t -> Load_vector.t
(** Expand back to the sorted vector (O(n)). *)

val copy : t -> t

val set_from_load_vector : t -> Load_vector.t -> unit
(** Overwrite the state in place — the reset primitive of the simulation
    engine.  @raise Invalid_argument on a dimension mismatch. *)

val dim : t -> int
val total : t -> int
val support : t -> int
(** Number of non-empty bins (O(1)). *)

val max_load : t -> int
(** Highest occupied level, maintained incrementally. *)

val min_load : t -> int
val count : t -> int -> int
(** [count t l] is the number of bins carrying exactly [l] balls (0 for
    levels above [max_load]). *)

val equal : t -> t -> bool

val level_of_rank : t -> int -> int
(** Load of the bin at rank [r] of the descending sort (O(L)).
    @raise Invalid_argument unless [0 <= r < dim]. *)

val level_of_ball : t -> target:int -> int
(** Level at which the scenario-A inverse-CDF scan stops: the smallest
    descending-level prefix whose ball mass exceeds [target] (the
    integer [⌊u·m⌋]).  Matches the branch decisions of the rank-by-rank
    scan in [Scenario.remove_rank] (integer partial sums compared
    against the same integer target), so the array and count steppers
    remove from the same load class on the same draw.
    @raise Invalid_argument if the vector has no balls. *)

val eject_all : t -> int
(** One synchronous ejection: every non-empty bin drops one level at
    once — the whole count profile slides down by one.  Returns the
    number of balls ejected (the support before the call).
    O(max_level); the count-backend twin of
    {!Mutable_vector.eject_all}. *)

val shift_down : t -> int -> unit
(** [shift_down t l] moves one bin from level [l] to [l - 1] — the
    multiset form of ⊖ at a rank of load [l].
    @raise Invalid_argument if no bin sits at level [l >= 1]. *)

val shift_up : t -> int -> unit
(** [shift_up t l] moves one bin from level [l] to [l + 1] — the
    multiset form of ⊕ at a rank of load [l].
    @raise Invalid_argument if no bin sits at level [l]. *)
