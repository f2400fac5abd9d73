(** Removal scenarios (paper, Section 2).

    Scenario {b A} removes a ball chosen i.u.r. among the [m] balls — on a
    normalized vector this decrements rank [i] with probability [v_i/m]
    (the distribution [A(v)] of Definition 3.2).  Scenario {b B} removes
    one ball from a non-empty bin chosen i.u.r. — rank [i] uniform over
    the non-empty prefix (the distribution [B(v)] of Definition 3.3). *)

type t = A | B

val name : t -> string

val process_prefix : t -> string
(** ["Id"] for A, ["Ib"] for B: the prefix of a process name such as
    [Id-ABKU[2]] or [Ib-ADAP(1,2)]. *)

val remove_rank : t -> Loadvec.Mutable_vector.t -> u:float -> int
(** [remove_rank sc v ~u] maps the uniform variate [u ∈ [0,1)] to the
    rank to decrement, by inverse CDF.  Under A the rank is the first
    whose prefix sum exceeds [⌊u·m⌋], an integer comparison that picks
    the same rank as [u·m < prefix sum] for every [u].  Feeding two
    coupled copies the same [u] yields the monotone removal coupling.
    @raise Invalid_argument if the vector is empty of balls. *)

val remove_pair :
  t -> Loadvec.Mutable_vector.t -> Loadvec.Mutable_vector.t -> u:float -> unit
(** [remove_pair sc x y ~u] decrements [x] at [remove_rank sc x ~u] and
    [y] at [remove_rank sc y ~u], the removal half of the monotone
    coupling.  Under A it scans both prefix sums in one pass, with a
    target per copy (the totals may differ).  [x] and [y] are distinct
    vectors.
    @raise Invalid_argument if either vector is empty of balls, or
    under A if the dimensions differ. *)

val remove_level : t -> Loadvec.Count_vector.t -> u:float -> int
(** Count-vector form of {!remove_rank}: same variate, same branch
    decisions, but the answer is the load class hit by the removal
    (which determines the normalized successor by Fact 3.2).  On any
    pair of states with equal multisets, [remove_level] on the count
    vector and [remove_rank] on the array pick the same class for every
    [u] — the contract behind the bit-identical count-backed stepper.
    @raise Invalid_argument if the vector is empty of balls. *)

val removal_distribution : t -> loads:int array -> float array
(** Exact law over ranks for a normalized [loads] vector; used to build
    exact transition matrices.
    @raise Invalid_argument if there are no balls. *)
