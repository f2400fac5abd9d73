(** The edge orientation problem of Ajtai et al. (paper, Sections 1-2, 6),
    identity-based view.

    A multigraph on [n] vertices receives undirected edges one by one;
    each arriving edge is oriented immediately.  The state we track is the
    per-vertex {e discrepancy} (outdegree − indegree); the {e unfairness}
    is the maximum absolute discrepancy.  The greedy protocol orients each
    new edge from the endpoint with the smaller discrepancy to the one
    with the larger (ties broken by a coin).

    Discrepancies are clamped-checked against a window of ±[n]: the
    greedy protocol never leaves it when started inside. *)

type t

val create : n:int -> t
(** All discrepancies zero. @raise Invalid_argument if [n < 2]. *)

val of_discrepancies : int array -> t
(** Start from an explicit state.
    @raise Invalid_argument if the values do not sum to 0, exceed the
    ±n window, or fewer than 2 vertices are given. *)

val adversarial : n:int -> t
(** A worst-ish state: half the vertices at discrepancy +⌈n/2⌉ paired
    against half at −⌈n/2⌉ (one vertex left at 0 when [n] is odd). *)

val copy : t -> t
val n : t -> int
val discrepancy : t -> int -> int
val discrepancies : t -> int array
val edges_seen : t -> int

val unfairness : t -> int
(** Maximum absolute discrepancy, maintained in O(1) per step. *)

val greedy_step : Prng.Rng.t -> t -> unit
(** One uniform random edge arrives and is oriented greedily. *)

val run : Prng.Rng.t -> t -> steps:int -> unit

val orient : t -> src:int -> dst:int -> unit
(** Record an edge oriented [src -> dst] (for custom protocols /
    baselines).
    @raise Invalid_argument on bad ids, [src = dst], or window
    overflow. *)

val sim : ?metrics:Engine.Metrics.t -> t -> int array Engine.Sim.t
(** {!greedy_step} as an engine stepper on the given state (adopted and
    mutated).  Observations are discrepancy vectors; the probe is the
    unfairness, so [Engine.Sim.first_hit] measures recovery of the
    orientation process directly. *)
