(** Weighted balls (the "Allocating weighted jobs" line of Berenbrink,
    Meyer auf der Heide & Schröder, cited by the paper).

    Balls carry positive real weights; a bin's load is the sum of the
    weights it holds, and the d-choice rule compares weighted loads.  The
    dynamic scenario-A process removes a ball chosen i.u.r. among the
    balls (independently of weight) and inserts a fresh ball with a newly
    drawn weight.

    The qualitative story to reproduce: for light-tailed weights the
    power of two choices survives almost unchanged, while for heavy tails
    the single largest job dominates the maximum load and extra choices
    stop helping. *)

type weight_dist =
  | Constant of float
  | Uniform_unit  (** uniform on (0, 1] *)
  | Exponential of float  (** with the given mean *)
  | Pareto of { alpha : float; xmin : float }
      (** heavy-tailed; infinite variance for [alpha <= 2] *)

val sample_weight : Prng.Rng.t -> weight_dist -> float
(** Draws a weight.
    @raise Invalid_argument on non-positive parameters. *)

val dist_name : weight_dist -> string

type t
(** A weighted system: per-bin weighted loads plus a ball registry. *)

val create : n:int -> t
(** @raise Invalid_argument if [n <= 0]. *)

val num_balls : t -> int
val load : t -> int -> float
val max_load : t -> float
(** O(n). *)

val total_weight : t -> float

val insert : t -> Prng.Rng.t -> d:int -> weight:float -> int
(** Place one ball of the given weight into the least (weighted-)loaded
    of [d] bins chosen i.u.r.; returns the bin.
    @raise Invalid_argument if [d < 1] or [weight <= 0]. *)

val remove_uniform_ball : t -> Prng.Rng.t -> float
(** Scenario-A removal: a ball chosen i.u.r. among balls; returns its
    weight.  @raise Invalid_argument when empty. *)

val static_run :
  Prng.Rng.t -> n:int -> m:int -> d:int -> dist:weight_dist -> t
(** Throw [m] fresh weighted balls. *)

val dynamic_step : t -> Prng.Rng.t -> d:int -> dist:weight_dist -> unit
(** One scenario-A step: remove a random ball, insert a fresh one. *)
