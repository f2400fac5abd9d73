(** The normalized load state behind the steppers, over any
    {!Repr} backend.

    {!Dynamic_process} and [Rbb] write their step and round once over
    {!S}; the backend is the instance they run on.  The array oracle
    and the count twin insert through one direct-draw routine, so on
    equal multisets they consume the generator identically and their
    trajectories are bit-identical.  The sampler redistributes the
    insertion draws and is held to equality in law. *)

module type S = sig
  type t

  val of_load_vector : Loadvec.Load_vector.t -> t
  val to_load_vector : t -> Loadvec.Load_vector.t

  val set_from_load_vector : t -> Loadvec.Load_vector.t -> unit
  (** Overwrite the state in place (the reset primitive).
      @raise Invalid_argument on a dimension mismatch. *)

  val dim : t -> int
  val max_load : t -> int

  val remove : t -> Scenario.t -> u:float -> unit
  (** Remove one ball by the scenario's inverse CDF at the variate [u]
      ({!Scenario.remove_rank}).
      @raise Invalid_argument if the state has no balls. *)

  val insert : t -> Scheduling_rule.t -> Prng.Rng.t -> int
  (** Insert one ball by the rule; returns the probes of its law. *)

  val insert_draws : probes:int -> int
  (** The generator draws an insertion of [probes] probes consumed:
      [probes] for direct draws, one float for the sampler. *)

  val eject_all : t -> int
  (** Every non-empty bin loses one ball; returns how many did. *)
end

module Array : S with type t = Loadvec.Mutable_vector.t
(** The sorted load array: the oracle. *)

val insert_pair :
  Loadvec.Mutable_vector.t -> Loadvec.Mutable_vector.t ->
  Scheduling_rule.t -> Prng.Rng.t -> unit
(** [insert_pair x y rule g] inserts one ball into each of two distinct
    arrays of one dimension, from one probe sequence read in lockstep:
    each probe is drawn once and offered to every copy still probing
    (the right-oriented coupling of Lemma 3.3 with [Φ] the identity).
    Each copy lands where {!Array.insert} would from the same stream,
    and [g] advances by the longer of the two probe counts.  ABKU[d]'s
    rank is drawn by the routine {!Array.insert} and {!Counts.insert}
    use. *)

module Counts : S with type t = Loadvec.Count_vector.t
(** The count vector, drawing exactly as {!Array} does. *)

val of_repr : Repr.t -> Scheduling_rule.t -> (module S)
(** The instance for a backend: {!Array}, {!Counts}, or for
    [Count_sampled] the cutoff-table sampler
    ({!Scheduling_rule.Abku_table}), which builds its table from the
    counts on the first insertion after creation and refills it in
    place after a reset or ejection.
    An ADAP rule has no cutoff table, so [Count_sampled] runs
    {!Counts} for it. *)
