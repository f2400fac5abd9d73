(** Indexed state spaces and empirical distribution collection.

    Conformance checks compare {e empirical} distributions — frequency
    counts over a finite state space — against {e exact} laws given as
    dense probability vectors in the same indexing.  This module holds
    the shared indexing (states are compared and hashed structurally,
    like {!Markov.Exact_builder.build}) and the batched
    trajectory collection over {!Engine.Runner}, so counts are
    deterministic for any domain count.

    A simulator under test may step {e outside} the enumerated space —
    that is precisely the kind of bug the subsystem exists to catch — so
    collection never raises on an unknown state: it counts such
    observations as {e escapes} and the testers turn a positive escape
    count into a hard failure. *)

type 'state t

val make : 'state array -> 'state t
(** Index an enumeration.  States must be pairwise structurally
    distinct.
    @raise Invalid_argument on a duplicate state or an empty array. *)

val size : _ t -> int

val state : 'state t -> int -> 'state
val find_opt : 'state t -> 'state -> int option

val dense_law : 'state t -> ('state * float) list -> float array
(** A transition law as a dense vector over the space.  Duplicate
    successors are merged.
    @raise Invalid_argument if a successor lies outside the space or the
    total mass deviates from 1 by more than 1e-9. *)

type counts = {
  freq : Stats.Freq.t;  (** Per-index observation counts. *)
  escapes : int;  (** Observations outside the space. *)
}

val collect :
  ?domains:int ->
  rng:Prng.Rng.t ->
  reps:int ->
  'state t ->
  sample:(Prng.Rng.t -> 'state array) ->
  counts
(** [collect ~rng ~reps space ~sample] runs [sample] as [reps]
    repetitions fanned out through {!Engine.Runner.run} (one RNG split
    per repetition, so the counts are identical for any [domains]) and
    tallies every observed state.
    @raise Invalid_argument if [reps <= 0]. *)
