(** Couplings of a Markov chain with itself (Definition 3.1).

    A coupling runs two copies [(X_t, Y_t)] of the same chain on shared
    randomness such that each copy, viewed alone, is a faithful copy of
    the chain.  Once the copies meet they stay together (all couplings in
    this library are sticky by construction: equal states receive equal
    updates). *)

type 'state t = {
  step : Prng.Rng.t -> 'state -> 'state -> 'state * 'state;
      (** One joint transition. *)
  equal : 'state -> 'state -> bool;
  distance : 'state -> 'state -> int;
      (** The path-coupling metric Δ; couplings report it so experiments
          can trace contraction. *)
}

val make :
  step:(Prng.Rng.t -> 'state -> 'state -> 'state * 'state) ->
  equal:('state -> 'state -> bool) ->
  distance:('state -> 'state -> int) ->
  'state t

val of_identity :
  chain_step:(Prng.Rng.t -> 'state -> 'state) ->
  equal:('state -> 'state -> bool) ->
  distance:('state -> 'state -> int) ->
  'state t
(** The {e identity coupling}: copy the generator state and feed both
    copies the very same random stream.  This is a valid coupling for any
    chain, and for chains driven by right-oriented functions (Lemma 3.4
    with [Φ = identity]) it coincides with the paper's coupling. *)

val sim :
  ?metrics:Engine.Metrics.t ->
  ?copy:('state -> 'state) ->
  'state t ->
  x:'state ->
  y:'state ->
  ('state * 'state) Engine.Sim.t
(** The coupling as an engine stepper over the pair.  The probe is the
    coalescence indicator: [0] exactly when the copies have met
    ([equal]), [1] otherwise, so
    [Engine.Sim.first_hit ~pred:(fun d -> d = 0)] is the coalescence
    time.  It never evaluates [distance], which is O(n) on load vectors;
    {!Coalescence.trace_distance} reads the metric instead.  [copy]
    (default identity) deep-copies a state; supply it when states are
    mutable buffers so [observe]/[reset] detach from the live pair.
    Watermarking is disabled: the probe is not a load level. *)
