(** Recovery-time measurement.

    The paper's motivating question (Section 1): starting from an
    arbitrarily bad state, how many steps until the system again looks
    typical?  We operationalise "typical" as the maximum load dropping to
    a target value (e.g. the fluid-limit prediction plus a constant) and
    measure the first hitting time, repeated over seeds. *)

type spec = {
  scenario : Scenario.t;
  rule : Scheduling_rule.t;
  n : int;
  m : int;
}

val time_to_max_load :
  rng:Prng.Rng.t -> spec -> target:int -> limit:int -> int option
(** Steps from the adversarial state until [max_load <= target]. *)

val measure_with_metrics :
  ?domains:int ->
  rng:Prng.Rng.t -> reps:int -> spec -> target:int -> limit:int ->
  Coupling.Coalescence.measurement * Engine.Metrics.snapshot
(** Like {!measure}, additionally returning the aggregated engine
    counters of the fan-out (stored per-cell in the JSON result sink by
    the experiment framework). *)

val measure :
  ?domains:int ->
  rng:Prng.Rng.t -> reps:int -> spec -> target:int -> limit:int ->
  Coupling.Coalescence.measurement
(** Repeated {!time_to_max_load} (failures = runs hitting [limit]).
    Implemented on {!Engine.Runner} over {!System.sim}: [domains]
    (default 1) fans repetitions over OCaml domains with bit-identical
    results (generators split before the fan-out), and with
    [BENCH_METRICS=1] the aggregated engine counters are printed.
    @raise Invalid_argument if [reps <= 0]. *)
