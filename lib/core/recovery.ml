type spec = {
  scenario : Scenario.t;
  rule : Scheduling_rule.t;
  n : int;
  m : int;
}

let adversarial_bins spec =
  let loads = Array.make spec.n 0 in
  loads.(0) <- spec.m;
  Bins.of_loads loads

(* The sim's probe is the O(1) max load, so first-hitting times come
   out of the generic engine driver with the historical draw order. *)
let adversarial_sim ?metrics spec =
  System.sim ?metrics
    (System.create spec.scenario spec.rule (adversarial_bins spec))

let time_to_max_load ~rng spec ~target ~limit =
  let s = adversarial_sim spec in
  Engine.Sim.first_hit s rng ~pred:(fun ml -> ml <= target) ~limit

let measure_with_metrics ?(domains = 1) ~rng ~reps spec ~target ~limit =
  if reps <= 0 then invalid_arg "Recovery.measure: reps must be positive";
  let m, metrics =
    Engine.Runner.measure ~domains ~rng ~reps ~limit
      (fun g metrics ~limit ->
        let s = adversarial_sim ~metrics spec in
        Engine.Sim.first_hit s g ~pred:(fun ml -> ml <= target) ~limit)
  in
  if Engine.Metrics.dump_enabled () then
    Engine.Metrics.dump ~label:"recovery" metrics;
  (m, metrics)

let measure ?domains ~rng ~reps spec ~target ~limit =
  fst (measure_with_metrics ?domains ~rng ~reps spec ~target ~limit)
