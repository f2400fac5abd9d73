(* The simulation engine: Sim drivers, Metrics accounting, and the
   Runner's determinism guarantee (domain count must not change any
   observation or counter). *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector
module Sr = Core.Scheduling_rule

let rng ?(seed = 0xE46) () = Prng.Rng.create ~seed ()

(* A deterministic counter sim: the state is an int, the probe is its
   value.  Exercises the drivers without any randomness. *)
let counter_sim () =
  let x = ref 0 in
  Engine.Sim.make
    ~step:(fun _ -> incr x)
    ~observe:(fun () -> !x)
    ~reset:(fun v -> x := v)
    ~probe:(fun () -> !x)
    ()

let test_sim_drivers () =
  let s = counter_sim () in
  let g = rng () in
  Alcotest.(check (option int))
    "first_hit checks t=0" (Some 0)
    (Engine.Sim.first_hit s g ~pred:(fun v -> v = 0) ~limit:5);
  Alcotest.(check (option int))
    "first_hit steps to the target" (Some 7)
    (Engine.Sim.first_hit s g ~pred:(fun v -> v >= 7) ~limit:10);
  Alcotest.(check (option int))
    "first_hit None past the limit" None
    (Engine.Sim.first_hit s g ~pred:(fun v -> v > 1000) ~limit:3);
  Engine.Sim.reset s 5;
  Alcotest.(check int) "reset roundtrip" 5 (Engine.Sim.observe s);
  Alcotest.(check (list int))
    "sample_every: burn-in then every-th state" [ 10; 13; 16 ]
    (Engine.Sim.sample_every s g ~burn_in:2 ~every:3 ~samples:3 (fun () ->
         Engine.Sim.observe s));
  let snap = Engine.Metrics.snapshot (Engine.Sim.metrics s) in
  Alcotest.(check int) "metrics count every driver step" 21 snap.steps;
  Alcotest.(check int) "watermark tracks the probe" 16 snap.watermark;
  Alcotest.check_raises "negative iterate"
    (Invalid_argument "Sim.iterate: negative step count") (fun () ->
      Engine.Sim.iterate s g (-1))

let test_metrics_accounting () =
  let m = Engine.Metrics.create () in
  Engine.Metrics.add_step m;
  Engine.Metrics.add_probes m 3;
  Engine.Metrics.add_draws m 4;
  Engine.Metrics.watermark m 7;
  Engine.Metrics.watermark m 2;
  Engine.Metrics.add_phase m "run" 0.25;
  let s = Engine.Metrics.snapshot m in
  Alcotest.(check int) "steps" 1 s.steps;
  Alcotest.(check int) "probes" 3 s.probes;
  Alcotest.(check int) "draws" 4 s.rng_draws;
  Alcotest.(check int) "watermark keeps the max" 7 s.watermark;
  let merged = Engine.Metrics.merge s s in
  Alcotest.(check int) "merge sums steps" 2 merged.steps;
  Alcotest.(check int) "merge sums probes" 6 merged.probes;
  Alcotest.(check int) "merge maxes watermark" 7 merged.watermark;
  Alcotest.(check (list (pair string (float 1e-9))))
    "merge sums phases"
    [ ("run", 0.5) ]
    merged.phases;
  Alcotest.(check int) "merge with zero is identity" s.steps
    (Engine.Metrics.merge Engine.Metrics.zero s).steps;
  (* to_table renders without raising and carries the derived rows. *)
  let table = Engine.Metrics.to_table ~title:"t" merged in
  Alcotest.(check bool)
    "to_table derives probes/step" true
    (let csv = Stats.Table.to_csv table in
     String.length csv > 0);
  Alcotest.check_raises "negative probes"
    (Invalid_argument "Metrics.add_probes: negative count") (fun () ->
      Engine.Metrics.add_probes m (-1))

(* The adapter's probe counter must equal the sum the raw stepper
   reports when fed the identical stream. *)
let test_adapter_probe_counter () =
  let n = 8 in
  let process =
    Core.Dynamic_process.make Core.Scenario.A
      (Sr.adap (Core.Adaptive.of_list [ 1; 2; 2; 3 ]))
      ~n
  in
  let steps = 500 in
  let v = Mv.of_load_vector (Lv.uniform ~n ~m:n) in
  let s = Core.Dynamic_process.sim process v in
  Engine.Sim.iterate s (rng ()) steps;
  let snap = Engine.Metrics.snapshot (Engine.Sim.metrics s) in
  let v' = Mv.of_load_vector (Lv.uniform ~n ~m:n) in
  let g = rng () in
  let manual = ref 0 in
  for _ = 1 to steps do
    manual :=
      !manual
      + Core.Dynamic_process.step (module Core.Load_state.Array) process g v'
  done;
  Alcotest.(check int) "steps counted" steps snap.steps;
  Alcotest.(check int) "probes = sum of step's probes" !manual snap.probes;
  Alcotest.(check int) "draws = steps + probes" (steps + !manual)
    snap.rng_draws

(* A process's chain is only the one-step view; drive it locally. *)
let chain_iterate step g s t =
  let state = ref s in
  for _ = 1 to t do
    state := step g !state
  done;
  !state

(* Same seed, same stream: the in-place sim must land on the exact state
   the immutable Dynamic_process.chain stepper produces. *)
let test_sim_matches_chain_bitwise () =
  let n = 6 in
  List.iter
    (fun scenario ->
      let process = Core.Dynamic_process.make scenario (Sr.abku 2) ~n in
      let start = Lv.all_in_one ~n ~m:6 in
      let chain_final =
        chain_iterate (Core.Dynamic_process.chain process) (rng ()) start 300
      in
      let v = Mv.of_load_vector start in
      let s = Core.Dynamic_process.sim process v in
      Engine.Sim.iterate s (rng ()) 300;
      Alcotest.(check (array int))
        (Printf.sprintf "scenario %s bit-identical"
           (Core.Scenario.name scenario))
        (Lv.to_array chain_final)
        (Lv.to_array (Engine.Sim.observe s)))
    [ Core.Scenario.A; Core.Scenario.B ]

(* Engine and chain runs on disjoint seed streams must still agree in
   law: the empirical TV distance of the max-load observable after t
   steps is sampling noise only. *)
let test_sim_matches_chain_in_law () =
  let n = 4 and m = 4 in
  let process = Core.Dynamic_process.make Core.Scenario.A (Sr.abku 2) ~n in
  let t = 60 and reps = 600 in
  let sim_samples =
    Array.init reps (fun i ->
        let g = Prng.Rng.create ~seed:(1_000 + i) () in
        let v = Mv.of_load_vector (Lv.all_in_one ~n ~m) in
        let s = Core.Dynamic_process.sim process v in
        Engine.Sim.iterate s g t;
        Engine.Sim.probe s)
  in
  let chain = Core.Dynamic_process.chain process in
  let chain_samples =
    Array.init reps (fun i ->
        let g = Prng.Rng.create ~seed:(90_000 + i) () in
        Lv.max_load (chain_iterate chain g (Lv.all_in_one ~n ~m) t))
  in
  let tv = Markov.Empirical.tv_between_samples sim_samples chain_samples in
  Alcotest.(check bool)
    (Printf.sprintf "empirical TV %.3f below noise threshold" tv)
    true (tv < 0.08)

(* The runner's core guarantee: the domain count changes nothing but
   wall-clock — observations and every integer counter are identical. *)
let test_runner_domain_determinism () =
  let reps = 12 and steps = 200 and n = 16 in
  let run domains =
    Engine.Runner.run ~domains ~rng:(rng ()) ~reps (fun g metrics ->
        let process =
          Core.Dynamic_process.make Core.Scenario.A (Sr.abku 2) ~n
        in
        let v = Mv.of_load_vector (Lv.all_in_one ~n ~m:n) in
        let s = Core.Dynamic_process.sim ~metrics process v in
        Engine.Sim.iterate s g steps;
        Lv.to_array (Engine.Sim.observe s))
  in
  let seq = run 1 and par = run 4 in
  Alcotest.(check (array (array int)))
    "identical observations" seq.observations par.observations;
  let ss = seq.Engine.Runner.metrics and ps = par.Engine.Runner.metrics in
  Alcotest.(check int) "identical step counters" ss.steps ps.steps;
  Alcotest.(check int) "identical probe counters" ss.probes ps.probes;
  Alcotest.(check int) "identical draw counters" ss.rng_draws ps.rng_draws;
  Alcotest.(check int) "identical watermarks" ss.watermark ps.watermark;
  (* Aggregate = sum over reps: every rep contributes its full loop. *)
  Alcotest.(check int) "aggregate steps = reps * steps" (reps * steps)
    ss.steps;
  Alcotest.(check int) "aggregate probes = 2 per step" (2 * reps * steps)
    ss.probes

let test_runner_summarize () =
  let m = Engine.Runner.summarize [| Some 3; None; Some 1 |] in
  Alcotest.(check (array int)) "times in rep order" [| 3; 1 |] m.times;
  Alcotest.(check int) "failures" 1 m.failures;
  Alcotest.(check (float 1e-9)) "median" 2.0 m.median;
  Alcotest.(check (float 1e-9)) "mean" 2.0 m.mean;
  let all_failed = Engine.Runner.summarize [| None; None |] in
  Alcotest.(check int) "all failed" 2 all_failed.failures;
  Alcotest.(check bool) "median nan" true (Float.is_nan all_failed.median);
  Alcotest.check_raises "reps must be positive"
    (Invalid_argument "Runner.run: reps must be positive") (fun () ->
      ignore (Engine.Runner.run ~rng:(rng ()) ~reps:0 (fun _ _ -> ())))

(* Coupled_chain.sim must report coalescence exactly like the
   historical Coalescence.time loop. *)
let test_coupled_sim_first_hit () =
  let c =
    Coupling.Coupled_chain.make
      ~step:(fun _ x y -> (x + 1, y + 2))
      ~equal:( = )
      ~distance:(fun x y -> abs (x - y))
  in
  let check_pair x0 y0 =
    let expected = Coupling.Coalescence.time c (rng ()) x0 y0 ~limit:50 in
    let s = Coupling.Coupled_chain.sim c ~x:x0 ~y:y0 in
    let got =
      Engine.Sim.first_hit s (rng ()) ~pred:(fun d -> d = 0) ~limit:50
    in
    Alcotest.(check (option int))
      (Printf.sprintf "pair (%d, %d)" x0 y0)
      expected got
  in
  check_pair 0 0;
  check_pair 4 0;
  check_pair 0 1

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("sim drivers", test_sim_drivers);
      ("metrics accounting", test_metrics_accounting);
      ("adapter probe counter", test_adapter_probe_counter);
      ("sim = chain, bitwise", test_sim_matches_chain_bitwise);
      ("sim = chain, in law", test_sim_matches_chain_in_law);
      ("runner domain determinism", test_runner_domain_determinism);
      ("runner summarize", test_runner_summarize);
      ("coupled sim coalescence", test_coupled_sim_first_hit);
    ]
