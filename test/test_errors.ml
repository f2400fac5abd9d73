(* Failure injection: a systematic sweep of the documented error paths.
   Every public function that promises Invalid_argument gets at least one
   negative test here (constructive error paths are also covered in the
   per-module suites; this file is the completeness net). *)

let inv msg f = Alcotest.check_raises msg (Invalid_argument msg) f

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector
module Sr = Core.Scheduling_rule

let g () = Prng.Rng.create ()

let test_prng_errors () =
  inv "Rng.int: bound must be positive" (fun () -> ignore (Prng.Rng.int (g ()) (-3)));
  inv "Rng.int_in: empty range" (fun () -> ignore (Prng.Rng.int_in (g ()) 3 2));
  inv "Rng.bernoulli: p not in [0,1]" (fun () ->
      ignore (Prng.Rng.bernoulli (g ()) (-0.1)));
  inv "Rng.geometric: p not in (0,1]" (fun () ->
      ignore (Prng.Rng.geometric (g ()) 1.5));
  inv "Rng.pair_distinct: need n >= 2" (fun () ->
      ignore (Prng.Rng.pair_distinct (g ()) 0));
  inv "Dist: empty weight vector" (fun () ->
      ignore (Prng.Dist.weighted (g ()) [||]));
  inv "Dist: negative weight" (fun () ->
      ignore (Prng.Dist.weighted (g ()) [| 1.; -1. |]));
  inv "Dist: zero total weight" (fun () ->
      ignore (Prng.Dist.weighted (g ()) [| 0. |]))

let test_stats_errors () =
  inv "Quantile.quantile: empty sample" (fun () ->
      ignore (Stats.Quantile.quantile [||] 0.5));
  inv "Freq.observe: bad cell" (fun () ->
      Stats.Freq.observe (Stats.Freq.create ~size:1) (-1));
  inv "Regression.ols: need at least two points" (fun () ->
      ignore (Stats.Regression.ols [||]));
  inv "Regression.log_corrected_power_law: need x > 1" (fun () ->
      ignore
        (Stats.Regression.log_corrected_power_law ~log_exponent:1.
           [| (0.5, 1.); (2., 2.) |]));
  inv "Bootstrap.ci: level must be in (0,1)" (fun () ->
      ignore
        (Stats.Bootstrap.ci ~level:1.5 ~rng:(g ()) ~stat:Stats.Quantile.median
           [| 1. |]));
  inv "Table.add_row: arity mismatch" (fun () ->
      Stats.Table.add_row (Stats.Table.create ~title:"t" ~columns:[ "a" ]) [])

let test_loadvec_errors () =
  inv "Load_vector.of_array: empty" (fun () -> ignore (Lv.of_array [||]));
  inv "Load_vector.of_loads: negative load" (fun () ->
      ignore (Lv.of_loads ~n:2 [ -1 ]));
  inv "Load_vector.uniform" (fun () -> ignore (Lv.uniform ~n:0 ~m:1));
  inv "Load_vector.all_in_one" (fun () -> ignore (Lv.all_in_one ~n:1 ~m:(-1)));
  inv "Load_vector.get" (fun () -> ignore (Lv.get (Lv.of_array [| 1 |]) 5));
  inv "Load_vector.l1_distance: dimension mismatch" (fun () ->
      ignore (Lv.l1_distance (Lv.of_array [| 1 |]) (Lv.of_array [| 1; 0 |])));
  inv "Mutable_vector.get" (fun () ->
      ignore (Mv.get (Mv.of_load_vector (Lv.of_array [| 1 |])) (-1)))

let test_markov_errors () =
  inv "Partition_space.enumerate" (fun () ->
      ignore (Markov.Partition_space.enumerate ~n:0 ~m:1));
  inv "Partition_space.count" (fun () ->
      ignore (Markov.Partition_space.count ~n:1 ~m:(-1)));
  inv "Exact_builder.build: empty state space" (fun () ->
      ignore
        (Markov.Exact_builder.build
           (Markov.Exact_builder.enumerated [||])
           ~transitions:(fun _ -> [])));
  (* Regression: duplicate states used to be silently accepted
     (Hashtbl.replace overwrote the first index, leaving an orphan row
     and a corrupt lookup). *)
  inv "Exact_builder.build: duplicate state" (fun () ->
      ignore
        (Markov.Exact_builder.build
           (Markov.Exact_builder.enumerated [| "a"; "b"; "a" |])
           ~transitions:(fun _ -> [ ("a", 0.5); ("b", 0.5) ])));
  inv "Exact.tv_distance: length mismatch" (fun () ->
      ignore (Markov.Exact.tv_distance [| 1. |] [| 0.5; 0.5 |]));
  inv "Empirical.observable_tv: negative t" (fun () ->
      ignore
        (Markov.Empirical.observable_tv
           ~step:(fun _ s -> s)
           ~rng:(g ())
           ~x0:(fun () -> 0)
           ~y0:(fun () -> 0)
           ~t:(-1) ~reps:1 ~observable:(fun s -> s)));
  inv "Empirical.observable_tv: reps must be positive" (fun () ->
      ignore
        (Markov.Empirical.observable_tv
           ~step:(fun _ s -> s)
           ~rng:(g ())
           ~x0:(fun () -> 0)
           ~y0:(fun () -> 0)
           ~t:1 ~reps:0 ~observable:(fun s -> s)))

let test_coupling_errors () =
  inv "Coalescence.time: negative limit" (fun () ->
      let c =
        Coupling.Coupled_chain.make
          ~step:(fun _ x y -> (x, y))
          ~equal:( = )
          ~distance:(fun (_ : int) _ -> 0)
      in
      ignore (Coupling.Coalescence.time c (g ()) 0 1 ~limit:(-1)));
  inv "Coalescence.measure: reps must be positive" (fun () ->
      let c =
        Coupling.Coupled_chain.make
          ~step:(fun _ x y -> (x, y))
          ~equal:( = )
          ~distance:(fun (_ : int) _ -> 0)
      in
      ignore
        (Coupling.Coalescence.measure ~reps:0 ~limit:1 ~rng:(g ()) c
           ~init:(fun _ -> (0, 0))));
  inv "Delayed.block_coupling: block must be >= 1" (fun () ->
      let c =
        Coupling.Coupled_chain.make
          ~step:(fun _ x y -> (x, y))
          ~equal:( = )
          ~distance:(fun (_ : int) _ -> 0)
      in
      ignore (Coupling.Delayed.block_coupling ~block:0 c))

let test_core_errors () =
  inv "Probe.create: n must be positive" (fun () ->
      ignore (Core.Probe.create (g ()) ~n:(-1)));
  inv "Scheduling_rule.abku: d must be >= 1" (fun () -> ignore (Sr.abku 0));
  inv "Dynamic_process.make: n must be positive" (fun () ->
      ignore (Core.Dynamic_process.make Core.Scenario.A (Sr.abku 1) ~n:0));
  inv "Scenario.remove_rank: no balls" (fun () ->
      ignore
        (Core.Scenario.remove_rank Core.Scenario.A
           (Mv.of_load_vector (Lv.of_array [| 0; 0 |]))
           ~u:0.5));
  inv "Scenario.remove_pair: no balls" (fun () ->
      Core.Scenario.remove_pair Core.Scenario.B
        (Mv.of_load_vector (Lv.of_array [| 1; 0 |]))
        (Mv.of_load_vector (Lv.of_array [| 0; 0 |]))
        ~u:0.5);
  inv "Scenario.remove_pair: dimension mismatch" (fun () ->
      Core.Scenario.remove_pair Core.Scenario.A
        (Mv.of_load_vector (Lv.of_array [| 1; 0 |]))
        (Mv.of_load_vector (Lv.of_array [| 1; 0; 0 |]))
        ~u:0.5);
  inv "Scenario.removal_distribution: no balls" (fun () ->
      ignore (Core.Scenario.removal_distribution Core.Scenario.B ~loads:[| 0 |]));
  inv "Bins.create: n must be positive" (fun () ->
      ignore (Core.Bins.create ~n:0));
  inv "Bins.load: bad bin" (fun () ->
      ignore (Core.Bins.load (Core.Bins.create ~n:2) 2));
  inv "Bins.add_ball: bad bin" (fun () ->
      Core.Bins.add_ball (Core.Bins.create ~n:2) (-1));
  inv "Bins.move_ball: bad bin" (fun () ->
      Core.Bins.move_ball (Core.Bins.create ~n:2) ~src:0 ~dst:9);
  inv "System.create: no balls" (fun () ->
      ignore
        (Core.System.create Core.Scenario.A (Sr.abku 1) (Core.Bins.create ~n:2)));
  inv "System.run: negative steps" (fun () ->
      let sys =
        Core.System.create Core.Scenario.A (Sr.abku 1)
          (Core.Bins.of_loads [| 1 |])
      in
      Core.System.run (g ()) sys ~steps:(-1));
  inv "Static_process.run" (fun () ->
      ignore (Core.Static_process.run (Sr.abku 1) (g ()) ~n:0 ~m:1));
  inv "Recovery.measure: reps must be positive" (fun () ->
      ignore
        (Core.Recovery.measure ~rng:(g ()) ~reps:0
           {
             Core.Recovery.scenario = Core.Scenario.A;
             rule = Sr.abku 1;
             n = 2;
             m = 2;
           }
           ~target:1 ~limit:10));
  inv "Relocation.make: negative relocations" (fun () ->
      ignore
        (Core.Relocation.make Core.Scenario.A (Sr.abku 1) ~relocations:(-1) ~n:2));
  inv "Open_process.make: n must be positive" (fun () ->
      ignore (Core.Open_process.make (Sr.abku 1) ~n:0));
  inv "Weighted.create: n must be positive" (fun () ->
      ignore (Core.Weighted.create ~n:0));
  inv "Weighted.insert: d must be >= 1" (fun () ->
      ignore (Core.Weighted.insert (Core.Weighted.create ~n:2) (g ()) ~d:0 ~weight:1.));
  inv "Weighted.insert: non-positive weight" (fun () ->
      ignore (Core.Weighted.insert (Core.Weighted.create ~n:2) (g ()) ~d:1 ~weight:0.));
  inv "Parallel_alloc.run: negative rounds" (fun () ->
      ignore (Core.Parallel_alloc.run (g ()) ~n:2 ~m:2 ~d:1 ~rounds:(-1) ()));
  inv "Go_left.make: need n >= d" (fun () ->
      ignore (Core.Go_left.make ~d:4 ~n:2));
  inv "Go_left.insert: size mismatch" (fun () ->
      let rule = Core.Go_left.make ~d:2 ~n:4 in
      ignore (Core.Go_left.insert rule (g ()) (Core.Bins.create ~n:8)))

(* A threshold sequence that never releases the insertion must raise the
   dedicated exception (not loop) at every insertion site, carrying the
   system size and the cap. *)
let test_probe_cap () =
  let slow = Sr.adap (Core.Adaptive.of_list [ Sr.probe_cap + 1 ]) in
  let expect name f =
    match f () with
    | exception Sr.Probe_cap_exceeded { n; x; cap } ->
        Alcotest.(check int) (name ^ ": n") 2 n;
        Alcotest.(check int) (name ^ ": cap") Sr.probe_cap cap;
        Alcotest.(check string) (name ^ ": rule") (Sr.name slow) x
    | _ -> Alcotest.failf "%s: expected Probe_cap_exceeded" name
  in
  expect "choose_rank" (fun () ->
      ignore
        (Sr.choose_rank slow ~loads:[| 1; 1 |]
           ~probe:(Core.Probe.create (g ()) ~n:2)));
  expect "Bins.insert_with_rule" (fun () ->
      ignore (Core.Bins.insert_with_rule slow (g ()) (Core.Bins.of_loads [| 1; 1 |])));
  expect "Dynamic_process.step_in_place" (fun () ->
      let p = Core.Dynamic_process.make Core.Scenario.A slow ~n:2 in
      Core.Dynamic_process.step_in_place p (g ())
        (Mv.of_load_vector (Lv.of_array [| 1; 1 |])))

let test_edgeorient_errors () =
  inv "Orientation.create: need n >= 2" (fun () ->
      ignore (Edgeorient.Orientation.create ~n:0));
  inv "Orientation.orient: bad endpoints" (fun () ->
      Edgeorient.Orientation.orient (Edgeorient.Orientation.create ~n:3) ~src:0
        ~dst:0);
  inv "Orientation.run: negative steps" (fun () ->
      Edgeorient.Orientation.run (g ())
        (Edgeorient.Orientation.create ~n:3)
        ~steps:(-1));
  inv "Class_chain.of_discrepancies: values must sum to 0" (fun () ->
      ignore (Edgeorient.Class_chain.of_discrepancies [| 1; 0 |]));
  inv "Class_chain.emd: size mismatch" (fun () ->
      ignore
        (Edgeorient.Class_chain.emd
           (Edgeorient.Class_chain.start ~n:3)
           (Edgeorient.Class_chain.start ~n:4)));
  inv "Orientation.of_discrepancies: need n >= 2" (fun () ->
      ignore (Edgeorient.Carpool.of_balances [| 0 |]))

let test_fluid_theory_errors () =
  inv "Ode.integrate: steps must be positive" (fun () ->
      ignore (Fluid.Ode.integrate ~f:(fun y -> y) ~y0:[| 1. |] ~t:1. ~steps:0));
  inv "Mean_field.static" (fun () ->
      ignore (Fluid.Mean_field.static ~d:2 ~c:(-1.) ~levels:5));
  inv "Mean_field.uniform_profile" (fun () ->
      ignore (Fluid.Mean_field.uniform_profile ~m_over_n:1. ~levels:0));
  inv "Mean_field.predicted_max_load" (fun () ->
      ignore (Fluid.Mean_field.predicted_max_load ~n:0 [| 1. |]));
  inv "Bounds.claim53" (fun () -> ignore (Theory.Bounds.claim53 ~n:0 ~m:1 ~eps:0.5));
  inv "Bounds.theorem2: n < 2" (fun () -> ignore (Theory.Bounds.theorem2 ~n:1));
  inv "Bounds.corollary64: n < 2" (fun () ->
      ignore (Theory.Bounds.corollary64 ~n:1 ~eps:0.5));
  inv "Bounds.azar_static_max_load" (fun () ->
      ignore (Theory.Bounds.azar_static_max_load ~n:1 ~m:1 ~d:1))

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("prng error paths", test_prng_errors);
      ("stats error paths", test_stats_errors);
      ("loadvec error paths", test_loadvec_errors);
      ("markov error paths", test_markov_errors);
      ("coupling error paths", test_coupling_errors);
      ("core error paths", test_core_errors);
      ("probe cap exception", test_probe_cap);
      ("edgeorient error paths", test_edgeorient_errors);
      ("fluid/theory error paths", test_fluid_theory_errors);
    ]
