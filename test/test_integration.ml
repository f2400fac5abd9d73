(* Integration tests: miniature end-to-end versions of the benchmark
   experiments, crossing every library boundary (prng -> core -> coupling
   -> stats -> theory).  Each asserts the paper's *shape*, with wide
   statistical margins so the suite stays deterministic-robust. *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector
module Sr = Core.Scheduling_rule

let rng ?(seed = 42) () = Prng.Rng.create ~seed ()

let coalescence_median ~scenario ~n ~reps ~limit ~seed =
  let process = Core.Dynamic_process.make scenario (Sr.abku 2) ~n in
  let coupled = Core.Coupled.monotone process in
  let rngm = rng ~seed () in
  let meas =
    Coupling.Coalescence.measure ~reps ~limit ~rng:rngm coupled
      ~init:(fun _g ->
        ( Mv.of_load_vector (Lv.all_in_one ~n ~m:n),
          Mv.of_load_vector (Lv.uniform ~n ~m:n) ))
  in
  Alcotest.(check int) "no failures" 0 meas.failures;
  meas.median

(* E1 mini: scenario-A coalescence respects Theorem 1 and grows
   superlinearly-but-subquadratically. *)
let test_mini_e1 () =
  let t32 = coalescence_median ~scenario:Core.Scenario.A ~n:32 ~reps:15
      ~limit:100_000 ~seed:1
  and t128 = coalescence_median ~scenario:Core.Scenario.A ~n:128 ~reps:15
      ~limit:400_000 ~seed:2
  in
  Alcotest.(check bool) "below Thm 1 at 32" true
    (t32 <= Theory.Bounds.theorem1 ~m:32 ~eps:0.25);
  Alcotest.(check bool) "below Thm 1 at 128" true
    (t128 <= Theory.Bounds.theorem1 ~m:128 ~eps:0.25);
  let ratio = t128 /. t32 in
  Alcotest.(check bool)
    (Printf.sprintf "growth ratio %.2f in (4, 16)" ratio)
    true
    (ratio > 4. && ratio < 16.)

(* E3 mini: scenario-B coalescence grows like m^2-ish: much faster than
   linear between 16 and 64. *)
let test_mini_e3 () =
  let t16 = coalescence_median ~scenario:Core.Scenario.B ~n:16 ~reps:15
      ~limit:200_000 ~seed:3
  and t64 = coalescence_median ~scenario:Core.Scenario.B ~n:64 ~reps:15
      ~limit:2_000_000 ~seed:4
  in
  let ratio = t64 /. t16 in
  (* 4x size: quadratic predicts 16x; accept (8, 40). *)
  Alcotest.(check bool)
    (Printf.sprintf "growth ratio %.1f in (8, 40)" ratio)
    true
    (ratio > 8. && ratio < 40.)

(* E2/E4 mini: scenario-B recovery is much slower than scenario-A at the
   same size. *)
let test_mini_recovery_contrast () =
  let measure scenario seed =
    let spec = { Core.Recovery.scenario; rule = Sr.abku 2; n = 64; m = 64 } in
    let rngm = rng ~seed () in
    let m = Core.Recovery.measure ~rng:rngm ~reps:9 spec ~target:4
        ~limit:10_000_000
    in
    m.median
  in
  let ta = measure Core.Scenario.A 5 and tb = measure Core.Scenario.B 6 in
  Alcotest.(check bool)
    (Printf.sprintf "B (%.0f) at least 3x slower than A (%.0f)" tb ta)
    true
    (tb > 3. *. ta)

(* E5 mini: the two-choice collapse. *)
let test_mini_e5 () =
  let g = rng ~seed:7 () in
  let med d =
    Stats.Quantile.median
      (Stats.Quantile.of_ints
         (Core.Static_process.max_load_samples (Sr.abku d) g ~n:8192 ~m:8192
            ~reps:5))
  in
  Alcotest.(check bool) "d=2 at least 2 below d=1" true (med 2 +. 2. <= med 1)

(* E6 mini: fluid fixed point matches a short simulation to a couple of
   percent. *)
let test_mini_e6 () =
  let n = 1024 in
  let g = rng ~seed:8 () in
  let bins =
    Core.Bins.of_loads (Lv.to_array (Lv.uniform ~n ~m:n))
  in
  let sys = Core.System.create Core.Scenario.A (Sr.abku 2) bins in
  Core.System.run g sys ~steps:(50 * n);
  let fluid = Fluid.Mean_field.fixed_point_a ~d:2 ~m_over_n:1. ~levels:20 in
  let acc = Stats.Summary.create () in
  for _ = 1 to 50 do
    Core.System.run g sys ~steps:n;
    let loads = Core.Bins.loads (Core.System.bins sys) in
    let s2 =
      Array.fold_left (fun a l -> if l >= 2 then a + 1 else a) 0 loads
    in
    Stats.Summary.add acc (float_of_int s2 /. float_of_int n)
  done;
  let sim = Stats.Summary.mean acc in
  Alcotest.(check bool)
    (Printf.sprintf "s_2: sim %.4f vs fluid %.4f" sim fluid.(1))
    true
    (Float.abs (sim -. fluid.(1)) < 0.02)

(* E7 mini: exact tau matches coalescence and respects the bound; the
   build→mix pipeline goes through Exact_builder like the bench does. *)
let test_mini_e7 () =
  let n = 6 in
  let process = Core.Dynamic_process.make Core.Scenario.A (Sr.abku 2) ~n in
  let a =
    Markov.Exact_builder.build_mix ~eps:0.25
      (Markov.Exact_builder.enumerated
         (Markov.Partition_space.enumerate ~n ~m:n))
      ~transitions:(Core.Dynamic_process.exact_transitions process)
  in
  Alcotest.(check int)
    "state count is p(m) restricted to <= n parts"
    (Markov.Partition_space.count ~n ~m:n)
    a.Markov.Exact_builder.state_count;
  let tau = a.Markov.Exact_builder.tau in
  let median = coalescence_median ~scenario:Core.Scenario.A ~n ~reps:101
      ~limit:10_000 ~seed:9
  in
  Alcotest.(check bool)
    (Printf.sprintf "median %.0f within 3 of exact %d" median tau)
    true
    (Float.abs (median -. float_of_int tau) <= 3.);
  Alcotest.(check bool) "tau below bound" true
    (float_of_int tau <= Theory.Bounds.theorem1 ~m:n ~eps:0.25)

(* E8 mini: edge coupling coalesces below Theorem 2's scale and the exact
   chain agrees with the bound ordering. *)
let test_mini_e8 () =
  let n = 16 in
  let coupled = Edgeorient.Class_chain.coupled () in
  let rngm = rng ~seed:10 () in
  let meas =
    Coupling.Coalescence.measure ~reps:11
      ~limit:(100 * int_of_float (Theory.Bounds.theorem2 ~n))
      ~rng:rngm coupled
      ~init:(fun _g ->
        (Edgeorient.Class_chain.adversarial ~n, Edgeorient.Class_chain.start ~n))
  in
  Alcotest.(check int) "no failures" 0 meas.failures;
  Alcotest.(check bool) "below Thm 2" true
    (meas.median <= Theory.Bounds.theorem2 ~n)

(* E9 mini: stationary unfairness is tiny compared to the adversarial
   start. *)
let test_mini_e9 () =
  let n = 128 in
  let g = rng ~seed:11 () in
  let t = Edgeorient.Orientation.adversarial ~n in
  let initial = Edgeorient.Orientation.unfairness t in
  Edgeorient.Orientation.run g t ~steps:(20 * n * n);
  let final = Edgeorient.Orientation.unfairness t in
  Alcotest.(check bool)
    (Printf.sprintf "unfairness %d -> %d" initial final)
    true
    (initial >= n / 2 && final <= 6)

(* E10 mini: ADAP saves probes at comparable balance. *)
let test_mini_e10 () =
  let n = 1024 in
  let g = rng ~seed:12 () in
  let run_rule rule =
    let sys =
      Core.System.create Core.Scenario.A rule
        (Core.Bins.of_loads (Lv.to_array (Lv.uniform ~n ~m:n)))
    in
    let probes = Stats.Summary.create () in
    for _ = 1 to 20 * n do
      Stats.Summary.add_int probes (Core.System.step_probes g sys)
    done;
    (Stats.Summary.mean probes, Core.System.max_load sys)
  in
  let probes_adap, max_adap =
    run_rule (Sr.adap (Core.Adaptive.of_list [ 1; 2; 4 ]))
  in
  let probes_abku, max_abku = run_rule (Sr.abku 2) in
  Alcotest.(check bool)
    (Printf.sprintf "probes %.2f < %.2f" probes_adap probes_abku)
    true
    (probes_adap < probes_abku);
  Alcotest.(check bool)
    (Printf.sprintf "balance %d <= %d + 1" max_adap max_abku)
    true
    (max_adap <= max_abku + 1)

(* E13 mini: the TV curve is ~1 early and ~0 late. *)
let test_mini_e13 () =
  let n = 32 in
  let process = Core.Dynamic_process.make Core.Scenario.A (Sr.abku 2) ~n in
  let step g v =
    Core.Dynamic_process.step_in_place process g v;
    v
  in
  let rngm = rng ~seed:13 () in
  let tv t =
    Markov.Empirical.observable_tv ~step ~rng:rngm
      ~x0:(fun () -> Mv.of_load_vector (Lv.all_in_one ~n ~m:n))
      ~y0:(fun () -> Mv.of_load_vector (Lv.uniform ~n ~m:n))
      ~t ~reps:300 ~observable:Mv.max_load
  in
  Alcotest.(check bool) "profile decays through the Thm 1 scale" true
    (tv 4 > 0.9 && tv (6 * n) < 0.25)

(* Relocation mini: k = 2 clearly beats k = 0. *)
let test_mini_e12 () =
  let n = 128 in
  let recovery k seed =
    let reloc = Core.Relocation.make Core.Scenario.A (Sr.abku 2) ~relocations:k ~n in
    let g = rng ~seed () in
    let loads = Array.make n 0 in
    loads.(0) <- n;
    let bins = Core.Bins.of_loads loads in
    let steps = ref 0 in
    while Core.Bins.max_load bins > 4 && !steps < 1_000_000 do
      Core.Relocation.step reloc g bins;
      incr steps
    done;
    !steps
  in
  Alcotest.(check bool) "relocation speedup" true
    (recovery 2 14 * 2 < recovery 0 15)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("mini E1: Thm 1 shape", test_mini_e1);
      ("mini E3: scenario-B quadratic", test_mini_e3);
      ("mini E2/E4: A vs B contrast", test_mini_recovery_contrast);
      ("mini E5: two-choice collapse", test_mini_e5);
      ("mini E6: fluid match", test_mini_e6);
      ("mini E7: exact vs coalescence", test_mini_e7);
      ("mini E8: edge below Thm 2", test_mini_e8);
      ("mini E9: unfairness recovery", test_mini_e9);
      ("mini E10: ADAP saves probes", test_mini_e10);
      ("mini E13: TV decay", test_mini_e13);
      ("mini E12: relocation speedup", test_mini_e12);
    ]
