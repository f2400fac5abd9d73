(* Tests for probes, adaptive thresholds, scheduling rules and removal
   scenarios. *)

module Sr = Core.Scheduling_rule
module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector

let rng ?(seed = 42) () = Prng.Rng.create ~seed ()

let test_probe_memoized () =
  let g = rng () in
  let p = Core.Probe.create g ~n:10 in
  let b3 = Core.Probe.get p 3 in
  Alcotest.(check int) "stable on re-read" b3 (Core.Probe.get p 3);
  Alcotest.(check int) "consumed" 4 (Core.Probe.consumed p);
  let b0 = Core.Probe.get p 0 in
  Alcotest.(check int) "prefix untouched" b0 (Core.Probe.get p 0)

let test_probe_prefix_max () =
  let g = rng () in
  let p = Core.Probe.create g ~n:100 in
  for i = 0 to 20 do
    let expected = ref 0 in
    for j = 0 to i do
      expected := Stdlib.max !expected (Core.Probe.get p j)
    done;
    Alcotest.(check int)
      (Printf.sprintf "prefix max %d" i)
      !expected
      (Core.Probe.prefix_max p i)
  done

let test_probe_range () =
  let g = rng () in
  let p = Core.Probe.create g ~n:7 in
  for i = 0 to 200 do
    let b = Core.Probe.get p i in
    if b < 0 || b >= 7 then Alcotest.failf "probe out of range: %d" b
  done

let test_probe_invalid () =
  let g = rng () in
  Alcotest.check_raises "n = 0" (Invalid_argument "Probe.create: n must be positive")
    (fun () -> ignore (Core.Probe.create g ~n:0));
  let p = Core.Probe.create g ~n:3 in
  Alcotest.check_raises "negative index"
    (Invalid_argument "Probe.get: negative index") (fun () ->
      ignore (Core.Probe.get p (-1)))

let test_adaptive_constant () =
  let x = Core.Adaptive.constant 3 in
  Alcotest.(check int) "load 0" 3 (Core.Adaptive.threshold x 0);
  Alcotest.(check int) "load 99" 3 (Core.Adaptive.threshold x 99);
  Alcotest.check_raises "d = 0"
    (Invalid_argument "Adaptive.constant: d must be >= 1") (fun () ->
      ignore (Core.Adaptive.constant 0))

let test_adaptive_of_list () =
  let x = Core.Adaptive.of_list [ 1; 2; 4 ] in
  Alcotest.(check int) "l=0" 1 (Core.Adaptive.threshold x 0);
  Alcotest.(check int) "l=2" 4 (Core.Adaptive.threshold x 2);
  Alcotest.(check int) "l=10 repeats last" 4 (Core.Adaptive.threshold x 10);
  Alcotest.check_raises "decreasing"
    (Invalid_argument "Adaptive.of_list: not non-decreasing") (fun () ->
      ignore (Core.Adaptive.of_list [ 2; 1 ]));
  Alcotest.check_raises "below 1"
    (Invalid_argument "Adaptive.of_list: threshold < 1") (fun () ->
      ignore (Core.Adaptive.of_list [ 0; 1 ]))

let test_adaptive_linear_doubling () =
  let x = Core.Adaptive.linear ~slope:2 ~base:1 () in
  Alcotest.(check int) "linear l=3" 7 (Core.Adaptive.threshold x 3);
  let d = Core.Adaptive.doubling () in
  Alcotest.(check int) "doubling l=4" 16 (Core.Adaptive.threshold d 4);
  Alcotest.check_raises "negative load"
    (Invalid_argument "Adaptive.threshold: negative load") (fun () ->
      ignore (Core.Adaptive.threshold x (-1)))

let test_abku_choose_is_prefix_max () =
  let g = rng () in
  let loads = [| 5; 4; 3; 2; 1 |] in
  for d = 1 to 4 do
    let p = Core.Probe.create g ~n:5 in
    let rank, probes = Sr.choose_rank (Sr.abku d) ~loads ~probe:p in
    Alcotest.(check int) "probes" d probes;
    Alcotest.(check int) "rank = prefix max" (Core.Probe.prefix_max p (d - 1)) rank
  done

let test_adap_const_equals_abku_choice () =
  (* ADAP with constant threshold d makes exactly the ABKU[d] choice when
     fed the same probe sequence. *)
  let loads = [| 9; 7; 7; 4; 2; 2; 0; 0 |] in
  for seed = 0 to 30 do
    let g1 = rng ~seed () and g2 = rng ~seed () in
    let p1 = Core.Probe.create g1 ~n:8 and p2 = Core.Probe.create g2 ~n:8 in
    let r1, _ = Sr.choose_rank (Sr.abku 3) ~loads ~probe:p1 in
    let r2, _ =
      Sr.choose_rank (Sr.adap (Core.Adaptive.constant 3)) ~loads ~probe:p2
    in
    Alcotest.(check int) "same choice" r1 r2
  done

let test_adap_stops_early_on_empty () =
  (* Threshold 1 at load 0: if the first probe hits an empty bin, stop. *)
  let x = Core.Adaptive.of_list [ 1; 5 ] in
  let loads = [| 3; 0; 0 |] in
  let g = rng () in
  let found_one_probe = ref false in
  for _ = 1 to 50 do
    let p = Core.Probe.create g ~n:3 in
    let rank, probes = Sr.choose_rank (Sr.adap x) ~loads ~probe:p in
    if Core.Probe.get p 0 >= 1 then begin
      Alcotest.(check int) "stops at once" 1 probes;
      Alcotest.(check int) "keeps first probe" (Core.Probe.get p 0) rank;
      found_one_probe := true
    end
  done;
  Alcotest.(check bool) "case exercised" true !found_one_probe

let dist_sums_to_one name dist =
  let s = Array.fold_left ( +. ) 0. dist in
  if Float.abs (s -. 1.) > 1e-9 then Alcotest.failf "%s: sums to %f" name s;
  Array.iter (fun p -> if p < -1e-12 then Alcotest.failf "%s: negative" name) dist

let test_abku_rank_distribution_closed_form () =
  let loads = [| 4; 3; 2; 1 |] in
  let dist = Sr.rank_distribution (Sr.abku 2) ~loads in
  dist_sums_to_one "abku2" dist;
  let n = 4. in
  Array.iteri
    (fun j p ->
      let expected =
        ((float_of_int (j + 1) /. n) ** 2.) -. ((float_of_int j /. n) ** 2.)
      in
      if Float.abs (p -. expected) > 1e-12 then
        Alcotest.failf "rank %d: %f vs %f" j p expected)
    dist

let test_adap_rank_distribution_matches_abku () =
  (* ADAP(const d) must produce exactly the ABKU[d] distribution. *)
  let loads = [| 6; 5; 5; 3; 1; 0 |] in
  for d = 1 to 4 do
    let a = Sr.rank_distribution (Sr.abku d) ~loads in
    let b =
      Sr.rank_distribution (Sr.adap (Core.Adaptive.constant d)) ~loads
    in
    Array.iteri
      (fun j pa ->
        if Float.abs (pa -. b.(j)) > 1e-9 then
          Alcotest.failf "d=%d rank %d: %f vs %f" d j pa b.(j))
      a
  done

let test_adap_rank_distribution_monte_carlo () =
  let x = Core.Adaptive.of_list [ 1; 2; 3 ] in
  let loads = [| 3; 2; 1; 0 |] in
  let exact = Sr.rank_distribution (Sr.adap x) ~loads in
  dist_sums_to_one "adap" exact;
  let g = rng () in
  let counts = Array.make 4 0 in
  let reps = 60_000 in
  for _ = 1 to reps do
    let p = Core.Probe.create g ~n:4 in
    let rank, _ = Sr.choose_rank (Sr.adap x) ~loads ~probe:p in
    counts.(rank) <- counts.(rank) + 1
  done;
  Array.iteri
    (fun j c ->
      let frac = float_of_int c /. float_of_int reps in
      if Float.abs (frac -. exact.(j)) > 0.015 then
        Alcotest.failf "rank %d: MC %f vs exact %f" j frac exact.(j))
    counts

let test_expected_probes () =
  let loads = [| 2; 1; 0 |] in
  Alcotest.(check (float 1e-9)) "abku const" 3.
    (Sr.expected_probes (Sr.abku 3) ~loads);
  let x = Core.Adaptive.of_list [ 1; 2 ] in
  let e = Sr.expected_probes (Sr.adap x) ~loads in
  Alcotest.(check bool) "at least one probe" true (e >= 1.);
  (* Threshold 1 everywhere means exactly one probe. *)
  Alcotest.(check (float 1e-9)) "always-stop" 1.
    (Sr.expected_probes (Sr.adap (Core.Adaptive.constant 1)) ~loads)

let test_scenario_removal_distribution () =
  let loads = [| 3; 1; 0 |] in
  let da = Core.Scenario.removal_distribution Core.Scenario.A ~loads in
  dist_sums_to_one "A" da;
  Alcotest.(check (float 1e-12)) "A rank0" 0.75 da.(0);
  Alcotest.(check (float 1e-12)) "A rank2" 0. da.(2);
  let db = Core.Scenario.removal_distribution Core.Scenario.B ~loads in
  dist_sums_to_one "B" db;
  Alcotest.(check (float 1e-12)) "B rank0" 0.5 db.(0);
  Alcotest.(check (float 1e-12)) "B rank1" 0.5 db.(1);
  Alcotest.(check (float 1e-12)) "B rank2" 0. db.(2)

let test_scenario_remove_rank_inverse_cdf () =
  let v = Mv.of_load_vector (Lv.of_array [| 3; 1; 0 |]) in
  (* Scenario A: CDF thresholds at 3/4. *)
  Alcotest.(check int) "A low" 0 (Core.Scenario.remove_rank Core.Scenario.A v ~u:0.0);
  Alcotest.(check int) "A mid" 0 (Core.Scenario.remove_rank Core.Scenario.A v ~u:0.74);
  Alcotest.(check int) "A high" 1 (Core.Scenario.remove_rank Core.Scenario.A v ~u:0.76);
  (* Scenario B: support 2, uniform. *)
  Alcotest.(check int) "B low" 0 (Core.Scenario.remove_rank Core.Scenario.B v ~u:0.49);
  Alcotest.(check int) "B high" 1 (Core.Scenario.remove_rank Core.Scenario.B v ~u:0.51)

let test_scenario_remove_rank_matches_distribution () =
  (* The inverse-CDF map applied to uniform u reproduces the removal law. *)
  let g = rng () in
  List.iter
    (fun sc ->
      let lv = Lv.of_array [| 4; 2; 2; 0 |] in
      let loads = Lv.to_array lv in
      let dist = Core.Scenario.removal_distribution sc ~loads in
      let counts = Array.make 4 0 in
      let reps = 40_000 in
      let v = Mv.of_load_vector lv in
      for _ = 1 to reps do
        let r = Core.Scenario.remove_rank sc v ~u:(Prng.Rng.float g) in
        counts.(r) <- counts.(r) + 1
      done;
      Array.iteri
        (fun i c ->
          let frac = float_of_int c /. float_of_int reps in
          if Float.abs (frac -. dist.(i)) > 0.015 then
            Alcotest.failf "scenario %s rank %d: %f vs %f"
              (Core.Scenario.name sc) i frac dist.(i))
        counts)
    [ Core.Scenario.A; Core.Scenario.B ]

(* A normalized vector of [m] balls over the first [k] of [n] bins, so
   its last [n - k] ranks are empty. *)
let vector_with_empty_tail g ~n ~k ~m =
  let a = Array.make n 0 in
  for _ = 1 to m do
    let i = Prng.Rng.int g k in
    a.(i) <- a.(i) + 1
  done;
  Lv.of_array a

(* The variates worth pinning besides a random one: the least, and the
   greatest below 1, 1 − 2^-53, where ⌊u·m⌋ = m − 1 and both scans must
   reach the last non-empty rank. *)
let variates g = [ Prng.Rng.float g; 0.; Float.pred 1. ]

(* The integer scans pick the rank and class the float scans did (test/
   float_scan.ml), for every variate.  u·m is exact when m is a power of
   two, so m avoids them: the scans must agree where u·m rounds. *)
let qcheck_integer_scan_matches_float =
  QCheck.Test.make ~name:"integer inverse CDF = float scan" ~count:500
    QCheck.(quad small_int (int_range 1 24) (int_range 1 24) (int_range 1 5000))
    (fun (seed, n, k, m) ->
      let k = Stdlib.min k n in
      let m = if m land (m - 1) = 0 then 3 * m else m in
      let g = rng ~seed () in
      let lv = vector_with_empty_tail g ~n ~k ~m in
      let v = Mv.of_load_vector lv and cv = Loadvec.Count_vector.of_load_vector lv in
      List.for_all
        (fun u ->
          Core.Scenario.remove_rank Core.Scenario.A v ~u
          = Float_scan.remove_rank v ~u
          && Core.Scenario.remove_level Core.Scenario.A cv ~u
             = Float_scan.remove_level cv ~u)
        (variates g))

(* The one-pass pair removal decrements each copy where its own removal
   would, also when the two totals differ. *)
let qcheck_remove_pair_matches_two_removals =
  QCheck.Test.make ~name:"remove_pair = two removals" ~count:500
    QCheck.(
      quad small_int (int_range 1 16) (pair (int_range 1 60) (int_range 1 60))
        (pair bool bool))
    (fun (seed, n, (mx, my), (equal_totals, scenario_b)) ->
      let sc = if scenario_b then Core.Scenario.B else Core.Scenario.A in
      let my = if equal_totals then mx else my in
      let g = rng ~seed () in
      let lx = vector_with_empty_tail g ~n ~k:n ~m:mx in
      let ly = vector_with_empty_tail g ~n ~k:(1 + Prng.Rng.int g n) ~m:my in
      List.for_all
        (fun u ->
          let x = Mv.of_load_vector lx and y = Mv.of_load_vector ly in
          let x' = Mv.of_load_vector lx and y' = Mv.of_load_vector ly in
          Core.Scenario.remove_pair sc x y ~u;
          Core.Load_state.Array.remove x' sc ~u;
          Core.Load_state.Array.remove y' sc ~u;
          Mv.equal x x' && Mv.equal y y')
        (variates g))

let test_rule_names () =
  Alcotest.(check string) "abku" "ABKU[2]" (Sr.name (Sr.abku 2));
  let x = Core.Adaptive.constant 2 in
  Alcotest.(check string) "adap" "ADAP(const2)" (Sr.name (Sr.adap x))

let qcheck_rank_distribution_sums_to_one =
  QCheck.Test.make ~name:"rank_distribution sums to 1" ~count:200
    QCheck.(
      triple (int_range 1 8)
        (list_of_size (Gen.int_range 1 6) (int_range 0 6))
        (int_range 1 4))
    (fun (n, loads, d) ->
      QCheck.assume (List.length loads <= n);
      let lv = Lv.of_loads ~n loads in
      let loads = Lv.to_array lv in
      let check rule =
        let dist = Sr.rank_distribution rule ~loads in
        Float.abs (Array.fold_left ( +. ) 0. dist -. 1.) < 1e-9
      in
      check (Sr.abku d)
      && check (Sr.adap (Core.Adaptive.of_list [ 1; d; d + 1 ])))

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("probe memoized", test_probe_memoized);
      ("probe prefix max", test_probe_prefix_max);
      ("probe range", test_probe_range);
      ("probe invalid", test_probe_invalid);
      ("adaptive constant", test_adaptive_constant);
      ("adaptive of_list", test_adaptive_of_list);
      ("adaptive linear/doubling", test_adaptive_linear_doubling);
      ("ABKU choose = prefix max", test_abku_choose_is_prefix_max);
      ("ADAP(const d) = ABKU[d] choice", test_adap_const_equals_abku_choice);
      ("ADAP stops early on empty", test_adap_stops_early_on_empty);
      ("ABKU rank distribution closed form", test_abku_rank_distribution_closed_form);
      ("ADAP(const) distribution = ABKU", test_adap_rank_distribution_matches_abku);
      ("ADAP distribution vs Monte Carlo", test_adap_rank_distribution_monte_carlo);
      ("expected probes", test_expected_probes);
      ("scenario removal distributions", test_scenario_removal_distribution);
      ("remove_rank inverse CDF", test_scenario_remove_rank_inverse_cdf);
      ("remove_rank matches law", test_scenario_remove_rank_matches_distribution);
      ("rule names", test_rule_names);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_rank_distribution_sums_to_one;
        qcheck_integer_scan_matches_float;
        qcheck_remove_pair_matches_two_removals;
      ]
