(* Tests for the closed-form bound calculators. *)

module B = Theory.Bounds

let feq ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol

let test_theorem1_value () =
  let v = B.theorem1 ~m:100 ~eps:0.25 in
  Alcotest.(check bool) "ceil(m ln(m/eps))" true
    (feq v (ceil (100. *. log 400.)))

let test_theorem1_monotone () =
  Alcotest.(check bool) "in m" true (B.theorem1 ~m:200 ~eps:0.25 > B.theorem1 ~m:100 ~eps:0.25);
  Alcotest.(check bool) "in eps" true (B.theorem1 ~m:100 ~eps:0.01 > B.theorem1 ~m:100 ~eps:0.25)

let test_theorem1_invalid () =
  Alcotest.check_raises "m" (Invalid_argument "Bounds.theorem1: m < 1") (fun () ->
      ignore (B.theorem1 ~m:0 ~eps:0.5));
  Alcotest.check_raises "eps" (Invalid_argument "Bounds.theorem1: eps not in (0,1)")
    (fun () -> ignore (B.theorem1 ~m:2 ~eps:2.))

let test_claim53_scaling () =
  (* O(n m^2): doubling m roughly quadruples, doubling n roughly doubles. *)
  let b = B.claim53 ~n:10 ~m:10 ~eps:0.25 in
  let bm = B.claim53 ~n:10 ~m:20 ~eps:0.25 in
  let bn = B.claim53 ~n:20 ~m:10 ~eps:0.25 in
  Alcotest.(check bool) "quadratic in m" true (bm /. b > 3.5 && bm /. b < 4.5);
  Alcotest.(check bool) "linear in n" true (bn /. b > 1.8 && bn /. b < 2.2)

let test_scenario_b_forms () =
  Alcotest.(check bool) "improved" true
    (feq (B.scenario_b_improved ~m:10) (100. *. log 10.));
  Alcotest.(check bool) "lower" true (feq (B.scenario_b_lower ~m:10) 100.)

let test_corollary64 () =
  let v = B.corollary64 ~n:10 ~eps:0.25 in
  Alcotest.(check bool) "value" true (feq v (100. *. 9. /. 4. *. log 40.));
  Alcotest.(check bool) "cubic-ish" true
    (B.corollary64 ~n:20 ~eps:0.25 /. v > 7.)

let test_theorem2 () =
  let v = B.theorem2 ~n:10 in
  Alcotest.(check bool) "n^2 ln^2 n" true (feq v (100. *. log 10. *. log 10.));
  Alcotest.(check bool) "below corollary 6.4 for large n" true
    (B.theorem2 ~n:1000 < B.corollary64 ~n:1000 ~eps:0.25)

let test_edge_lower () =
  Alcotest.(check bool) "n^2" true (feq (B.edge_lower ~n:9) 81.);
  Alcotest.(check bool) "lower below upper" true
    (B.edge_lower ~n:100 < B.theorem2 ~n:100)

let test_azar_static () =
  (* The d = 1 vs d >= 2 contrast is asymptotic; use a large n. *)
  let n = 1_000_000 in
  let one = B.azar_static_max_load ~n ~m:n ~d:1 in
  let two = B.azar_static_max_load ~n ~m:n ~d:2 in
  let three = B.azar_static_max_load ~n ~m:n ~d:3 in
  Alcotest.(check bool) "d=2 beats d=1" true (two < one);
  Alcotest.(check bool) "d=3 beats d=2" true (three < two);
  Alcotest.(check bool) "d=2 value sane" true (two > 1. && two < 6.)

let test_edge_stationary_unfairness () =
  let v = B.edge_stationary_unfairness ~n:256 in
  Alcotest.(check bool) "log log 256 = 3" true (feq v 3.);
  Alcotest.check_raises "small n"
    (Invalid_argument "Bounds.edge_stationary_unfairness: n < 4") (fun () ->
      ignore (B.edge_stationary_unfairness ~n:3))

let test_recovery_steps () =
  Alcotest.(check bool) "A" true (feq (B.recovery_a_steps ~n:10) (10. *. log 10.));
  Alcotest.(check bool) "B" true (feq (B.recovery_b_steps ~n:10) (100. *. log 10.));
  Alcotest.(check bool) "B slower than A" true
    (B.recovery_b_steps ~n:100 > B.recovery_a_steps ~n:100)

let test_theorem1_consistent_with_lemma () =
  (* Theorem 1 is Lemma 3.1(1) at beta = 1 - 1/m, diameter m (up to the
     ceiling). *)
  let m = 50 in
  let lemma =
    B.path_coupling_case1
      ~beta:(1. -. (1. /. float_of_int m))
      ~diameter:m ~eps:0.25
  in
  let thm = B.theorem1 ~m ~eps:0.25 in
  Alcotest.(check bool) "within one" true (Float.abs (thm -. lemma) <= 1.)

let test_rbb_bounds () =
  (* rbb_mixing at m = n reads n ln n; the m/n prefactor is linear. *)
  Alcotest.(check (float 1e-9))
    "rbb_mixing n=m=64" (64. *. log 64.)
    (B.rbb_mixing ~n:64 ~m:64);
  Alcotest.(check (float 1e-9))
    "rbb_mixing doubles with m" (2. *. B.rbb_mixing ~n:64 ~m:64)
    (B.rbb_mixing ~n:64 ~m:128);
  Alcotest.(check (float 1e-9)) "rbb_stabilization" 64. (B.rbb_stabilization ~n:64);
  Alcotest.(check (float 1e-9)) "rbb_max_load" (log 64.) (B.rbb_max_load ~n:64);
  List.iter
    (fun (msg, f) ->
      Alcotest.check_raises "n < 2 rejected" (Invalid_argument msg) f)
    [
      ("Bounds.rbb_mixing", fun () -> ignore (B.rbb_mixing ~n:1 ~m:4));
      ( "Bounds.rbb_stabilization: n < 2",
        fun () -> ignore (B.rbb_stabilization ~n:1) );
      ("Bounds.rbb_max_load: n < 2", fun () -> ignore (B.rbb_max_load ~n:1));
    ]

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("theorem 1 value", test_theorem1_value);
      ("theorem 1 monotone", test_theorem1_monotone);
      ("theorem 1 invalid", test_theorem1_invalid);
      ("claim 5.3 scaling", test_claim53_scaling);
      ("scenario B forms", test_scenario_b_forms);
      ("corollary 6.4", test_corollary64);
      ("theorem 2", test_theorem2);
      ("edge lower bound", test_edge_lower);
      ("Azar static formulas", test_azar_static);
      ("edge stationary unfairness", test_edge_stationary_unfairness);
      ("recovery step formulas", test_recovery_steps);
      ("theorem 1 = lemma 3.1(1)", test_theorem1_consistent_with_lemma);
      ("rbb bounds", test_rbb_bounds);
    ]
