(* Tests for the generic coupling machinery and the Path Coupling Lemma:
   its calculators ([Theory.Bounds]) and the empirical estimate of their
   inputs ([Path_coupling.beta_estimate]). *)

module B = Theory.Bounds
module Cc = Coupling.Coupled_chain
module Pc = Coupling.Path_coupling

(* A toy chain on {0, ..., k-1}: jump to a uniform state.  Under the
   identity coupling two copies meet in one step. *)
let uniform_chain k = fun g _s -> Prng.Rng.int g k

let test_identity_coupling_meets () =
  let c =
    Cc.of_identity ~chain_step:(uniform_chain 10) ~equal:( = )
      ~distance:(fun a b -> abs (a - b))
  in
  let g = Prng.Rng.create ~seed:11 () in
  match Coupling.Coalescence.time c g 0 9 ~limit:5 with
  | Some t -> Alcotest.(check int) "meets immediately" 1 t
  | None -> Alcotest.fail "did not meet"

let test_identity_coupling_stays_together () =
  let c =
    Cc.of_identity ~chain_step:(uniform_chain 10) ~equal:( = )
      ~distance:(fun a b -> abs (a - b))
  in
  let g = Prng.Rng.create ~seed:11 () in
  let x = ref 3 and y = ref 3 in
  for _ = 1 to 20 do
    let x', y' = c.Cc.step g !x !y in
    x := x';
    y := y'
  done;
  Alcotest.(check int) "equal forever" !x !y

(* A lazy random walk on a cycle of size k, coupled by sharing the move:
   both copies move in the same direction.  The difference is preserved,
   so copies never meet: coalescence must report failure. *)
let test_translation_coupling_never_meets () =
  let k = 8 in
  let step g x y =
    let d = if Prng.Rng.bool g then 1 else k - 1 in
    ((x + d) mod k, (y + d) mod k)
  in
  let c = Cc.make ~step ~equal:( = ) ~distance:(fun a b -> abs (a - b)) in
  let g = Prng.Rng.create ~seed:3 () in
  Alcotest.(check (option int)) "never meets" None
    (Coupling.Coalescence.time c g 0 4 ~limit:200)

let test_coalescence_zero_when_equal () =
  let c =
    Cc.of_identity ~chain_step:(uniform_chain 5) ~equal:( = )
      ~distance:(fun a b -> abs (a - b))
  in
  let g = Prng.Rng.create () in
  Alcotest.(check (option int)) "t=0" (Some 0)
    (Coupling.Coalescence.time c g 2 2 ~limit:10)

let test_measure () =
  let c =
    Cc.of_identity ~chain_step:(uniform_chain 6) ~equal:( = )
      ~distance:(fun a b -> abs (a - b))
  in
  let rng = Prng.Rng.create ~seed:5 () in
  let m =
    Coupling.Coalescence.measure ~reps:50 ~limit:100 ~rng c ~init:(fun g ->
        (Prng.Rng.int g 6, Prng.Rng.int g 6))
  in
  Alcotest.(check int) "no failures" 0 m.Coupling.Coalescence.failures;
  Alcotest.(check int) "all runs counted" 50
    (Array.length m.Coupling.Coalescence.times);
  Alcotest.(check bool) "median sane" true
    (m.Coupling.Coalescence.median >= 0. && m.Coupling.Coalescence.median <= 1.)

let test_measure_all_failures () =
  let step _g x y = (x, y) in
  let c = Cc.make ~step ~equal:( = ) ~distance:(fun a b -> abs (a - b)) in
  let rng = Prng.Rng.create () in
  let m =
    Coupling.Coalescence.measure ~reps:5 ~limit:10 ~rng c ~init:(fun _ -> (0, 1))
  in
  Alcotest.(check int) "all failed" 5 m.Coupling.Coalescence.failures;
  Alcotest.(check bool) "median nan" true (Float.is_nan m.Coupling.Coalescence.median)

let test_trace_distance () =
  let step _g x y = (x + 1, y + 2) in
  let c = Cc.make ~step ~equal:( = ) ~distance:(fun a b -> abs (a - b)) in
  let g = Prng.Rng.create () in
  let trace = Coupling.Coalescence.trace_distance c g 0 1 ~every:1 ~limit:3 in
  Alcotest.(check (list (pair int int))) "distances grow"
    [ (0, 1); (1, 2); (2, 3); (3, 4) ] trace;
  let stopped = Coupling.Coalescence.trace_distance c g 5 5 ~every:1 ~limit:3 in
  Alcotest.(check (list (pair int int))) "stops when equal" [ (0, 0) ] stopped

let test_bound_contractive () =
  (* Theorem 1 shape: beta = 1 - 1/m, diameter m gives ~ m ln(m/eps). *)
  let m = 100 in
  let b =
    B.path_coupling_case1 ~beta:(1. -. (1. /. float_of_int m)) ~diameter:m
      ~eps:0.25
  in
  let expected = float_of_int m *. log (float_of_int m /. 0.25) in
  Alcotest.(check bool) "matches m ln(m/eps)" true
    (Float.abs (b -. expected) < 1e-6)

let test_bound_contractive_monotone () =
  let b1 = B.path_coupling_case1 ~beta:0.5 ~diameter:10 ~eps:0.25 in
  let b2 = B.path_coupling_case1 ~beta:0.9 ~diameter:10 ~eps:0.25 in
  Alcotest.(check bool) "slower contraction, bigger bound" true (b2 > b1);
  let b3 = B.path_coupling_case1 ~beta:0.5 ~diameter:10 ~eps:0.01 in
  Alcotest.(check bool) "smaller eps, bigger bound" true (b3 > b1)

let test_bound_non_contractive () =
  let b = B.path_coupling_case2 ~alpha:0.5 ~diameter:10 ~eps:0.25 in
  (* ceil(e * 100 / 0.5) * ceil(ln 4) = 544 * 2 *)
  Alcotest.(check bool) "value" true (Float.abs (b -. 1088.) < 1e-6)

let test_bound_invalid () =
  Alcotest.check_raises "beta = 1"
    (Invalid_argument "Bounds.path_coupling_case1: beta")
    (fun () -> ignore (B.path_coupling_case1 ~beta:1. ~diameter:2 ~eps:0.5));
  Alcotest.check_raises "alpha = 0"
    (Invalid_argument "Bounds.path_coupling_case2: alpha")
    (fun () -> ignore (B.path_coupling_case2 ~alpha:0. ~diameter:2 ~eps:0.5));
  Alcotest.check_raises "bad eps"
    (Invalid_argument "Bounds.path_coupling_case1: eps not in (0,1)")
    (fun () -> ignore (B.path_coupling_case1 ~beta:0.5 ~diameter:2 ~eps:0.))

let test_beta_estimate () =
  (* Coupling that always contracts distance-1 pairs to 0: beta = 0 and
     alpha = 1. *)
  let step _g x _y = (x, x) in
  let c = Cc.make ~step ~equal:( = ) ~distance:(fun a b -> abs (a - b)) in
  let rng = Prng.Rng.create () in
  let beta, alpha =
    Pc.beta_estimate ~reps:100 ~rng c ~pair:(fun _g -> (0, 1))
  in
  Alcotest.(check (float 1e-9)) "beta" 0. beta;
  Alcotest.(check (float 1e-9)) "alpha" 1. alpha

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("identity coupling meets", test_identity_coupling_meets);
      ("identity coupling sticky", test_identity_coupling_stays_together);
      ("translation coupling never meets", test_translation_coupling_never_meets);
      ("coalescence zero when equal", test_coalescence_zero_when_equal);
      ("measure", test_measure);
      ("measure all failures", test_measure_all_failures);
      ("trace distance", test_trace_distance);
      ("bound contractive (Thm 1 shape)", test_bound_contractive);
      ("bound contractive monotone", test_bound_contractive_monotone);
      ("bound non-contractive", test_bound_non_contractive);
      ("bound invalid args", test_bound_invalid);
      ("beta estimate", test_beta_estimate);
    ]
