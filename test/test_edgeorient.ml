(* Tests for the edge orientation problem: identity-based greedy protocol,
   the Section 6 count-vector chain, their agreement in law, and the
   carpool reduction. *)

module O = Edgeorient.Orientation
module C = Edgeorient.Class_chain

let rng ?(seed = 42) () = Prng.Rng.create ~seed ()

let check_orientation_invariants name t =
  let diffs = O.discrepancies t in
  if Array.fold_left ( + ) 0 diffs <> 0 then Alcotest.failf "%s: sum not 0" name;
  let unf = Array.fold_left (fun a d -> Stdlib.max a (abs d)) 0 diffs in
  if unf <> O.unfairness t then
    Alcotest.failf "%s: unfairness %d vs tracked %d" name unf (O.unfairness t)

let test_create () =
  let t = O.create ~n:5 in
  Alcotest.(check int) "n" 5 (O.n t);
  Alcotest.(check int) "unfairness" 0 (O.unfairness t);
  Alcotest.(check int) "edges" 0 (O.edges_seen t);
  check_orientation_invariants "fresh" t;
  Alcotest.check_raises "n too small"
    (Invalid_argument "Orientation.create: need n >= 2") (fun () ->
      ignore (O.create ~n:1))

let test_of_discrepancies () =
  let t = O.of_discrepancies [| 2; -1; -1; 0 |] in
  Alcotest.(check int) "unfairness" 2 (O.unfairness t);
  Alcotest.(check int) "diff 0" 2 (O.discrepancy t 0);
  check_orientation_invariants "explicit" t;
  Alcotest.check_raises "bad sum"
    (Invalid_argument "Orientation.of_discrepancies: values must sum to 0")
    (fun () -> ignore (O.of_discrepancies [| 1; 0 |]))

let test_adversarial () =
  let t = O.adversarial ~n:6 in
  Alcotest.(check int) "unfairness" 3 (O.unfairness t);
  check_orientation_invariants "adversarial even" t;
  let t7 = O.adversarial ~n:7 in
  Alcotest.(check int) "odd unfairness" 4 (O.unfairness t7);
  check_orientation_invariants "adversarial odd" t7

let test_orient_manual () =
  let t = O.create ~n:3 in
  O.orient t ~src:0 ~dst:1;
  Alcotest.(check int) "src +1" 1 (O.discrepancy t 0);
  Alcotest.(check int) "dst -1" (-1) (O.discrepancy t 1);
  Alcotest.(check int) "edges" 1 (O.edges_seen t);
  Alcotest.(check int) "unfairness" 1 (O.unfairness t);
  check_orientation_invariants "after orient" t;
  Alcotest.check_raises "self loop" (Invalid_argument "Orientation.orient: bad endpoints")
    (fun () -> O.orient t ~src:1 ~dst:1)

let test_greedy_reduces_extremes () =
  (* Greedy between a +k and a -k vertex pushes both toward 0. *)
  let t = O.of_discrepancies [| 2; -2 |] in
  let g = rng () in
  O.greedy_step g t;
  Alcotest.(check int) "unfairness dropped" 1 (O.unfairness t)

let test_greedy_run_keeps_invariants () =
  let g = rng () in
  let t = O.adversarial ~n:9 in
  for _ = 1 to 2000 do
    O.greedy_step g t;
    check_orientation_invariants "greedy run" t
  done;
  Alcotest.(check int) "edges counted" 2000 (O.edges_seen t)

let test_greedy_recovers () =
  (* From the adversarial state, O(n^2 ln n) steps bring unfairness down
     to the O(log log n) regime. *)
  let g = rng ~seed:3 () in
  let n = 32 in
  let t = O.adversarial ~n in
  O.run g t ~steps:(n * n * 10);
  Alcotest.(check bool)
    (Printf.sprintf "unfairness %d small" (O.unfairness t))
    true
    (O.unfairness t <= 6)

let test_copy_independent () =
  let t = O.adversarial ~n:4 in
  let c = O.copy t in
  O.orient t ~src:0 ~dst:1;
  Alcotest.(check bool) "copy unchanged" true (O.unfairness c = 2)

(* ---- Class chain ---- *)

let test_class_chain_start () =
  let x = C.start ~n:5 in
  Alcotest.(check int) "n" 5 (C.n x);
  Alcotest.(check int) "unfairness" 0 (C.unfairness x);
  let counts = C.counts x in
  Alcotest.(check int) "all at diff 0" 5 counts.(5);
  Alcotest.(check int) "total" 5 (Array.fold_left ( + ) 0 counts)

let test_class_chain_of_discrepancies () =
  let x = C.of_discrepancies [| 2; 0; -2 |] in
  Alcotest.(check int) "unfairness" 2 (C.unfairness x);
  let counts = C.counts x in
  Alcotest.(check int) "diff 2 class" 1 counts.(1);
  Alcotest.(check int) "diff 0 class" 1 counts.(3);
  Alcotest.(check int) "diff -2 class" 1 counts.(5);
  Alcotest.(check int) "class->diff" 2 (C.discrepancy_of_class x 1)

let test_class_chain_step_invariants () =
  let g = rng () in
  let x = ref (C.adversarial ~n:8) in
  for _ = 1 to 3000 do
    x := C.step g !x;
    let counts = C.counts !x in
    Alcotest.(check int) "vertex count" 8 (Array.fold_left ( + ) 0 counts);
    (* Total discrepancy stays 0. *)
    let total = ref 0 in
    Array.iteri (fun i c -> total := !total + (c * C.discrepancy_of_class !x i)) counts;
    Alcotest.(check int) "discrepancy sum" 0 !total
  done

let test_class_chain_matches_identity_protocol_in_law () =
  (* Remark 1: the chain is the greedy protocol slowed by the lazy bit.
     Compare unfairness distributions: chain after 2k steps vs greedy
     after k steps (expected numbers of real orientations match). *)
  let n = 8 and reps = 3000 and k = 40 in
  let g = rng ~seed:15 () in
  let h_chain = Stats.Freq.create ~size:(n + 1) in
  let h_greedy = Stats.Freq.create ~size:(n + 1) in
  for _ = 1 to reps do
    let x = ref (C.adversarial ~n) in
    for _ = 1 to 2 * k do
      x := C.step g !x
    done;
    Stats.Freq.observe h_chain (C.unfairness !x);
    let t = O.adversarial ~n in
    O.run g t ~steps:k;
    Stats.Freq.observe h_greedy (O.unfairness t)
  done;
  (* Means within statistical tolerance (the slowdown is ~2 +- O(1/n),
     so allow a generous margin). *)
  let mc = Stats.Freq.mean h_chain and mg = Stats.Freq.mean h_greedy in
  Alcotest.(check bool)
    (Printf.sprintf "means close: chain %f greedy %f" mc mg)
    true
    (Float.abs (mc -. mg) < 0.35)

let test_emd () =
  let x = C.of_discrepancies [| 1; -1; 0 |] in
  let y = C.of_discrepancies [| 0; 0; 0 |] in
  Alcotest.(check int) "emd positive" 2 (C.emd x y);
  Alcotest.(check int) "emd self" 0 (C.emd x x);
  Alcotest.(check int) "symmetric" (C.emd x y) (C.emd y x);
  Alcotest.(check bool) "zero iff equal" true (C.emd x y > 0 && not (C.equal x y))

let test_g_tilde_detection () =
  (* y has two vertices at diff 0; x replaces them by +1 and -1: that is
     exactly x = y + e_lambda - 2e_{lambda+1} + e_{lambda+2}. *)
  let y = C.of_discrepancies [| 0; 0; 2; -2 |] in
  let x = C.of_discrepancies [| 1; -1; 2; -2 |] in
  (match C.g_tilde_lambda x y with
  | Some lambda ->
      Alcotest.(check int) "lambda is diff+1 class" 3 lambda
  | None -> Alcotest.fail "G-tilde not detected");
  Alcotest.(check (option int)) "not in reverse direction" None
    (C.g_tilde_lambda y x |> fun o -> o);
  Alcotest.(check (option int)) "unrelated states" None
    (C.g_tilde_lambda x (C.start ~n:4))

let test_coupled_faithful_and_coalesces () =
  let c = C.coupled () in
  let g = rng ~seed:21 () in
  let x = C.adversarial ~n:6 in
  let y = C.start ~n:6 in
  match Coupling.Coalescence.time c g x y ~limit:1_000_000 with
  | Some t -> Alcotest.(check bool) "met" true (t > 0)
  | None -> Alcotest.fail "edge coupling did not coalesce"

let test_coupled_sticky () =
  let c = C.coupled () in
  let g = rng ~seed:22 () in
  let x = ref (C.start ~n:5) and y = ref (C.start ~n:5) in
  for _ = 1 to 200 do
    let x', y' = c.Coupling.Coupled_chain.step g !x !y in
    x := x';
    y := y'
  done;
  Alcotest.(check bool) "still equal" true (C.equal !x !y)

let test_coupled_marginal_law () =
  (* The coupling's first marginal follows the chain law: compare
     unfairness distribution of coupled-x vs plain chain. *)
  let reps = 4000 and steps = 30 and n = 6 in
  let g = rng ~seed:30 () in
  let c = C.coupled () in
  let h_plain = Stats.Freq.create ~size:(n + 1) in
  let h_coupled = Stats.Freq.create ~size:(n + 1) in
  for _ = 1 to reps do
    let x = ref (C.adversarial ~n) in
    for _ = 1 to steps do
      x := C.step g !x
    done;
    Stats.Freq.observe h_plain (C.unfairness !x);
    let x = ref (C.adversarial ~n) and y = ref (C.start ~n) in
    for _ = 1 to steps do
      let x', y' = c.Coupling.Coupled_chain.step g !x !y in
      x := x';
      y := y'
    done;
    Stats.Freq.observe h_coupled (C.unfairness !x)
  done;
  let a = Stats.Freq.mean h_plain and b = Stats.Freq.mean h_coupled in
  Alcotest.(check bool)
    (Printf.sprintf "marginal means: %f vs %f" a b)
    true
    (Float.abs (a -. b) < 0.25)

(* ---- Carpool ---- *)

let test_carpool_basics () =
  let t = Edgeorient.Carpool.create ~n:4 in
  Alcotest.(check int) "n" 4 (Edgeorient.Carpool.n t);
  Alcotest.(check (float 1e-9)) "fair at start" 0.
    (Edgeorient.Carpool.max_unfairness t);
  let g = rng () in
  Edgeorient.Carpool.run g t ~days:500;
  Alcotest.(check int) "days counted" 500 (Edgeorient.Carpool.trips t);
  let balances = Array.init 4 (Edgeorient.Carpool.balance t) in
  Alcotest.(check int) "balances sum 0" 0 (Array.fold_left ( + ) 0 balances)

let test_carpool_greedy_stays_fair () =
  let g = rng ~seed:8 () in
  let t = Edgeorient.Carpool.create ~n:16 in
  Edgeorient.Carpool.run g t ~days:20_000;
  Alcotest.(check bool)
    (Printf.sprintf "unfairness %.1f small" (Edgeorient.Carpool.max_unfairness t))
    true
    (Edgeorient.Carpool.max_unfairness t <= 3.)

let test_carpool_of_balances () =
  let t = Edgeorient.Carpool.of_balances [| 4; -4; 0; 0; 0 |] in
  Alcotest.(check (float 1e-9)) "unfairness halved" 2.
    (Edgeorient.Carpool.max_unfairness t)

let qcheck_greedy_invariants =
  QCheck.Test.make ~name:"greedy protocol invariants" ~count:100
    QCheck.(pair small_int (int_range 2 12))
    (fun (seed, n) ->
      let g = rng ~seed () in
      let t = O.create ~n in
      let ok = ref true in
      for _ = 1 to 300 do
        O.greedy_step g t;
        let diffs = O.discrepancies t in
        if Array.fold_left ( + ) 0 diffs <> 0 then ok := false;
        let unf = Array.fold_left (fun a d -> Stdlib.max a (abs d)) 0 diffs in
        if unf <> O.unfairness t then ok := false
      done;
      !ok)

let qcheck_class_chain_preserves_counts =
  QCheck.Test.make ~name:"class chain preserves vertex count and zero sum"
    ~count:100
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, n) ->
      let g = rng ~seed () in
      let x = ref (C.start ~n) in
      let ok = ref true in
      for _ = 1 to 300 do
        x := C.step g !x;
        let counts = C.counts !x in
        if Array.fold_left ( + ) 0 counts <> n then ok := false;
        let total = ref 0 in
        Array.iteri
          (fun i c -> total := !total + (c * C.discrepancy_of_class !x i))
          counts;
        if !total <> 0 then ok := false
      done;
      !ok)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("create", test_create);
      ("of_discrepancies", test_of_discrepancies);
      ("adversarial", test_adversarial);
      ("orient manual", test_orient_manual);
      ("greedy reduces extremes", test_greedy_reduces_extremes);
      ("greedy invariants over run", test_greedy_run_keeps_invariants);
      ("greedy recovers", test_greedy_recovers);
      ("copy independent", test_copy_independent);
      ("class chain start", test_class_chain_start);
      ("class chain of_discrepancies", test_class_chain_of_discrepancies);
      ("class chain step invariants", test_class_chain_step_invariants);
      ("class chain = greedy in law (Remark 1)",
       test_class_chain_matches_identity_protocol_in_law);
      ("emd", test_emd);
      ("G-tilde detection", test_g_tilde_detection);
      ("coupling coalesces", test_coupled_faithful_and_coalesces);
      ("coupling sticky", test_coupled_sticky);
      ("coupling marginal law", test_coupled_marginal_law);
      ("carpool basics", test_carpool_basics);
      ("carpool greedy stays fair", test_carpool_greedy_stays_fair);
      ("carpool of_balances", test_carpool_of_balances);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_greedy_invariants; qcheck_class_chain_preserves_counts ]
