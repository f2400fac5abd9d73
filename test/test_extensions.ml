(* Tests for the extension modules: delayed path coupling, empirical TV
   estimation, exact decay profiles, bounded open systems, and the
   Lemma 6.2 contraction of the edge coupling. *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector
module Sr = Core.Scheduling_rule
module C = Edgeorient.Class_chain

let rng ?(seed = 42) () = Prng.Rng.create ~seed ()

(* ---- Delayed path coupling ---- *)

let test_delayed_bound_values () =
  (* beta = 0: one block suffices. *)
  Alcotest.(check (float 1e-9)) "beta 0" 3.
    (Coupling.Delayed.bound ~block:3 ~beta:0. ~diameter:10 ~eps:0.25);
  (* Closed form: block 1, beta 1/2, diameter 16, eps 1/4 gives
     ceil(ln 64 / ln 2) = 6 blocks. *)
  Alcotest.(check (float 1e-9)) "block 1 closed form" 6.
    (Coupling.Delayed.bound ~block:1 ~beta:0.5 ~diameter:16 ~eps:0.25);
  (* And it never beats Lemma 3.1(1) by more than the ln(1/beta) vs
     (1 - beta) slack. *)
  let lemma =
    Coupling.Path_coupling.bound_contractive ~beta:0.5 ~diameter:16 ~eps:0.25
  in
  Alcotest.(check bool) "within the lemma's slack" true
    (6. <= lemma +. 1. && 6. >= (lemma /. 2.) -. 1.)

let test_delayed_bound_monotone () =
  let b k = Coupling.Delayed.bound ~block:k ~beta:0.5 ~diameter:10 ~eps:0.25 in
  Alcotest.(check bool) "linear in block" true (b 4 = 4. *. b 1);
  Alcotest.check_raises "bad block"
    (Invalid_argument "Delayed.bound: block must be >= 1") (fun () ->
      ignore (Coupling.Delayed.bound ~block:0 ~beta:0.5 ~diameter:10 ~eps:0.25))

let test_block_coupling_steps () =
  let step _g x y = (x + 1, y + 1) in
  let c =
    Coupling.Coupled_chain.make ~step ~equal:( = )
      ~distance:(fun a b -> abs (a - b))
  in
  let blocked = Coupling.Delayed.block_coupling ~block:5 c in
  let g = rng () in
  let x, y = blocked.Coupling.Coupled_chain.step g 0 10 in
  Alcotest.(check (pair int int)) "five steps" (5, 15) (x, y)

let test_block_beta_estimate () =
  (* A coupling halving the distance each step: block beta over k steps
     is 2^-k. *)
  let step _g x y = (x, x + ((y - x) / 2)) in
  let c =
    Coupling.Coupled_chain.make ~step ~equal:( = )
      ~distance:(fun a b -> abs (a - b))
  in
  let rngm = rng () in
  let beta =
    Coupling.Delayed.block_beta_estimate ~reps:50 ~block:3 ~rng:rngm c
      ~pair:(fun _ -> (0, 64))
  in
  Alcotest.(check (float 1e-9)) "2^-3" 0.125 beta

let test_delayed_on_scenario_a () =
  (* The real chain: over a block of m steps the monotone coupling
     contracts the extremal pair's distance markedly. *)
  let n = 32 in
  let process = Core.Dynamic_process.make Core.Scenario.A (Sr.abku 2) ~n in
  let c = Core.Coupled.monotone process in
  let rngm = rng ~seed:3 () in
  let beta =
    Coupling.Delayed.block_beta_estimate ~reps:30 ~block:n ~rng:rngm c
      ~pair:(fun _ ->
        ( Mv.of_load_vector (Lv.all_in_one ~n ~m:n),
          Mv.of_load_vector (Lv.uniform ~n ~m:n) ))
  in
  Alcotest.(check bool)
    (Printf.sprintf "block contraction %.3f < 0.9" beta)
    true (beta < 0.9)

(* ---- Empirical TV ---- *)

let test_tv_between_samples_basic () =
  Alcotest.(check (float 1e-9)) "identical" 0.
    (Markov.Empirical.tv_between_samples [| 1; 2; 1; 2 |] [| 2; 1; 2; 1 |]);
  Alcotest.(check (float 1e-9)) "disjoint" 1.
    (Markov.Empirical.tv_between_samples [| 0; 0 |] [| 3; 3 |]);
  Alcotest.(check (float 1e-9)) "half" 0.5
    (Markov.Empirical.tv_between_samples [| 0; 0 |] [| 0; 1 |]);
  (* Exactly 1, although the per-cell quotients 1/13 and 6/13 do not
     sum to 1 in floating point. *)
  Alcotest.(check (float 0.)) "disjoint, uneven sizes" 1.
    (Markov.Empirical.tv_between_samples [| 0 |]
       [| 1; 1; 1; 1; 1; 1; 2; 2; 2; 2; 2; 2; 3 |])

let test_tv_between_samples_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Empirical.tv_between_samples: empty sample") (fun () ->
      ignore (Markov.Empirical.tv_between_samples [||] [| 1 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Empirical.tv_between_samples: negative value") (fun () ->
      ignore (Markov.Empirical.tv_between_samples [| -1 |] [| 1 |]))

let test_observable_tv_decays () =
  let n = 16 in
  let process = Core.Dynamic_process.make Core.Scenario.A (Sr.abku 2) ~n in
  let step g v =
    Core.Dynamic_process.step_in_place process g v;
    v
  in
  let rngm = rng ~seed:9 () in
  let tv t =
    Markov.Empirical.observable_tv ~step ~rng:rngm
      ~x0:(fun () -> Mv.of_load_vector (Lv.all_in_one ~n ~m:n))
      ~y0:(fun () -> Mv.of_load_vector (Lv.uniform ~n ~m:n))
      ~t ~reps:400 ~observable:Mv.max_load
  in
  let early = tv 1 and late = tv (8 * n) in
  Alcotest.(check bool)
    (Printf.sprintf "decays: %.3f -> %.3f" early late)
    true
    (early > 0.8 && late < 0.2)

let test_decay_profile_shape () =
  let rngm = rng () in
  let profile =
    Markov.Empirical.decay_profile
      ~step:(fun g s -> s + Prng.Rng.int g 2)
      ~rng:rngm
      ~x0:(fun () -> 0)
      ~y0:(fun () -> 0)
      ~times:[ 0; 1; 2 ] ~reps:50 ~observable:(fun s -> s)
  in
  Alcotest.(check int) "three points" 3 (List.length profile);
  List.iter
    (fun (_, tv) ->
      Alcotest.(check bool) "same law => small TV" true (tv < 0.3))
    profile

(* ---- Exact decay profile and relaxation ---- *)

let two_state p q =
  Markov.Exact_builder.build
    (Markov.Exact_builder.enumerated [| "x"; "y" |])
    ~transitions:(function
      | "x" -> [ ("x", 1. -. p); ("y", p) ]
      | _ -> [ ("x", q); ("y", 1. -. q) ])

let test_worst_tv_profile_monotone () =
  let c = two_state 0.2 0.3 in
  let profile = Markov.Exact.worst_tv_profile c ~max_t:30 in
  Alcotest.(check int) "length" 31 (Array.length profile);
  for t = 1 to 30 do
    if profile.(t) > profile.(t - 1) +. 1e-12 then
      Alcotest.failf "TV increased at %d" t
  done;
  Alcotest.(check bool) "starts high" true (profile.(0) > 0.5);
  Alcotest.(check bool) "ends low" true (profile.(30) < 0.01)

let test_relaxation_two_state () =
  (* For the two-state chain the TV decays exactly as |1 - p - q|^t, so
     tau_rel = -1/ln|1-p-q|. *)
  let p = 0.2 and q = 0.3 in
  let c = two_state p q in
  let expected = -1. /. log (1. -. p -. q) in
  let got = Markov.Exact.relaxation_estimate c ~max_t:60 () in
  Alcotest.(check bool)
    (Printf.sprintf "tau_rel %.3f ~ %.3f" got expected)
    true
    (Float.abs (got -. expected) < 0.05)

let test_relaxation_consistent_with_mixing () =
  let process = Core.Dynamic_process.make Core.Scenario.A (Sr.abku 2) ~n:5 in
  let states = Markov.Partition_space.enumerate ~n:5 ~m:5 in
  let chain =
    Markov.Exact_builder.build (Markov.Exact_builder.enumerated states)
      ~transitions:(Core.Dynamic_process.exact_transitions process)
  in
  let tau = Markov.Exact.mixing_time ~eps:0.25 chain in
  let tau_rel = Markov.Exact.relaxation_estimate chain ~max_t:100 () in
  Alcotest.(check bool) "tau_rel below tau(1/4) scale" true
    (tau_rel > 0.1 && tau_rel < float_of_int (4 * tau))

let test_profile_crossing_equals_mixing_time () =
  (* tau(eps) must be the first index where the worst-TV profile drops to
     eps, for any chain and any eps. *)
  let process = Core.Dynamic_process.make Core.Scenario.B (Sr.abku 2) ~n:5 in
  let states = Markov.Partition_space.enumerate ~n:5 ~m:5 in
  let chain =
    Markov.Exact_builder.build (Markov.Exact_builder.enumerated states)
      ~transitions:(Core.Dynamic_process.exact_transitions process)
  in
  List.iter
    (fun eps ->
      let tau = Markov.Exact.mixing_time ~eps chain in
      let profile = Markov.Exact.worst_tv_profile chain ~max_t:(tau + 5) in
      Alcotest.(check bool)
        (Printf.sprintf "profile at tau(%g) below eps" eps)
        true
        (profile.(tau) <= eps);
      if tau > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "profile before tau(%g) above eps" eps)
          true
          (profile.(tau - 1) > eps))
    [ 0.5; 0.25; 0.05 ]

let test_stationary_expectation () =
  (* Two-state chain with pi = (1/4, 3/4): E[f] with f = (0, 4) is 3. *)
  let c = two_state 0.3 0.1 in
  let e =
    Markov.Exact.stationary_expectation c
      ~f:(fun s -> if s = "x" then 0. else 4.)
      ()
  in
  Alcotest.(check bool) "expectation" true (Float.abs (e -. 3.) < 1e-6);
  (* And with an explicit pi. *)
  let e' =
    Markov.Exact.stationary_expectation c ~pi:[| 0.5; 0.5 |]
      ~f:(fun _ -> 2.)
      ()
  in
  Alcotest.(check (float 1e-12)) "constant observable" 2. e'

let test_exact_stationary_max_load_close_to_fluid () =
  (* The exact stationary E[max load] at n = m = 7 sits within one level
     of the fluid prediction. *)
  let n = 7 in
  let process = Core.Dynamic_process.make Core.Scenario.A (Sr.abku 2) ~n in
  let states = Markov.Partition_space.enumerate ~n ~m:n in
  let chain =
    Markov.Exact_builder.build (Markov.Exact_builder.enumerated states)
      ~transitions:(Core.Dynamic_process.exact_transitions process)
  in
  let exact =
    Markov.Exact.stationary_expectation chain
      ~f:(fun v -> float_of_int (Lv.max_load v))
      ()
  in
  let fluid = Fluid.Mean_field.fixed_point_a ~d:2 ~m_over_n:1. ~levels:20 in
  let pred = float_of_int (Fluid.Mean_field.predicted_max_load ~n fluid) in
  Alcotest.(check bool)
    (Printf.sprintf "exact %.2f within 1 of fluid %.0f" exact pred)
    true
    (Float.abs (exact -. pred) <= 1.)

(* ---- bounded open systems ---- *)

let test_open_capacity_normalized () =
  let g = rng () in
  let p = Core.Open_process.make ~insert_probability:0.9 ~capacity:6
      (Sr.abku 2) ~n:3
  in
  let v = Mv.of_load_vector (Lv.of_array [| 0; 0; 0 |]) in
  for _ = 1 to 500 do
    ignore (Core.Open_process.step_normalized p g v);
    if Mv.total v > 6 then Alcotest.fail "capacity exceeded (normalized)"
  done;
  Alcotest.(check bool) "population reached cap region" true (Mv.total v > 3)

let test_open_capacity_invalid () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Open_process.make: capacity must be >= 1") (fun () ->
      ignore (Core.Open_process.make ~capacity:0 (Sr.abku 1) ~n:2))

let test_open_bounded_coalesces_faster () =
  (* A bounded population removes the null-recurrent tail: coalescence
     must succeed fast. *)
  let n = 8 in
  let p = Core.Open_process.make ~capacity:(2 * n) (Sr.abku 2) ~n in
  let c = Core.Open_process.coupled p in
  let g = rng ~seed:5 () in
  let x = Mv.of_load_vector (Lv.all_in_one ~n ~m:(2 * n)) in
  let y = Mv.of_load_vector (Lv.of_array (Array.make n 0)) in
  match Coupling.Coalescence.time c g x y ~limit:1_000_000 with
  | Some _ -> ()
  | None -> Alcotest.fail "bounded open system did not coalesce"

(* Section 7's step is written once: [sim] stepped k times and
   [step_normalized] applied k times reach the same state from the same
   seed and leave their generators at the same point. *)
let test_open_sim_matches_stepper () =
  List.iter
    (fun capacity ->
      let p = Core.Open_process.make ?capacity (Sr.abku 2) ~n:6 in
      let start = Lv.all_in_one ~n:6 ~m:9 in
      let v = Mv.of_load_vector start in
      let s = Core.Open_process.sim p (Mv.of_load_vector start) in
      let g1 = rng ~seed:11 () and g2 = rng ~seed:11 () in
      for k = 1 to 2_000 do
        ignore (Core.Open_process.step_normalized p g1 v);
        Engine.Sim.step s g2;
        if not (Lv.equal (Mv.to_load_vector v) (Engine.Sim.observe s)) then
          Alcotest.failf "capacity %s: states differ after %d steps"
            (match capacity with None -> "none" | Some c -> string_of_int c)
            k
      done;
      Alcotest.(check int) "same draws"
        (Prng.Rng.int g1 1_000_000) (Prng.Rng.int g2 1_000_000))
    [ None; Some 12 ]

(* ---- Lemma 6.2 on the edge coupling ---- *)

let random_g_tilde_pair g ~n =
  (* y has two vertices at a common discrepancy w; x moves them to w+1
     and w-1: then x = y + e_l - 2e_{l+1} + e_{l+2} and Delta(x,y) = 1. *)
  let rec attempt () =
    let diffs = Array.make n 0 in
    (* Perturb some vertices in +-1 pairs to randomize the environment. *)
    for _ = 1 to n / 4 do
      let i, j = Prng.Rng.pair_distinct g n in
      if diffs.(i) < n - 2 && diffs.(j) > -(n - 2) then begin
        diffs.(i) <- diffs.(i) + 1;
        diffs.(j) <- diffs.(j) - 1
      end
    done;
    let i, j = Prng.Rng.pair_distinct g n in
    if diffs.(i) = diffs.(j) && abs diffs.(i) < n - 2 then begin
      let y = C.of_discrepancies diffs in
      let diffs_x = Array.copy diffs in
      diffs_x.(i) <- diffs_x.(i) + 1;
      diffs_x.(j) <- diffs_x.(j) - 1;
      let x = C.of_discrepancies diffs_x in
      match C.g_tilde_lambda x y with Some _ -> (x, y) | None -> attempt ()
    end
    else attempt ()
  in
  attempt ()

let test_lemma_6_2_contraction () =
  (* E[emd after] <= emd before for G-tilde-adjacent pairs, strictly in
     the mean (Lemma 6.2 gives 1 - (n choose 2)^-1 in the paper's metric;
     in the EMD surrogate we check non-expansion plus strict decrease in
     aggregate). *)
  let n = 8 in
  let coupled = C.coupled () in
  let g = rng ~seed:31 () in
  let before = ref 0 and after = ref 0 and reps = 20_000 in
  for _ = 1 to reps do
    let x, y = random_g_tilde_pair g ~n in
    let x', y' = coupled.Coupling.Coupled_chain.step g x y in
    before := !before + C.emd x y;
    after := !after + C.emd x' y'
  done;
  Alcotest.(check bool)
    (Printf.sprintf "mean emd %.4f -> %.4f"
       (float_of_int !before /. float_of_int reps)
       (float_of_int !after /. float_of_int reps))
    true
    (!after < !before)

let test_lemma_6_2_case7_coalesces () =
  (* The special case: phi and psi hit exactly the lambda / lambda+2
     classes while the other copy sees both in lambda+1.  Thanks to the
     bit flip the pair coalesces whichever b is drawn.  We detect the
     situation by outcome: once equal, stays equal; and distance never
     exceeds the G-tilde diameter 2 under the coupling from such pairs. *)
  let n = 6 in
  let coupled = C.coupled () in
  let g = rng ~seed:33 () in
  for _ = 1 to 2000 do
    let x, y = random_g_tilde_pair g ~n in
    let x', y' = coupled.Coupling.Coupled_chain.step g x y in
    let d = C.emd x' y' in
    if d > 4 then Alcotest.failf "distance blew up to %d" d
  done

(* A J-tilde_k adjacent pair (Definition 6.2): y holds a vertex at +h and
   one at -h (classes k-1 = 2h apart); x pushes them outward to +-(h+1),
   and every other vertex sits outside [-h, h] so the gap is empty in x.
   We fill the rest with pairs at +-(h+1). *)
let j_tilde_pair ~h ~pairs =
  let build special =
    let diffs =
      Array.concat
        [
          special;
          Array.init pairs (fun _ -> h + 1);
          Array.init pairs (fun _ -> -(h + 1));
        ]
    in
    C.of_discrepancies diffs
  in
  (build [| h + 1; -(h + 1) |], build [| h; -h |])

let test_lemma_6_3_non_expansion () =
  (* Lemma 6.3's strict contraction is stated in the paper's path metric;
     in the EMD surrogate the J-tilde_k coupling is exactly
     distance-preserving in expectation (gains and losses balance), so we
     check non-expansion here and, separately, that such pairs still
     coalesce — the two facts that matter for the mixing bound. *)
  let coupled = C.coupled () in
  List.iter
    (fun h ->
      let x, y = j_tilde_pair ~h ~pairs:2 in
      Alcotest.(check int) "pair at EMD 2" 2 (C.emd x y);
      let g = rng ~seed:(40 + h) () in
      let before = ref 0 and after = ref 0 and reps = 20_000 in
      for _ = 1 to reps do
        let x', y' = coupled.Coupling.Coupled_chain.step g x y in
        before := !before + C.emd x y;
        after := !after + C.emd x' y'
      done;
      Alcotest.(check bool)
        (Printf.sprintf "h=%d: mean EMD %.4f -> %.4f (non-expanding)" h
           (float_of_int !before /. float_of_int reps)
           (float_of_int !after /. float_of_int reps))
        true
        (!after <= !before);
      match
        Coupling.Coalescence.time coupled (rng ~seed:(50 + h) ()) x y
          ~limit:1_000_000
      with
      | Some _ -> ()
      | None -> Alcotest.failf "h=%d: J-tilde pair did not coalesce" h)
    [ 1; 2 ]

let qcheck_g_tilde_roundtrip =
  QCheck.Test.make ~name:"G-tilde pairs detected by g_tilde_lambda" ~count:200
    QCheck.(pair small_int (int_range 6 12))
    (fun (seed, n) ->
      let g = rng ~seed () in
      let x, y = random_g_tilde_pair g ~n in
      match C.g_tilde_lambda x y with
      | Some lambda ->
          let cx = C.counts x and cy = C.counts y in
          cx.(lambda) - cy.(lambda) = 1
          && cx.(lambda + 1) - cy.(lambda + 1) = -2
          && cx.(lambda + 2) - cy.(lambda + 2) = 1
      | None -> false)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("delayed bound values", test_delayed_bound_values);
      ("delayed bound monotone", test_delayed_bound_monotone);
      ("block coupling steps", test_block_coupling_steps);
      ("block beta estimate", test_block_beta_estimate);
      ("delayed coupling on scenario A", test_delayed_on_scenario_a);
      ("tv_between_samples", test_tv_between_samples_basic);
      ("tv_between_samples invalid", test_tv_between_samples_invalid);
      ("observable TV decays", test_observable_tv_decays);
      ("decay profile shape", test_decay_profile_shape);
      ("worst TV profile monotone", test_worst_tv_profile_monotone);
      ("relaxation: two-state closed form", test_relaxation_two_state);
      ("relaxation consistent with mixing", test_relaxation_consistent_with_mixing);
      ("profile crossing = mixing time", test_profile_crossing_equals_mixing_time);
      ("stationary expectation", test_stationary_expectation);
      ("exact E[max load] vs fluid", test_exact_stationary_max_load_close_to_fluid);
      ("open capacity normalized", test_open_capacity_normalized);
      ("open capacity invalid", test_open_capacity_invalid);
      ("bounded open coalesces", test_open_bounded_coalesces_faster);
      ("open sim = open stepper", test_open_sim_matches_stepper);
      ("Lemma 6.2 contraction (EMD)", test_lemma_6_2_contraction);
      ("Lemma 6.2 case 7 sanity", test_lemma_6_2_case7_coalesces);
      ("Lemma 6.3 pairs: non-expansion + coalescence", test_lemma_6_3_non_expansion);
    ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_g_tilde_roundtrip ]
