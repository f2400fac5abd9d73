(* Tests for the related allocation processes the paper builds on:
   weighted jobs, the parallel collision protocol, and the exact edge
   chain. *)

module W = Core.Weighted
module C = Edgeorient.Class_chain

let rng ?(seed = 42) () = Prng.Rng.create ~seed ()

(* ---- weighted ---- *)

let test_weight_samples_positive () =
  let g = rng () in
  List.iter
    (fun dist ->
      for _ = 1 to 500 do
        let w = W.sample_weight g dist in
        if w <= 0. then Alcotest.failf "non-positive weight from %s" (W.dist_name dist)
      done)
    [
      W.Constant 2.;
      W.Uniform_unit;
      W.Exponential 1.;
      W.Pareto { alpha = 1.5; xmin = 1. };
    ]

let test_weight_means () =
  let g = rng () in
  let mean dist reps =
    let acc = ref 0. in
    for _ = 1 to reps do
      acc := !acc +. W.sample_weight g dist
    done;
    !acc /. float_of_int reps
  in
  Alcotest.(check (float 1e-9)) "constant" 2. (mean (W.Constant 2.) 100);
  let u = mean W.Uniform_unit 50_000 in
  Alcotest.(check bool) "uniform mean 1/2" true (Float.abs (u -. 0.5) < 0.02);
  let e = mean (W.Exponential 3.) 50_000 in
  Alcotest.(check bool) "exponential mean" true (Float.abs (e -. 3.) < 0.15);
  (* Pareto(alpha=3, xmin=1) has mean alpha/(alpha-1) = 1.5. *)
  let p = mean (W.Pareto { alpha = 3.; xmin = 1. }) 100_000 in
  Alcotest.(check bool) "pareto mean" true (Float.abs (p -. 1.5) < 0.1)

let test_weight_invalid () =
  let g = rng () in
  Alcotest.check_raises "bad constant"
    (Invalid_argument "Weighted: non-positive constant weight") (fun () ->
      ignore (W.sample_weight g (W.Constant 0.)));
  Alcotest.check_raises "bad pareto" (Invalid_argument "Weighted: bad Pareto")
    (fun () -> ignore (W.sample_weight g (W.Pareto { alpha = 0.; xmin = 1. })))

let test_weighted_system_conservation () =
  let g = rng () in
  let t = W.static_run g ~n:16 ~m:64 ~d:2 ~dist:W.Uniform_unit in
  Alcotest.(check int) "balls" 64 (W.num_balls t);
  let sum_loads = Array.init 16 (W.load t) |> Array.fold_left ( +. ) 0. in
  Alcotest.(check bool) "loads sum = total weight" true
    (Float.abs (sum_loads -. W.total_weight t) < 1e-9);
  for _ = 1 to 500 do
    W.dynamic_step t g ~d:2 ~dist:W.Uniform_unit
  done;
  Alcotest.(check int) "balls conserved" 64 (W.num_balls t);
  Alcotest.(check bool) "max >= avg" true
    (W.max_load t >= W.total_weight t /. 16.)

let test_weighted_removal_empties () =
  let g = rng () in
  let t = W.static_run g ~n:4 ~m:10 ~d:1 ~dist:(W.Constant 1.) in
  for _ = 1 to 10 do
    ignore (W.remove_uniform_ball t g)
  done;
  Alcotest.(check int) "empty" 0 (W.num_balls t);
  Alcotest.(check bool) "loads ~ 0" true (W.max_load t < 1e-9);
  Alcotest.check_raises "remove from empty"
    (Invalid_argument "Weighted.remove_uniform_ball: empty") (fun () ->
      ignore (W.remove_uniform_ball t g))

let test_weighted_constant_matches_unweighted () =
  (* With constant weight 1, the weighted system's max load has the same
     law as Bins + ABKU[d].  Compare medians. *)
  let reps = 30 and n = 1024 in
  let gw = rng ~seed:5 () and gb = rng ~seed:6 () in
  let med_w =
    Stats.Quantile.median
      (Array.init reps (fun _ ->
           let g = Prng.Rng.split gw in
           W.max_load (W.static_run g ~n ~m:n ~d:2 ~dist:(W.Constant 1.))))
  in
  let med_b =
    Stats.Quantile.median
      (Stats.Quantile.of_ints
         (Core.Static_process.max_load_samples (Core.Scheduling_rule.abku 2)
            gb ~n ~m:n ~reps))
  in
  Alcotest.(check bool)
    (Printf.sprintf "same ballpark: %.1f vs %.1f" med_w med_b)
    true
    (Float.abs (med_w -. med_b) <= 1.)

(* ---- parallel allocation ---- *)

let test_parallel_all_placed () =
  let g = rng () in
  let result = Core.Parallel_alloc.run g ~n:256 ~m:256 ~d:2 ~rounds:3 () in
  Alcotest.(check int) "all balls placed" 256
    (Array.fold_left ( + ) 0 result.loads);
  Alcotest.(check bool) "max consistent" true
    (result.max_load = Array.fold_left Stdlib.max 0 result.loads)

let test_parallel_zero_rounds_is_greedy_fallback () =
  let g = rng () in
  let result = Core.Parallel_alloc.run g ~n:64 ~m:64 ~d:2 ~rounds:0 () in
  Alcotest.(check int) "all via fallback" 64 result.fallback_balls;
  Alcotest.(check int) "no rounds used" 0 result.rounds_used

let test_parallel_rounds_reduce_fallback () =
  let g = rng ~seed:7 () in
  let fb rounds =
    let result = Core.Parallel_alloc.run g ~n:4096 ~m:4096 ~d:2 ~rounds () in
    result.fallback_balls
  in
  let f1 = fb 1 and f4 = fb 4 in
  Alcotest.(check bool)
    (Printf.sprintf "fallback shrinks: %d -> %d" f1 f4)
    true (f4 < f1 / 4)

let test_parallel_threshold_respected () =
  (* In a one-round run, any bin that accepted in the round holds at most
     the cap; fallback can exceed it only through greedy placement of
     leftovers.  With a huge cap everything places in round one. *)
  let g = rng () in
  let result =
    Core.Parallel_alloc.run g ~n:128 ~m:128 ~d:2 ~rounds:1
      ~threshold:(fun _ -> 1_000_000) ()
  in
  Alcotest.(check int) "no fallback" 0 result.fallback_balls;
  Alcotest.(check int) "one round" 1 result.rounds_used

let test_parallel_beats_sequential_d1 () =
  let g = rng ~seed:9 () in
  let par =
    Stats.Quantile.median
      (Array.init 7 (fun _ ->
           let g' = Prng.Rng.split g in
           float_of_int
             (Core.Parallel_alloc.run g' ~n:16384 ~m:16384 ~d:2 ~rounds:4 ())
               .max_load))
  in
  let seq =
    Stats.Quantile.median
      (Stats.Quantile.of_ints
         (Core.Static_process.max_load_samples (Core.Scheduling_rule.abku 1) g
            ~n:16384 ~m:16384 ~reps:7))
  in
  Alcotest.(check bool)
    (Printf.sprintf "parallel %.1f < sequential d=1 %.1f" par seq)
    true (par < seq)

let test_parallel_invalid () =
  let g = rng () in
  Alcotest.check_raises "bad d" (Invalid_argument "Parallel_alloc.run: d must be >= 1")
    (fun () -> ignore (Core.Parallel_alloc.run g ~n:4 ~m:4 ~d:0 ~rounds:1 ()))

(* ---- exact edge chain ---- *)

let test_edge_exact_transitions_sum () =
  let x = C.adversarial ~n:5 in
  let ts = C.exact_transitions x in
  let total = List.fold_left (fun a (_, p) -> a +. p) 0. ts in
  Alcotest.(check bool) "sums to 1" true (Float.abs (total -. 1.) < 1e-9);
  (* Self-loop mass at least 1/2 (the b = 0 branch). *)
  let self =
    List.fold_left (fun a (s, p) -> if C.equal s x then a +. p else a) 0. ts
  in
  Alcotest.(check bool) "lazy" true (self >= 0.5)

let test_edge_exact_matches_simulation () =
  let x = C.adversarial ~n:4 in
  let merged = Hashtbl.create 16 in
  List.iter
    (fun (s, p) ->
      Hashtbl.replace merged s
        (p +. Option.value ~default:0. (Hashtbl.find_opt merged s)))
    (C.exact_transitions x);
  let g = rng () in
  let counts = Hashtbl.create 16 in
  let reps = 40_000 in
  for _ = 1 to reps do
    let s = C.step g x in
    Hashtbl.replace counts s
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts s))
  done;
  Hashtbl.iter
    (fun s p ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts s) in
      let frac = float_of_int c /. float_of_int reps in
      if Float.abs (frac -. p) > 0.02 then
        Alcotest.failf "state freq %f vs exact %f" frac p)
    merged

let test_edge_coupled_marginal_matches_exact () =
  (* The Section-6 coupling's first marginal must follow the chain law
     even from a G-tilde-adjacent pair where the bit flip is active. *)
  let y = C.of_discrepancies [| 0; 0; 1; -1; 0 |] in
  let x = C.of_discrepancies [| 1; -1; 1; -1; 0 |] in
  (match C.g_tilde_lambda x y with
  | None -> Alcotest.fail "test pair not G-tilde adjacent"
  | Some _ -> ());
  let exact = Hashtbl.create 16 in
  List.iter
    (fun (s, p) ->
      Hashtbl.replace exact s
        (p +. Option.value ~default:0. (Hashtbl.find_opt exact s)))
    (C.exact_transitions x);
  let coupled = C.coupled () in
  let g = rng ~seed:44 () in
  let counts = Hashtbl.create 16 in
  let reps = 60_000 in
  for _ = 1 to reps do
    let x', _ = coupled.Coupling.Coupled_chain.step g x y in
    Hashtbl.replace counts x'
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts x'))
  done;
  Hashtbl.iter
    (fun s p ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts s) in
      let frac = float_of_int c /. float_of_int reps in
      if Float.abs (frac -. p) > 0.015 then
        Alcotest.failf "x-marginal freq %f vs exact %f" frac p)
    exact;
  (* And the second marginal likewise (the flipped bit must not bias it). *)
  let counts_y = Hashtbl.create 16 in
  let exact_y = Hashtbl.create 16 in
  List.iter
    (fun (s, p) ->
      Hashtbl.replace exact_y s
        (p +. Option.value ~default:0. (Hashtbl.find_opt exact_y s)))
    (C.exact_transitions y);
  for _ = 1 to reps do
    let _, y' = coupled.Coupling.Coupled_chain.step g x y in
    Hashtbl.replace counts_y y'
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts_y y'))
  done;
  Hashtbl.iter
    (fun s p ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts_y s) in
      let frac = float_of_int c /. float_of_int reps in
      if Float.abs (frac -. p) > 0.015 then
        Alcotest.failf "y-marginal freq %f vs exact %f" frac p)
    exact_y

let test_edge_reachable_contains_start_and_closes () =
  let start = C.start ~n:5 in
  let states = C.reachable ~from:start in
  Alcotest.(check bool) "start included" true
    (Array.exists (fun s -> C.equal s start) states);
  (* Closure: every successor of every state is in the set. *)
  let member s = Array.exists (fun s' -> C.equal s s') states in
  Array.iter
    (fun s ->
      List.iter
        (fun (s', p) -> if p > 0. && not (member s') then
            Alcotest.fail "reachable set not closed")
        (C.exact_transitions s))
    states

let test_edge_exact_mixing_below_bounds () =
  List.iter
    (fun n ->
      let states = C.reachable ~from:(C.start ~n) in
      let chain =
        Markov.Exact_builder.build
          (Markov.Exact_builder.enumerated states)
          ~transitions:C.exact_transitions
      in
      let tau = Markov.Exact.mixing_time ~eps:0.25 ~max_t:100_000 chain in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: tau %d below bounds" n tau)
        true
        (float_of_int tau <= Theory.Bounds.theorem2 ~n
        && float_of_int tau <= Theory.Bounds.corollary64 ~n ~eps:0.25))
    [ 4; 5; 6 ]

let test_edge_exact_stationary_favours_balance () =
  let n = 6 in
  let states = C.reachable ~from:(C.start ~n) in
  let chain =
    Markov.Exact_builder.build
      (Markov.Exact_builder.enumerated states)
      ~transitions:C.exact_transitions
  in
  let pi = Markov.Exact.stationary chain in
  (* The most likely states should have small unfairness. *)
  let best = ref 0 in
  Array.iteri (fun i p -> if p > pi.(!best) then best := i) pi;
  let top = Markov.Exact.state chain !best in
  Alcotest.(check bool) "top state is fair-ish" true (C.unfairness top <= 2)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("weight samples positive", test_weight_samples_positive);
      ("weight means", test_weight_means);
      ("weight invalid", test_weight_invalid);
      ("weighted system conservation", test_weighted_system_conservation);
      ("weighted removal empties", test_weighted_removal_empties);
      ("weighted const = unweighted", test_weighted_constant_matches_unweighted);
      ("parallel all placed", test_parallel_all_placed);
      ("parallel zero rounds", test_parallel_zero_rounds_is_greedy_fallback);
      ("parallel rounds reduce fallback", test_parallel_rounds_reduce_fallback);
      ("parallel threshold respected", test_parallel_threshold_respected);
      ("parallel beats sequential d=1", test_parallel_beats_sequential_d1);
      ("parallel invalid", test_parallel_invalid);
      ("edge exact transitions sum", test_edge_exact_transitions_sum);
      ("edge exact law = simulation", test_edge_exact_matches_simulation);
      ("edge coupling marginals exact", test_edge_coupled_marginal_matches_exact);
      ("edge reachable closed", test_edge_reachable_contains_start_and_closes);
      ("edge exact mixing below bounds", test_edge_exact_mixing_below_bounds);
      ("edge stationary favours balance", test_edge_exact_stationary_favours_balance);
    ]
