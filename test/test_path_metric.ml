(* Exact verification of Section 6 in the paper's own metric: build
   Definition 6.3's Δ on the enumerated state space, then check the
   contraction statements of Lemmas 6.2 and 6.3 as exact inequalities
   over the coupling's full transition law. *)

module C = Edgeorient.Class_chain
module P = Edgeorient.Path_metric

let metric_for n =
  let states = C.reachable ~from:(C.start ~n) in
  (states, P.build ~states)

let test_metric_basics () =
  let _, metric = metric_for 5 in
  Alcotest.(check int) "size" 9 (P.size metric);
  let x = C.start ~n:5 in
  Alcotest.(check int) "self distance" 0 (P.distance metric x x);
  Alcotest.(check bool) "diameter positive and finite" true
    (P.diameter metric > 0)

let test_metric_symmetric_and_triangle () =
  let states, metric = metric_for 5 in
  Array.iter
    (fun x ->
      Array.iter
        (fun y ->
          let dxy = P.distance metric x y in
          Alcotest.(check int) "symmetry" dxy (P.distance metric y x);
          Array.iter
            (fun z ->
              if P.distance metric x z > dxy + P.distance metric y z then
                Alcotest.fail "triangle inequality violated")
            states)
        states)
    states

let test_gamma_pairs_have_weight_distance () =
  (* A Gamma move of weight k puts the pair at distance <= k, and >= 1. *)
  List.iter
    (fun n ->
      let _, metric = metric_for n in
      List.iter
        (fun (x, y, k) ->
          let d = P.distance metric x y in
          if d > k || d < 1 then
            Alcotest.failf "n=%d: gamma weight %d but distance %d" n k d)
        (P.gamma_pairs metric))
    [ 4; 5; 6 ]

let test_g_tilde_pairs_at_distance_one () =
  let states, metric = metric_for 6 in
  let found = ref 0 in
  Array.iter
    (fun x ->
      Array.iter
        (fun y ->
          match C.g_tilde_lambda x y with
          | Some _ ->
              incr found;
              Alcotest.(check int) "distance 1" 1 (P.distance metric x y)
          | None -> ())
        states)
    states;
  Alcotest.(check bool) "some pairs" true (!found > 0)

(* The heart: E[Delta after] <= Delta(x, y) - (n choose 2)^-1 for every
   Gamma-adjacent pair, computed from the exact joint law of the
   coupling, in the exact metric. *)
let check_contraction n =
  let _, metric = metric_for n in
  let margin = 1. /. float_of_int (n * (n - 1) / 2) in
  let pairs = P.gamma_pairs metric in
  Alcotest.(check bool) "pairs exist" true (pairs <> []);
  List.iter
    (fun (x, y, _k) ->
      let d0 = float_of_int (P.distance metric x y) in
      let expected =
        List.fold_left
          (fun acc ((x', y'), p) ->
            acc +. (p *. float_of_int (P.distance metric x' y')))
          0.
          (C.coupled_exact_transitions x y)
      in
      if expected > d0 -. margin +. 1e-9 then
        Alcotest.failf
          "n=%d: E[Delta'] = %.6f > %.6f - %.6f for a Gamma pair" n expected
          d0 margin)
    pairs

let test_lemma_6_2_6_3_exact_n4 () = check_contraction 4
let test_lemma_6_2_6_3_exact_n5 () = check_contraction 5
let test_lemma_6_2_6_3_exact_n6 () = check_contraction 6

let test_coupled_transitions_stay_in_space () =
  let states, _ = metric_for 5 in
  let member s = Array.exists (fun s' -> C.equal s s') states in
  Array.iter
    (fun x ->
      Array.iter
        (fun y ->
          match C.j_tilde x y with
          | Some _ ->
              List.iter
                (fun ((x', y'), p) ->
                  if p > 0. && (not (member x') || not (member y')) then
                    Alcotest.fail "coupled successor left the state space")
                (C.coupled_exact_transitions x y)
          | None -> ())
        states)
    states

let test_coupled_exact_law_sums_to_one () =
  let x = C.adversarial ~n:5 and y = C.start ~n:5 in
  let total =
    List.fold_left (fun a (_, p) -> a +. p) 0. (C.coupled_exact_transitions x y)
  in
  Alcotest.(check bool) "mass 1" true (Float.abs (total -. 1.) < 1e-9)

let test_path_coupling_bound_from_exact_beta () =
  (* Close the loop: the exact per-pair contraction plus Lemma 3.1(1)
     reproduces a Corollary 6.4-style bound that the exact mixing time
     respects. *)
  let n = 5 in
  let states, metric = metric_for n in
  let beta =
    (* worst-case contraction ratio over Gamma pairs *)
    List.fold_left
      (fun worst (x, y, _) ->
        let d0 = float_of_int (P.distance metric x y) in
        let e =
          List.fold_left
            (fun acc ((x', y'), p) ->
              acc +. (p *. float_of_int (P.distance metric x' y')))
            0.
            (C.coupled_exact_transitions x y)
        in
        Float.max worst (e /. d0))
      0. (P.gamma_pairs metric)
  in
  Alcotest.(check bool) "beta < 1" true (beta < 1.);
  let bound =
    Theory.Bounds.path_coupling_case1 ~beta ~diameter:(P.diameter metric)
      ~eps:0.25
  in
  (* Same unified pipeline as bench/e08: reachable closure -> chain. *)
  let chain = C.exact_chain ~from:(C.start ~n) in
  Alcotest.(check int) "builder state space matches reachable" (Array.length states)
    (Markov.Exact.size chain);
  let tau = Markov.Exact.mixing_time ~eps:0.25 chain in
  Alcotest.(check bool)
    (Printf.sprintf "exact tau %d <= lemma bound %.1f" tau bound)
    true
    (float_of_int tau <= bound +. 1e-9)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("metric basics", test_metric_basics);
      ("metric symmetric + triangle", test_metric_symmetric_and_triangle);
      ("gamma pairs within weight", test_gamma_pairs_have_weight_distance);
      ("G-tilde pairs at distance 1", test_g_tilde_pairs_at_distance_one);
      ("Lemmas 6.2/6.3 exact, n=4", test_lemma_6_2_6_3_exact_n4);
      ("Lemmas 6.2/6.3 exact, n=5", test_lemma_6_2_6_3_exact_n5);
      ("Lemmas 6.2/6.3 exact, n=6", test_lemma_6_2_6_3_exact_n6);
      ("coupled successors in space", test_coupled_transitions_stay_in_space);
      ("coupled exact law mass", test_coupled_exact_law_sums_to_one);
      ("lemma bound covers exact tau", test_path_coupling_bound_from_exact_beta);
    ]
