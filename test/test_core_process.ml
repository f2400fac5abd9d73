(* Tests for the dynamic processes, their exact transition laws, and the
   paper's coupling lemmas (Lemmas 3.3, 3.4, 4.1; Corollary 4.2;
   Claims 5.1-5.3). *)

module Dp = Core.Dynamic_process
module Sr = Core.Scheduling_rule
module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector

let rng ?(seed = 42) () = Prng.Rng.create ~seed ()

let random_vector g ~n ~m =
  let a = Array.make n 0 in
  for _ = 1 to m do
    let i = Prng.Rng.int g n in
    a.(i) <- a.(i) + 1
  done;
  Lv.of_array a

let all_processes ~n =
  [
    Dp.make Core.Scenario.A (Sr.abku 2) ~n;
    Dp.make Core.Scenario.B (Sr.abku 2) ~n;
    Dp.make Core.Scenario.A (Sr.adap (Core.Adaptive.of_list [ 1; 2; 3 ])) ~n;
    Dp.make Core.Scenario.B (Sr.adap (Core.Adaptive.of_list [ 1; 2; 3 ])) ~n;
  ]

let test_names () =
  Alcotest.(check string) "Id" "Id-ABKU[2]"
    (Dp.name (Dp.make Core.Scenario.A (Sr.abku 2) ~n:4));
  Alcotest.(check string) "Ib" "Ib-ABKU[3]"
    (Dp.name (Dp.make Core.Scenario.B (Sr.abku 3) ~n:4))

let test_step_preserves_total_and_dim () =
  let g = rng () in
  List.iter
    (fun p ->
      let v = Mv.of_load_vector (random_vector g ~n:6 ~m:10) in
      for _ = 1 to 100 do
        Dp.step_in_place p g v
      done;
      Alcotest.(check int) "total" 10 (Mv.total v);
      Alcotest.(check int) "dim" 6 (Mv.dim v);
      Alcotest.(check bool) "normalized" true
        (Lv.is_normalized (Array.copy (Mv.unsafe_loads v))))
    (all_processes ~n:6)

let test_chain_agrees_with_in_place () =
  (* The functional chain and the in-place step use the same randomness
     path, so from identical seeds they produce identical trajectories. *)
  List.iter
    (fun p ->
      let v0 = Lv.of_array [| 5; 3; 1; 0 |] in
      let g1 = rng ~seed:9 () and g2 = rng ~seed:9 () in
      let step = Dp.chain p in
      let via_chain = ref v0 in
      for _ = 1 to 50 do
        via_chain := step g1 !via_chain
      done;
      let mv = Mv.of_load_vector v0 in
      for _ = 1 to 50 do
        Dp.step_in_place p g2 mv
      done;
      Alcotest.(check bool) "same trajectory" true
        (Lv.equal !via_chain (Mv.to_load_vector mv)))
    (all_processes ~n:4)

(* The count-vector backend consumes the generator in exactly the order
   of the array backend, so from equal seeds the two trajectories must
   agree state-for-state — not just in law. *)
let qcheck_counts_trace_bit_identical =
  QCheck.Test.make ~name:"count-vector stepper = array stepper (trace)"
    ~count:120
    QCheck.(triple small_int (int_range 2 9) (int_range 2 25))
    (fun (seed, n, m) ->
      List.for_all
        (fun p ->
          let g = rng ~seed () in
          let v0 = random_vector g ~n ~m in
          let g1 = rng ~seed:(seed + 1) () and g2 = rng ~seed:(seed + 1) () in
          let mv = Mv.of_load_vector v0 in
          let cv = Loadvec.Count_vector.of_load_vector v0 in
          let ok = ref true in
          for _ = 1 to 60 do
            let pa = Dp.step (module Core.Load_state.Array) p g1 mv in
            let pc = Dp.step (module Core.Load_state.Counts) p g2 cv in
            if pa <> pc then ok := false;
            if
              not
                (Lv.equal (Mv.to_load_vector mv)
                   (Loadvec.Count_vector.to_load_vector cv))
            then ok := false
          done;
          !ok)
        (all_processes ~n))

(* Same contract through the Engine.Sim adapters (covers reset/observe/
   probe of the count backends). *)
let test_sim_repr_counts_trace () =
  List.iter
    (fun p ->
      let v0 = Lv.of_array [| 4; 3; 2; 1; 0; 0 |] in
      let sim_a = Dp.sim_repr ~repr:Core.Repr.Array_backed p v0 in
      let sim_c = Dp.sim_repr ~repr:Core.Repr.Count_backed p v0 in
      let g1 = rng ~seed:31 () and g2 = rng ~seed:31 () in
      for i = 1 to 40 do
        Engine.Sim.step sim_a g1;
        Engine.Sim.step sim_c g2;
        if Engine.Sim.probe sim_a <> Engine.Sim.probe sim_c then
          Alcotest.failf "%s: probes diverge at step %d" (Dp.name p) i;
        if not (Lv.equal (Engine.Sim.observe sim_a) (Engine.Sim.observe sim_c))
        then Alcotest.failf "%s: states diverge at step %d" (Dp.name p) i
      done;
      (* Reset rewinds both backends to the same state. *)
      Engine.Sim.reset sim_a v0;
      Engine.Sim.reset sim_c v0;
      Alcotest.(check bool) "reset state equal" true
        (Lv.equal (Engine.Sim.observe sim_a) (Engine.Sim.observe sim_c)))
    (all_processes ~n:6)

(* The sampler builds its cutoff table lazily, so a reset must drop it:
   a stale table would draw from the old state's cutoffs.  From the same
   seed, a sampled sim stepped and then reset to v0 replays a fresh
   sampled sim started at v0. *)
let test_sampled_reset_replays_fresh () =
  List.iter
    (fun scenario ->
      let p = Dp.make scenario (Sr.abku 2) ~n:6 in
      let v0 = Lv.of_array [| 4; 3; 2; 1; 0; 0 |] in
      let sampled () = Dp.sim_repr ~repr:Core.Repr.Count_sampled p v0 in
      let trace s =
        let g = rng ~seed:77 () in
        List.init 40 (fun _ ->
            Engine.Sim.step s g;
            Engine.Sim.observe s)
      in
      let reused = sampled () in
      Engine.Sim.iterate reused (rng ~seed:5 ()) 25;
      Engine.Sim.reset reused v0;
      if not (List.equal Lv.equal (trace (sampled ())) (trace reused)) then
        Alcotest.failf "%s: a reset sampled sim diverges from a fresh one"
          (Dp.name p))
    [ Core.Scenario.A; Core.Scenario.B ]

(* The cutoff table's insertion law equals the closed-form ABKU rank law
   grouped by load class — exactly, not statistically — and stays exact
   under incremental maintenance across random elementary moves. *)
let qcheck_abku_table_law_exact =
  QCheck.Test.make ~name:"Abku_table law = rank_distribution by class"
    ~count:200
    QCheck.(
      quad small_int (int_range 2 9) (int_range 2 25) (int_range 1 4))
    (fun (seed, n, m, d) ->
      let g = rng ~seed () in
      let v0 = random_vector g ~n ~m in
      let cv = Loadvec.Count_vector.of_load_vector v0 in
      let table =
        Sr.Abku_table.create ~d ~n
          ~max_level:(Loadvec.Count_vector.max_load cv)
          ~count:(Loadvec.Count_vector.count cv)
      in
      let p = Dp.make Core.Scenario.A (Sr.abku d) ~n in
      let agree () =
        let rank_law =
          Sr.rank_distribution (Sr.abku d)
            ~loads:(Lv.to_array (Loadvec.Count_vector.to_load_vector cv))
        in
        let level_law = Sr.Abku_table.level_distribution table in
        (* Fold the rank law into per-level masses. *)
        let loads = Lv.to_array (Loadvec.Count_vector.to_load_vector cv) in
        let by_level = Array.make (Array.length level_law) 0. in
        Array.iteri
          (fun j pr ->
            if loads.(j) < Array.length by_level then
              by_level.(loads.(j)) <- by_level.(loads.(j)) +. pr)
          rank_law;
        let ok = ref true in
        Array.iteri
          (fun l pr ->
            if Float.abs (pr -. by_level.(l)) > 1e-12 then ok := false)
          level_law;
        !ok
      in
      let ok = ref (agree ()) in
      (* Drive the state through real steps, maintaining the table
         through its on_loss/on_gain hooks, and recheck exactness. *)
      for _ = 1 to 15 do
        let u = Prng.Rng.float g in
        let level = Core.Scenario.remove_level (Dp.scenario p) cv ~u in
        Loadvec.Count_vector.shift_down cv level;
        Sr.Abku_table.on_loss table level;
        let dest = Sr.Abku_table.draw_level table g in
        Loadvec.Count_vector.shift_up cv dest;
        Sr.Abku_table.on_gain table (dest + 1);
        if not (agree ()) then ok := false
      done;
      !ok)

let test_exact_transitions_sum_to_one () =
  let g = rng () in
  List.iter
    (fun p ->
      for _ = 1 to 20 do
        let v = random_vector g ~n:4 ~m:6 in
        let ts = Dp.exact_transitions p v in
        let total = List.fold_left (fun a (_, pr) -> a +. pr) 0. ts in
        if Float.abs (total -. 1.) > 1e-9 then
          Alcotest.failf "%s: transitions sum to %f" (Dp.name p) total;
        List.iter
          (fun (s, pr) ->
            if pr < 0. then Alcotest.fail "negative probability";
            Alcotest.(check int) "successor total" 6 (Lv.total s))
          ts
      done)
    (all_processes ~n:4)

let test_exact_matches_simulation () =
  (* Empirical one-step frequencies match the exact law. *)
  let g = rng () in
  List.iter
    (fun p ->
      let v = Lv.of_array [| 3; 2; 1; 0 |] in
      let ts = Dp.exact_transitions p v in
      let merged = Hashtbl.create 16 in
      List.iter
        (fun (s, pr) ->
          Hashtbl.replace merged s
            (pr +. Option.value ~default:0. (Hashtbl.find_opt merged s)))
        ts;
      let counts = Hashtbl.create 16 in
      let reps = 30_000 in
      let step = Dp.chain p in
      for _ = 1 to reps do
        let s = step g v in
        Hashtbl.replace counts s
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts s))
      done;
      Hashtbl.iter
        (fun s pr ->
          let c = Option.value ~default:0 (Hashtbl.find_opt counts s) in
          let frac = float_of_int c /. float_of_int reps in
          if Float.abs (frac -. pr) > 0.02 then
            Alcotest.failf "%s: state freq %f vs exact %f" (Dp.name p) frac pr)
        merged;
      (* No simulated state outside the exact support. *)
      Hashtbl.iter
        (fun s _ ->
          if not (Hashtbl.mem merged s) then
            Alcotest.failf "%s: simulated state outside exact support" (Dp.name p))
        counts)
    (all_processes ~n:4)

let test_exact_chain_is_stochastic () =
  let p = Dp.make Core.Scenario.A (Sr.abku 2) ~n:3 in
  let states = Markov.Partition_space.enumerate ~n:3 ~m:4 in
  let chain =
    Markov.Exact_builder.build
      (Markov.Exact_builder.enumerated states)
      ~transitions:(Dp.exact_transitions p)
  in
  Alcotest.(check bool) "stochastic" true
    (Markov.Blocked_csr.is_stochastic (Markov.Exact.blocked chain))

(* Lemma 3.3: shared-probe insertion never increases the L1 distance. *)
let qcheck_lemma_3_3 =
  QCheck.Test.make ~name:"Lemma 3.3: right-oriented insertion contracts" ~count:400
    QCheck.(
      quad small_int (int_range 2 8) (int_range 1 20) (int_range 1 3))
    (fun (seed, n, m, d) ->
      let g = rng ~seed () in
      let v = random_vector g ~n ~m in
      let u = random_vector g ~n ~m in
      let rule =
        if d = 3 then Sr.adap (Core.Adaptive.of_list [ 1; 2; 2; 3 ])
        else Sr.abku d
      in
      let probe = Core.Probe.create g ~n in
      let rv, _ = Sr.choose_rank rule ~loads:(Lv.to_array v) ~probe in
      let ru, _ = Sr.choose_rank rule ~loads:(Lv.to_array u) ~probe in
      let v' = Lv.oplus v rv and u' = Lv.oplus u ru in
      Lv.l1_distance v' u' <= Lv.l1_distance v u)

(* Lemma 3.4 / Definition 3.4: D is right-oriented with Phi = identity.
   Pointwise check on random probe sequences: if D(v,b) = i < D(u,b)
   then u_i > v_i, and if D(v,b) > i = D(u,b) then v_i < u_i.
   (0-based translation of the paper's conditions.) *)
let qcheck_lemma_3_4_right_oriented =
  QCheck.Test.make ~name:"Lemma 3.4: D is right-oriented" ~count:400
    QCheck.(quad small_int (int_range 2 8) (int_range 1 20) (int_range 1 3))
    (fun (seed, n, m, d) ->
      let g = rng ~seed () in
      let v = random_vector g ~n ~m in
      let u = random_vector g ~n ~m in
      let rule =
        if d = 3 then Sr.adap (Core.Adaptive.of_list [ 1; 1; 2; 3 ])
        else Sr.abku d
      in
      let probe = Core.Probe.create g ~n in
      let av = Lv.to_array v and au = Lv.to_array u in
      let rv, _ = Sr.choose_rank rule ~loads:av ~probe in
      let ru, _ = Sr.choose_rank rule ~loads:au ~probe in
      (if rv < ru then au.(rv) > av.(rv) else true)
      && if rv > ru then av.(ru) > au.(ru) else true)

let test_right_oriented_api () =
  let g = rng ~seed:55 () in
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (Sr.name rule ^ " passes spot check")
        true
        (Core.Right_oriented.spot_check rule g ~n:8 ~m:20 ~trials:2_000))
    [
      Sr.abku 1;
      Sr.abku 2;
      Sr.abku 4;
      Sr.adap (Core.Adaptive.of_list [ 1; 2; 3 ]);
      Sr.adap (Core.Adaptive.linear ());
      Sr.adap (Core.Adaptive.doubling ());
    ]

let test_right_oriented_pointwise () =
  let g = rng () in
  let v = Lv.of_array [| 3; 2; 1; 0 |] and u = Lv.of_array [| 2; 2; 1; 1 |] in
  for _ = 1 to 200 do
    let probe = Core.Probe.create g ~n:4 in
    Alcotest.(check bool) "definition holds" true
      (Core.Right_oriented.holds_pointwise (Sr.abku 2) ~v ~u ~probe);
    let probe = Core.Probe.create g ~n:4 in
    Alcotest.(check bool) "contraction holds" true
      (Core.Right_oriented.contraction_holds (Sr.abku 2) ~v ~u ~probe)
  done;
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Right_oriented.holds_pointwise: dimension mismatch")
    (fun () ->
      ignore
        (Core.Right_oriented.holds_pointwise (Sr.abku 1) ~v
           ~u:(Lv.of_array [| 1 |])
           ~probe:(Core.Probe.create g ~n:4)))

let adjacent_pair_ok (v, u) =
  match Core.Coupled.find_adjacent_offsets v u with
  | Some (l, d) -> l < d && Lv.delta v u = 1
  | None -> false

let test_adjacent_pair_generator () =
  let g = rng () in
  for _ = 1 to 200 do
    let pair = Core.Coupled.adjacent_pair g ~n:5 ~m:8 in
    if not (adjacent_pair_ok pair) then Alcotest.fail "bad adjacent pair"
  done

let test_find_adjacent_offsets () =
  let u = Lv.of_array [| 3; 2; 1 |] in
  let v = Lv.of_array [| 4; 2; 0 |] in
  Alcotest.(check (option (pair int int))) "offsets" (Some (0, 2))
    (Core.Coupled.find_adjacent_offsets v u);
  Alcotest.(check (option (pair int int))) "wrong orientation" None
    (Core.Coupled.find_adjacent_offsets u v);
  Alcotest.(check (option (pair int int))) "same state" None
    (Core.Coupled.find_adjacent_offsets u u)

(* Lemma 4.1: the scenario-A coupling never increases Delta on adjacent
   pairs. *)
let qcheck_lemma_4_1 =
  QCheck.Test.make ~name:"Lemma 4.1: scenario-A coupling contracts" ~count:400
    QCheck.(triple small_int (int_range 2 7) (int_range 2 15))
    (fun (seed, n, m) ->
      let g = rng ~seed () in
      let v, u = Core.Coupled.adjacent_pair g ~n ~m in
      let p = Dp.make Core.Scenario.A (Sr.abku 2) ~n in
      let v', u' = Core.Coupled.paper_step p g v u in
      Lv.delta v' u' <= 1)

(* Claims 5.1-5.2: the scenario-B coupling keeps E[Delta'] <= 1 but may
   reach 2; here we check the support: Delta' is in {0, 1, 2}. *)
let qcheck_scenario_b_delta_support =
  QCheck.Test.make ~name:"Claims 5.1-5.2: scenario-B Delta' in {0,1,2}" ~count:400
    QCheck.(triple small_int (int_range 2 7) (int_range 2 15))
    (fun (seed, n, m) ->
      let g = rng ~seed () in
      let v, u = Core.Coupled.adjacent_pair g ~n ~m in
      let p = Dp.make Core.Scenario.B (Sr.abku 2) ~n in
      let v', u' = Core.Coupled.paper_step p g v u in
      let d = Lv.delta v' u' in
      d >= 0 && d <= 2)

(* Corollary 4.2: E[Delta'] <= 1 - 1/m for the scenario-A coupling.
   Statistical check with margin. *)
let test_corollary_4_2 () =
  let n = 5 and m = 10 in
  let p = Dp.make Core.Scenario.A (Sr.abku 2) ~n in
  let c = Core.Coupled.paper_coupling p in
  let rngm = rng ~seed:123 () in
  let beta, _alpha =
    Coupling.Path_coupling.beta_estimate ~reps:40_000 ~rng:rngm c
      ~pair:(fun g -> Core.Coupled.adjacent_pair g ~n ~m)
  in
  let bound = 1. -. (1. /. float_of_int m) in
  Alcotest.(check bool)
    (Printf.sprintf "beta %.4f <= %.4f (+margin)" beta bound)
    true
    (beta <= bound +. 0.01)

(* Claim analysis for scenario B: E[Delta'] <= 1 and
   Pr[Delta' <> 1] >= 1/(2n) (the paper shows >= 1/s >= 1/n up to
   constants; we check a relaxed version). *)
let test_claim_5_3_ingredients () =
  let n = 5 and m = 10 in
  let p = Dp.make Core.Scenario.B (Sr.abku 2) ~n in
  let c = Core.Coupled.paper_coupling p in
  let rngm = rng ~seed:321 () in
  let beta, alpha =
    Coupling.Path_coupling.beta_estimate ~reps:40_000 ~rng:rngm c
      ~pair:(fun g -> Core.Coupled.adjacent_pair g ~n ~m)
  in
  Alcotest.(check bool)
    (Printf.sprintf "E[Delta'] = %.4f <= 1 (+margin)" beta)
    true (beta <= 1.01);
  Alcotest.(check bool)
    (Printf.sprintf "Pr[Delta' <> 1] = %.4f >= 1/(2n)" alpha)
    true
    (alpha >= 1. /. (2. *. float_of_int n))

(* The paper coupling is a faithful coupling: each marginal follows the
   chain law.  Check the first marginal's one-step distribution from a
   fixed pair against exact_transitions. *)
let test_paper_coupling_faithful_marginals () =
  let n = 4 in
  List.iter
    (fun sc ->
      let p = Dp.make sc (Sr.abku 2) ~n in
      let u = Lv.of_array [| 3; 2; 1; 0 |] in
      let v = Lv.oplus (Lv.ominus u 2) 0 in
      (* v = u + e_lambda - e_delta for some offsets *)
      if Lv.delta v u = 1 then begin
        let exact = Hashtbl.create 16 in
        List.iter
          (fun (s, pr) ->
            Hashtbl.replace exact s
              (pr +. Option.value ~default:0. (Hashtbl.find_opt exact s)))
          (Dp.exact_transitions p v);
        let g = rng ~seed:7 () in
        let counts = Hashtbl.create 16 in
        let reps = 40_000 in
        for _ = 1 to reps do
          let v', _ = Core.Coupled.paper_step p g v u in
          Hashtbl.replace counts v'
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts v'))
        done;
        Hashtbl.iter
          (fun s pr ->
            let c = Option.value ~default:0 (Hashtbl.find_opt counts s) in
            let frac = float_of_int c /. float_of_int reps in
            if Float.abs (frac -. pr) > 0.02 then
              Alcotest.failf "scenario %s: marginal freq %f vs exact %f"
                (Core.Scenario.name sc) frac pr)
          exact
      end)
    [ Core.Scenario.A; Core.Scenario.B ]

let test_paper_step_invalid () =
  let p = Dp.make Core.Scenario.A (Sr.abku 2) ~n:3 in
  let g = rng () in
  let v = Lv.of_array [| 4; 0; 0 |] and u = Lv.of_array [| 2; 1; 1 |] in
  Alcotest.check_raises "not adjacent"
    (Invalid_argument "Coupled.paper_step: states not adjacent") (fun () ->
      ignore (Core.Coupled.paper_step p g v u))

(* Monotone coupling: coalescence of the two extremal states and
   preservation of totals. *)
let test_monotone_coupling_coalesces () =
  List.iter
    (fun p ->
      let n = 6 and m = 6 in
      let c = Core.Coupled.monotone p in
      let g = rng ~seed:99 () in
      let x = Mv.of_load_vector (Lv.all_in_one ~n ~m) in
      let y = Mv.of_load_vector (Lv.uniform ~n ~m) in
      match Coupling.Coalescence.time c g x y ~limit:100_000 with
      | Some t -> Alcotest.(check bool) "positive" true (t > 0)
      | None -> Alcotest.failf "%s did not coalesce" (Dp.name p))
    (all_processes ~n:6)

let test_monotone_coupling_distance_never_negative () =
  let p = Dp.make Core.Scenario.B (Sr.abku 2) ~n:5 in
  let c = Core.Coupled.monotone p in
  let g = rng ~seed:17 () in
  let x = Mv.of_load_vector (Lv.all_in_one ~n:5 ~m:9) in
  let y = Mv.of_load_vector (Lv.uniform ~n:5 ~m:9) in
  let trace = Coupling.Coalescence.trace_distance c g x y ~every:1 ~limit:500 in
  List.iter (fun (_, d) -> if d < 0 then Alcotest.fail "negative distance") trace

(* Refilling a cutoff table in place from new counts gives the table a
   fresh [create] builds from them: the same level law, and the same
   draws while both are maintained through the same moves. *)
let qcheck_abku_table_refill_equals_create =
  QCheck.Test.make ~name:"Abku_table refill = create" ~count:200
    QCheck.(
      quad small_int (int_range 2 9) (pair (int_range 2 25) (int_range 2 25))
        (int_range 1 4))
    (fun (seed, n, (m0, m1), d) ->
      let module Cv = Loadvec.Count_vector in
      let g = rng ~seed () in
      let table_of cv =
        Sr.Abku_table.create ~d ~n ~max_level:(Cv.max_load cv)
          ~count:(Cv.count cv)
      in
      let cv = Cv.of_load_vector (random_vector g ~n ~m:m0) in
      let refilled = table_of cv in
      Cv.set_from_load_vector cv (random_vector g ~n ~m:m1);
      Sr.Abku_table.refill refilled ~max_level:(Cv.max_load cv)
        ~count:(Cv.count cv);
      let fresh = table_of cv in
      let same () =
        Sr.Abku_table.level_distribution refilled
        = Sr.Abku_table.level_distribution fresh
      in
      let ok = ref (same ()) in
      let p = Dp.make Core.Scenario.A (Sr.abku d) ~n in
      let g' = Prng.Rng.copy g in
      for _ = 1 to 15 do
        let level =
          Core.Scenario.remove_level (Dp.scenario p) cv ~u:(Prng.Rng.float g)
        in
        ignore (Prng.Rng.float g');
        Cv.shift_down cv level;
        Sr.Abku_table.on_loss refilled level;
        Sr.Abku_table.on_loss fresh level;
        let dest = Sr.Abku_table.draw_level refilled g in
        if Sr.Abku_table.draw_level fresh g' <> dest then ok := false;
        Cv.shift_up cv dest;
        Sr.Abku_table.on_gain refilled (dest + 1);
        Sr.Abku_table.on_gain fresh (dest + 1);
        if not (same ()) then ok := false
      done;
      !ok)

(* Draw-order parity of the monotone coupling with the shared-Probe
   step it replaced (test/probe_coupling.ml): from a random start pair,
   50 joint steps leave both implementations in the same pair, and their
   generators at the same point of the stream.  Under ADAP the copies
   probe different counts, and the lockstep loop ends either way round;
   the run counts the steps where each copy probed further and requires
   both orders to have occurred. *)
let x_probed_further = ref 0
let y_probed_further = ref 0

let qcheck_monotone_matches_probe_reference =
  let rules =
    [| Sr.abku 1; Sr.abku 2; Sr.abku 3;
       Sr.adap (Core.Adaptive.of_list [ 1; 2; 2; 3 ]) |]
  in
  QCheck.Test.make ~name:"monotone coupling = shared-Probe reference"
    ~count:300
    QCheck.(
      quad (int_range 1 12) (int_range 1 30)
        (pair bool (int_range 0 (Array.length rules - 1)))
        (pair small_int small_int))
    (fun (n, m, (scenario_b, r), (start_seed, seed)) ->
      let sc = if scenario_b then Core.Scenario.B else Core.Scenario.A in
      let p = Dp.make sc rules.(r) ~n in
      let g0 = rng ~seed:start_seed () in
      let v = random_vector g0 ~n ~m and u = random_vector g0 ~n ~m in
      let x = Mv.of_load_vector v and y = Mv.of_load_vector u in
      let x' = Mv.of_load_vector v and y' = Mv.of_load_vector u in
      let c = Core.Coupled.monotone p in
      let g = rng ~seed () and g' = rng ~seed () in
      let ok = ref true in
      for _ = 1 to 50 do
        ignore (c.Coupling.Coupled_chain.step g x y);
        let px, py = Probe_coupling.step p g' x' y' in
        if px > py then incr x_probed_further;
        if py > px then incr y_probed_further;
        if not (Mv.equal x x' && Mv.equal y y') then ok := false
      done;
      !ok && Prng.Rng.bits64 g = Prng.Rng.bits64 g')

let monotone_matches_probe_reference =
  let name, speed, run =
    QCheck_alcotest.to_alcotest qcheck_monotone_matches_probe_reference
  in
  ( name,
    speed,
    fun () ->
      x_probed_further := 0;
      y_probed_further := 0;
      run ();
      if !x_probed_further = 0 || !y_probed_further = 0 then
        Alcotest.failf "ADAP steps where x / y probed further: %d / %d"
          !x_probed_further !y_probed_further )

(* The class-level law against the per-rank law it replaced
   (test/per_rank_law.ml): merged, both put the same mass on the same
   successors, and the class-level list repeats no successor but the
   state itself (once per removal class). *)
let qcheck_exact_law_matches_per_rank =
  let rules =
    [| Sr.abku 1; Sr.abku 2; Sr.abku 3;
       Sr.adap (Core.Adaptive.of_list [ 1; 2; 2; 3 ]) |]
  in
  let merged law =
    let h = Hashtbl.create 16 in
    List.iter
      (fun (s, p) ->
        Hashtbl.replace h s
          (p +. Option.value ~default:0. (Hashtbl.find_opt h s)))
      law;
    h
  in
  QCheck.Test.make ~name:"exact law by class = per-rank law" ~count:500
    QCheck.(
      quad (int_range 1 8) (int_range 1 12)
        (pair bool (int_range 0 (Array.length rules - 1)))
        small_int)
    (fun (n, m, (scenario_b, r), seed) ->
      let sc = if scenario_b then Core.Scenario.B else Core.Scenario.A in
      let p = Dp.make sc rules.(r) ~n in
      let v = random_vector (rng ~seed ()) ~n ~m in
      let law = Dp.exact_transitions p v in
      let by_class = merged law in
      let per_rank = merged (Per_rank_law.exact_transitions p v) in
      let seen = Hashtbl.create 16 in
      let repeats_only_self =
        List.for_all
          (fun (s, _) ->
            let fresh = not (Hashtbl.mem seen s) in
            Hashtbl.replace seen s ();
            fresh || Lv.equal s v)
          law
      in
      repeats_only_self
      && Hashtbl.length by_class = Hashtbl.length per_rank
      && Hashtbl.fold
           (fun s q ok ->
             ok
             &&
             match Hashtbl.find_opt per_rank s with
             | Some q' -> Float.abs (q -. q') <= 1e-15
             | None -> false)
           by_class true)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("process names", test_names);
      ("step preserves total/dim", test_step_preserves_total_and_dim);
      ("chain = in-place step", test_chain_agrees_with_in_place);
      ("sim_repr counts trace", test_sim_repr_counts_trace);
      ("exact transitions sum to 1", test_exact_transitions_sum_to_one);
      ("exact law matches simulation", test_exact_matches_simulation);
      ("exact chain stochastic", test_exact_chain_is_stochastic);
      ("right-oriented spot checks", test_right_oriented_api);
      ("right-oriented pointwise", test_right_oriented_pointwise);
      ("adjacent pair generator", test_adjacent_pair_generator);
      ("find_adjacent_offsets", test_find_adjacent_offsets);
      ("Corollary 4.2 (beta <= 1 - 1/m)", test_corollary_4_2);
      ("Claim 5.3 ingredients", test_claim_5_3_ingredients);
      ("paper coupling faithful marginals", test_paper_coupling_faithful_marginals);
      ("paper step invalid", test_paper_step_invalid);
      ("monotone coupling coalesces", test_monotone_coupling_coalesces);
      ("monotone distance non-negative", test_monotone_coupling_distance_never_negative);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_counts_trace_bit_identical;
        qcheck_abku_table_law_exact;
        qcheck_lemma_3_3;
        qcheck_lemma_3_4_right_oriented;
        qcheck_lemma_4_1;
        qcheck_scenario_b_delta_support;
      ]
  @ [
      Alcotest.test_case "sampled reset replays a fresh sim" `Quick
        test_sampled_reset_replays_fresh;
      monotone_matches_probe_reference;
      QCheck_alcotest.to_alcotest qcheck_abku_table_refill_equals_create;
      QCheck_alcotest.to_alcotest qcheck_exact_law_matches_per_rank;
    ]
