(* The RBB subsystem's contracts: the one-round law is a probability
   distribution over the partition space and conserves the ball count;
   every backend's round conserves it too; the count-backed round is
   bit-identical to the array oracle, on small random starts and from
   all-in-one at n = m = 1024; the sampled round is equal in law
   (checked against the exact one-round law on a tiny space); and the
   event vocabulary behaves — normalized sims answer [Round]/[Step] and
   nothing else mutating, the identity-based service machine inserts by
   the placement rule and refuses removal. *)

module Lv = Loadvec.Load_vector

let rng_of seed = Prng.Rng.create ~seed ()
let lv_str v = Format.asprintf "%a" Lv.pp v

let random_vector g ~n ~m =
  let a = Array.make n 0 in
  for _ = 1 to m do
    let i = Prng.Rng.int g n in
    a.(i) <- a.(i) + 1
  done;
  Lv.of_array a

let rule_of_d d = if d = 1 then Rbb.uniform else Rbb.dchoice d

(* {2 Exact one-round law} *)

let test_exact_law () =
  List.iter
    (fun (rule, n, m) ->
      let p = Rbb.make rule ~n in
      Array.iter
        (fun v ->
          let law = Rbb.exact_transitions p v in
          let total = List.fold_left (fun a (_, pr) -> a +. pr) 0. law in
          Alcotest.(check (float 1e-9))
            (Printf.sprintf "law from %s sums to 1" (lv_str v))
            1.0 total;
          List.iter
            (fun (w, pr) ->
              if pr <= 0. then Alcotest.fail "non-positive transition mass";
              Alcotest.(check int) "target conserves m" m (Lv.total w);
              Alcotest.(check bool)
                "target is normalized" true
                (Lv.is_normalized (Lv.to_array w)))
            law)
        (Markov.Partition_space.enumerate ~n ~m))
    [ (Rbb.uniform, 4, 4); (Rbb.dchoice 2, 4, 5); (Rbb.dchoice 3, 3, 7) ]

(* The uniform one-round law coincides with the d-choice law at d = 1
   only syntactically at the type level; semantically Abku 1 IS the
   uniform placement, so the two spellings must produce one law. *)
let test_uniform_is_abku1 () =
  let n = 5 and m = 6 in
  let pu = Rbb.make Rbb.uniform ~n in
  (match Rbb.of_scheduling_rule (Core.Scheduling_rule.abku 1) with
  | Ok r ->
      Alcotest.(check string) "abku 1 round-trips to uniform" "uniform"
        (Rbb.rule_name r)
  | Error e -> Alcotest.fail e);
  Array.iter
    (fun v ->
      let law = Rbb.exact_transitions pu v in
      let total = List.fold_left (fun a (_, pr) -> a +. pr) 0. law in
      Alcotest.(check (float 1e-9)) "uniform law sums to 1" 1.0 total)
    (Markov.Partition_space.enumerate ~n ~m)

(* {2 Backend laws} *)

let qcheck_rounds_conserve =
  QCheck.Test.make ~name:"rbb rounds conserve the ball count on every backend"
    ~count:200
    QCheck.(
      quad small_int (int_range 1 12) (int_range 0 40) (int_range 1 3))
    (fun (seed, n, m, d) ->
      let p = Rbb.make (rule_of_d d) ~n in
      let start = random_vector (rng_of seed) ~n ~m in
      List.for_all
        (fun repr ->
          let g = rng_of (seed + 7) in
          let s = Rbb.sim_repr ~repr p start in
          Engine.Sim.iterate s g 5;
          let v = Engine.Sim.observe s in
          Lv.total v = m && Lv.is_normalized (Lv.to_array v))
        Core.Repr.all)

(* The max load after each of [rounds] rounds from [start], and the
   final vector. *)
let trace repr p start ~seed ~rounds =
  let g = rng_of seed in
  let s = Rbb.sim_repr ~repr p start in
  let max_loads =
    Array.init rounds (fun _ ->
        Engine.Sim.step s g;
        Engine.Sim.probe s)
  in
  (max_loads, Engine.Sim.observe s)

let qcheck_counts_bit_identical =
  QCheck.Test.make
    ~name:"rbb count-backed rounds are bit-identical to the array oracle"
    ~count:150
    QCheck.(
      quad small_int (int_range 1 12) (int_range 0 40) (int_range 1 3))
    (fun (seed, n, m, d) ->
      let p = Rbb.make (rule_of_d d) ~n in
      let start = random_vector (rng_of seed) ~n ~m in
      let trace repr = trace repr p start ~seed:(seed + 11) ~rounds:8 in
      let pa, va = trace Core.Repr.Array_backed in
      let pc, vc = trace Core.Repr.Count_backed in
      pa = pc && Lv.equal va vc)

(* The same contract at E24's scale: from all-in-one at n = m = 1024,
   where the max load starts at 1024 (a regime no small-n property
   reaches), the count backend replays the array oracle round for round
   under both rules. *)
let test_counts_replay_array_at_scale () =
  let n = 1024 and rounds = 2048 in
  let start = Lv.all_in_one ~n ~m:n in
  List.iter
    (fun rule ->
      let p = Rbb.make rule ~n in
      let trace repr = trace repr p start ~seed:0xE24 ~rounds in
      let ma, va = trace Core.Repr.Array_backed in
      let mc, vc = trace Core.Repr.Count_backed in
      Array.iteri
        (fun t a ->
          if a <> mc.(t) then
            Alcotest.failf "RBB-%s round %d: max load %d (array) vs %d (counts)"
              (Rbb.rule_name rule) (t + 1) a mc.(t))
        ma;
      if not (Lv.equal va vc) then
        Alcotest.failf "RBB-%s: the vectors differ after %d rounds"
          (Rbb.rule_name rule) rounds)
    [ Rbb.uniform; Rbb.dchoice 2 ]

let qcheck_chain_matches_sim =
  QCheck.Test.make
    ~name:"rbb chain steps agree with the array sim on one stream" ~count:100
    QCheck.(triple small_int (int_range 1 10) (int_range 0 30))
    (fun (seed, n, m) ->
      let p = Rbb.make (Rbb.dchoice 2) ~n in
      let start = random_vector (rng_of seed) ~n ~m in
      let step = Rbb.chain p in
      let gc = rng_of (seed + 13) and gs = rng_of (seed + 13) in
      let s = Rbb.sim_repr p start in
      let v = ref start in
      let ok = ref true in
      for _ = 1 to 6 do
        v := step gc !v;
        Engine.Sim.step s gs;
        ok := !ok && Lv.equal !v (Engine.Sim.observe s)
      done;
      !ok && Lv.total !v = m)

(* The sampled backend redistributes draws, so it is held to equality
   in law: its one-round empirical distribution from a fixed start must
   sit within a small total-variation distance of the exact law. *)
let test_sampled_matches_law () =
  let n = 4 and m = 4 in
  let p = Rbb.make Rbb.uniform ~n in
  let start = Lv.all_in_one ~n ~m in
  let law = Rbb.exact_transitions p start in
  let lawtbl = Hashtbl.create 16 in
  List.iter (fun (w, pr) -> Hashtbl.replace lawtbl w pr) law;
  let reps = 4000 in
  let g = rng_of 0xFACE in
  let counts = Hashtbl.create 16 in
  for _ = 1 to reps do
    let s = Rbb.sim_repr ~repr:Core.Repr.Count_sampled p start in
    Engine.Sim.step s g;
    let v = Engine.Sim.observe s in
    Hashtbl.replace counts v
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  Hashtbl.iter
    (fun v _ ->
      if not (Hashtbl.mem lawtbl v) then
        Alcotest.failf "sampled round reached %s, outside the law's support"
          (lv_str v))
    counts;
  let tv =
    0.5
    *. Hashtbl.fold
         (fun w pr acc ->
           let emp =
             float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts w))
             /. float_of_int reps
           in
           acc +. Float.abs (emp -. pr))
         lawtbl 0.
  in
  if tv > 0.05 then
    Alcotest.failf "sampled one-round TV %.4f exceeds the 0.05 tolerance" tv

(* A reset must leave no trace of the sampler's old cutoff table: from
   the same seed, a sampled sim run and then reset to v0 replays a fresh
   sampled sim started at v0. *)
let test_sampled_reset_replays_fresh () =
  let n = 8 and m = 12 in
  let p = Rbb.make (Rbb.dchoice 2) ~n in
  let v0 = Lv.all_in_one ~n ~m in
  let sampled () = Rbb.sim_repr ~repr:Core.Repr.Count_sampled p v0 in
  let trace s =
    let g = rng_of 77 in
    List.init 20 (fun _ ->
        Engine.Sim.step s g;
        Engine.Sim.observe s)
  in
  let reused = sampled () in
  Engine.Sim.iterate reused (rng_of 5) 10;
  Engine.Sim.reset reused v0;
  if not (List.equal Lv.equal (trace (sampled ())) (trace reused)) then
    Alcotest.fail "a reset sampled round sim diverges from a fresh one"

(* {2 Event vocabulary} *)

let test_round_event_vocabulary () =
  let n = 6 and m = 9 in
  let p = Rbb.make (Rbb.dchoice 2) ~n in
  let g = rng_of 3 in
  let s = Rbb.sim_repr p (Lv.uniform ~n ~m) in
  (match Engine.Sim.apply s g Engine.Event.Step with
  | Engine.Event.Ack -> ()
  | _ -> Alcotest.fail "Step should Ack (one round) on a normalized rbb sim");
  (match Engine.Sim.apply s g (Engine.Event.Insert 5) with
  | Engine.Event.Rejected _ -> ()
  | _ -> Alcotest.fail "Insert must be rejected on a normalized rbb sim");
  (match Engine.Sim.apply s g Engine.Event.Remove with
  | Engine.Event.Rejected _ -> ()
  | _ -> Alcotest.fail "Remove must be rejected on a normalized rbb sim");
  match Engine.Sim.apply s g Engine.Event.Probe with
  | Engine.Event.Level l ->
      Alcotest.(check int) "probe is the max load" l
        (Lv.max_load (Engine.Sim.observe s))
  | _ -> Alcotest.fail "Probe should answer Level"

let test_service_machine () =
  let n = 8 in
  let p = Rbb.make Rbb.uniform ~n in
  let bins = Core.Bins.of_loads (Array.make n 2) in
  let s = Rbb.service_sim p bins in
  let g = rng_of 9 in
  (match Engine.Sim.apply s g Engine.Event.Round with
  | Engine.Event.Ack -> ()
  | _ -> Alcotest.fail "Round should Ack on the service machine");
  (match Engine.Sim.apply s g (Engine.Event.Insert 123) with
  | Engine.Event.Placed b ->
      Alcotest.(check bool) "placed bin in range" true (b >= 0 && b < n)
  | _ -> Alcotest.fail "Insert should place by the re-placement rule");
  (match Engine.Sim.apply s g Engine.Event.Remove with
  | Engine.Event.Rejected _ -> ()
  | _ -> Alcotest.fail "Remove must be rejected (rounds conserve balls)");
  match Engine.Sim.apply s g Engine.Event.Occupancy with
  | Engine.Event.Loads loads ->
      Alcotest.(check int) "rounds + one insert conserve the ball count"
        ((2 * n) + 1)
        (Array.fold_left ( + ) 0 loads)
  | _ -> Alcotest.fail "Occupancy should answer Loads"

let test_rule_parsing () =
  List.iter
    (fun (d, name) ->
      match Rbb.of_scheduling_rule (Core.Scheduling_rule.abku d) with
      | Ok r -> Alcotest.(check string) name name (Rbb.rule_name r)
      | Error e -> Alcotest.failf "ABKU[%d] should convert: %s" d e)
    [ (1, "uniform"); (2, "d2"); (7, "d7") ];
  match
    Rbb.of_scheduling_rule
      (Core.Scheduling_rule.adap (Core.Adaptive.of_list [ 1; 2 ]))
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "ADAP has no round-synchronous form"

let suite =
  [
    Alcotest.test_case "exact one-round law is a distribution" `Quick
      test_exact_law;
    Alcotest.test_case "uniform rule is ABKU[1]" `Quick test_uniform_is_abku1;
    Alcotest.test_case "sampled backend matches the one-round law" `Slow
      test_sampled_matches_law;
    Alcotest.test_case "sampled reset replays a fresh sim" `Quick
      test_sampled_reset_replays_fresh;
    Alcotest.test_case "round event vocabulary" `Quick
      test_round_event_vocabulary;
    Alcotest.test_case "identity service machine" `Quick test_service_machine;
    Alcotest.test_case "rule parsing" `Quick test_rule_parsing;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_rounds_conserve;
        qcheck_counts_bit_identical;
        qcheck_chain_matches_sim;
      ]
  @ [
      Alcotest.test_case
        "counts replay the array oracle from all-in-one at n = m = 1024"
        `Quick test_counts_replay_array_at_scale;
    ]
