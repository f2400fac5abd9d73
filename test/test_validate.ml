(* lib/validate: state spaces, estimators, the sequential tester, the
   new exact one-step laws, and the corrupted-stepper contract — a
   deliberately wrong stepper must FAIL conformance, the real one must
   PASS, across several seeds. *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector

let check_float = Alcotest.(check (float 1e-9))

let sum_probs law = List.fold_left (fun acc (_, p) -> acc +. p) 0. law

(* --- exact one-step laws (Open_process, Relocation) ------------------ *)

let test_open_exact_transitions () =
  let t =
    Core.Open_process.make ~insert_probability:0.5 ~capacity:2
      (Core.Scheduling_rule.abku 1) ~n:2
  in
  (* Empty state: insertion w.p. 1/2, removal is a self-loop. *)
  let empty = Lv.of_array [| 0; 0 |] in
  let law = Core.Open_process.exact_transitions t empty in
  check_float "empty law sums to 1" 1. (sum_probs law);
  let mass_on s =
    List.fold_left
      (fun acc (s', p) -> if s' = s then acc +. p else acc)
      0. law
  in
  check_float "empty self-loop mass" 0.5 (mass_on empty);
  check_float "insertion mass" 0.5 (mass_on (Lv.of_array [| 1; 0 |]));
  (* At capacity the insertion is the self-loop instead. *)
  let full = Lv.of_array [| 1; 1 |] in
  let law_full = Core.Open_process.exact_transitions t full in
  check_float "full law sums to 1" 1. (sum_probs law_full);
  check_float "removal mass at capacity" 0.5
    (List.fold_left
       (fun acc (s', p) -> if s' = Lv.of_array [| 1; 0 |] then acc +. p else acc)
       0. law_full);
  Alcotest.check_raises "dimension mismatch"
    (Invalid_argument "Open_process.exact_transitions: dimension mismatch")
    (fun () -> ignore (Core.Open_process.exact_transitions t (Lv.of_array [| 0; 0; 0 |])));
  Alcotest.check_raises "state above capacity"
    (Invalid_argument "Open_process.exact_transitions: state above capacity")
    (fun () -> ignore (Core.Open_process.exact_transitions t (Lv.of_array [| 2; 1 |])))

let test_relocation_exact_transitions () =
  (* relocations = 0, ABKU[1] on two bins: remove the only ball, then
     insert uniformly — the two successors are fully determined. *)
  let t0 =
    Core.Relocation.make Core.Scenario.A (Core.Scheduling_rule.abku 1)
      ~relocations:0 ~n:2
  in
  let law = Core.Relocation.exact_transitions t0 [| 1; 0 |] in
  check_float "law sums to 1" 1. (sum_probs law);
  let mass_on s =
    List.fold_left (fun acc (s', p) -> if s' = s then acc +. p else acc) 0. law
  in
  check_float "ball back in bin 0" 0.5 (mass_on [| 1; 0 |]);
  check_float "ball moved to bin 1" 0.5 (mass_on [| 0; 1 |]);
  (* A configuration with a real relocation stage still sums to 1, and
     its reachable space builds into a valid chain (row normalization is
     checked by Exact_builder.build to 1e-9). *)
  let t1 =
    Core.Relocation.make Core.Scenario.B (Core.Scheduling_rule.abku 2)
      ~relocations:1 ~n:3
  in
  check_float "relocation law sums to 1" 1.
    (sum_probs (Core.Relocation.exact_transitions t1 [| 3; 0; 0 |]));
  let chain =
    Markov.Exact_builder.build
      (Markov.Exact_builder.reachable ~root:[| 3; 0; 0 |])
      ~transitions:(Core.Relocation.exact_transitions t1)
  in
  Alcotest.(check bool) "chain has states" true (Markov.Exact.size chain > 0);
  Alcotest.check_raises "ADAP rejected"
    (Invalid_argument
       "Relocation.exact_transitions: ADAP probe tuples are unbounded")
    (fun () ->
      let t =
        Core.Relocation.make Core.Scenario.A
          (Core.Scheduling_rule.adap (Core.Adaptive.constant 1))
          ~relocations:0 ~n:2
      in
      ignore (Core.Relocation.exact_transitions t [| 1; 0 |]));
  Alcotest.check_raises "no balls rejected"
    (Invalid_argument "Relocation.exact_transitions: no balls")
    (fun () -> ignore (Core.Relocation.exact_transitions t0 [| 0; 0 |]))

(* --- Space ----------------------------------------------------------- *)

let test_space () =
  let space = Validate.Space.make [| 10; 20; 30 |] in
  Alcotest.(check int) "size" 3 (Validate.Space.size space);
  Alcotest.(check (option int)) "find" (Some 1)
    (Validate.Space.find_opt space 20);
  Alcotest.(check (option int)) "missing" None
    (Validate.Space.find_opt space 99);
  let law = Validate.Space.dense_law space [ (10, 0.25); (30, 0.75) ] in
  check_float "dense law cell" 0.75 law.(2);
  Alcotest.check_raises "unknown successor"
    (Invalid_argument "Space.dense_law: successor outside the space")
    (fun () -> ignore (Validate.Space.dense_law space [ (99, 1.) ]));
  Alcotest.check_raises "duplicate state"
    (Invalid_argument "Space.make: duplicate state") (fun () ->
      ignore (Validate.Space.make [| 1; 1 |]));
  (* A simulator stepping outside the space is counted, not raised. *)
  let rng = Prng.Rng.create ~seed:5 () in
  let c =
    Validate.Space.collect ~rng ~reps:10 space ~sample:(fun _g -> [| 99 |])
  in
  Alcotest.(check int) "escapes counted" 10 c.Validate.Space.escapes;
  Alcotest.(check int) "nothing tallied" 0 (Stats.Freq.total c.Validate.Space.freq)

(* --- Estimators ------------------------------------------------------ *)

let test_estimators () =
  let uniform = [| 0.5; 0.5 |] in
  let balanced = Stats.Freq.create ~size:2 in
  Stats.Freq.add balanced 0 500;
  Stats.Freq.add balanced 1 500;
  check_float "plugin tv of a perfect match" 0.
    (Validate.Estimators.plugin_tv balanced ~expected:uniform);
  check_float "corrected tv clamps at 0" 0.
    (Validate.Estimators.bias_corrected_tv balanced ~expected:uniform);
  let g = Validate.Estimators.g_test balanced ~expected:uniform in
  check_float "G of a perfect match is 0" 0. g.Validate.Estimators.statistic;
  check_float "p of a perfect match is 1" 1. g.Validate.Estimators.p_value;
  let skewed = Stats.Freq.create ~size:2 in
  Stats.Freq.add skewed 0 900;
  Stats.Freq.add skewed 1 100;
  let g = Validate.Estimators.g_test skewed ~expected:uniform in
  Alcotest.(check bool) "gross mismatch rejected" true
    (g.Validate.Estimators.p_value < 1e-10);
  let x = Validate.Estimators.chi_square_test skewed ~expected:uniform in
  Alcotest.(check bool) "chi-square agrees" true
    (x.Validate.Estimators.p_value < 1e-10);
  (* Mass on a structurally impossible cell. *)
  let g = Validate.Estimators.g_test skewed ~expected:[| 1.; 0. |] in
  Alcotest.(check int) "forbidden observations" 100
    g.Validate.Estimators.forbidden;
  check_float "forbidden mass means p = 0" 0. g.Validate.Estimators.p_value;
  Alcotest.(check bool) "statistic is infinite" true
    (g.Validate.Estimators.statistic = infinity);
  (* Residuals point at the deviating cells, symmetrically here. *)
  let rs = Validate.Estimators.standardized_residuals skewed ~expected:uniform in
  Alcotest.(check bool) "cell 0 is heavy" true (rs.(0) > 3.);
  Alcotest.(check bool) "cell 1 is light" true (rs.(1) < -3.);
  (* The null bias shrinks as 1/sqrt(N). *)
  Alcotest.(check bool) "bias decreases with N" true
    (Validate.Estimators.tv_bias ~expected:uniform ~total:100
    > Validate.Estimators.tv_bias ~expected:uniform ~total:10_000);
  let rng = Prng.Rng.create ~seed:3 () in
  let lo, hi = Validate.Estimators.tv_ci ~rng skewed ~expected:uniform in
  Alcotest.(check bool) "CI is an interval in [0,1]" true
    (0. <= lo && lo <= hi && hi <= 1.);
  Alcotest.(check bool) "CI sits near the point estimate" true
    (lo <= 0.4 && hi >= 0.35)

(* --- Sequential ------------------------------------------------------ *)

let bernoulli_sampler rng ~p =
  fun k ->
  let freq = Stats.Freq.create ~size:2 in
  for _ = 1 to k do
    Stats.Freq.observe freq (if Prng.Rng.float rng < p then 1 else 0)
  done;
  { Validate.Space.freq; escapes = 0 }

let test_sequential () =
  let cfg = Validate.Sequential.config ~batch:1000 ~max_batches:4 ~alpha:0.01 () in
  check_float "Bonferroni split" 0.0025
    (let rng = Prng.Rng.create ~seed:1 () in
     let o =
       Validate.Sequential.test cfg ~rng ~expected:[| 0.25; 0.75 |]
         ~sample:(bernoulli_sampler rng ~p:0.75)
     in
     o.Validate.Sequential.alpha_adjusted);
  let rng = Prng.Rng.create ~seed:2 () in
  let conforming =
    Validate.Sequential.test cfg ~rng ~expected:[| 0.25; 0.75 |]
      ~sample:(bernoulli_sampler rng ~p:0.75)
  in
  Alcotest.(check string) "true law passes" "PASS"
    (Validate.Sequential.verdict_name conforming.Validate.Sequential.verdict);
  let rng = Prng.Rng.create ~seed:2 () in
  let wrong =
    Validate.Sequential.test cfg ~rng ~expected:[| 0.25; 0.75 |]
      ~sample:(bernoulli_sampler rng ~p:0.6)
  in
  Alcotest.(check string) "wrong law fails" "FAIL"
    (Validate.Sequential.verdict_name wrong.Validate.Sequential.verdict);
  (* Any escape is an immediate failure. *)
  let rng = Prng.Rng.create ~seed:3 () in
  let escaping k =
    let c = bernoulli_sampler rng ~p:0.75 k in
    { c with Validate.Space.escapes = 1 }
  in
  let esc =
    Validate.Sequential.test cfg ~rng ~expected:[| 0.25; 0.75 |]
      ~sample:escaping
  in
  Alcotest.(check string) "escapes fail" "FAIL"
    (Validate.Sequential.verdict_name esc.Validate.Sequential.verdict);
  Alcotest.(check int) "escape failure is immediate" 1
    esc.Validate.Sequential.looks

(* --- the corrupted-stepper contract ---------------------------------- *)

(* A stepper with a deliberate off-by-one bin choice: ABKU[2] probes two
   ranks, but the ball lands one rank below the probe winner.  The
   conformance harness must reject it at alpha = 0.01 while the real
   stepper passes — on every seed tried. *)
let corrupted_abku2_subject ~n ~m =
  let p =
    Core.Dynamic_process.make Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n
  in
  let start = Lv.all_in_one ~n ~m in
  let fresh_sim () =
    let v = Mv.of_load_vector start in
    Engine.Sim.make ~watermark:false
      ~step:(fun g ->
        let u = Prng.Rng.float g in
        ignore (Mv.decr_at v (Core.Scenario.remove_rank Core.Scenario.A v ~u));
        let i = Prng.Rng.int g n and j = Prng.Rng.int g n in
        let winner = if i > j then i else j in
        let off_by_one = if winner + 1 < n then winner + 1 else winner in
        ignore (Mv.incr_at v off_by_one))
      ~observe:(fun () -> Mv.to_load_vector v)
      ~reset:(fun lv -> Mv.set_from_load_vector v lv)
      ~probe:(fun () -> Mv.max_load v)
      ()
  in
  Validate.Subject.P
    {
      Validate.Subject.name = Printf.sprintf "corrupted Id-ABKU[2] n=%d m=%d" n m;
      family = "balls";
      states = Markov.Partition_space.enumerate ~n ~m;
      transitions = Core.Dynamic_process.exact_transitions p;
      fresh_sim;
      start;
      bound = None;
      block_rows = None;
    }

let test_corrupted_stepper_fails_true_passes () =
  let seeds = [ 11; 22; 33 ] in
  List.iter
    (fun seed ->
      let rng = Prng.Rng.create ~seed () in
      let bad =
        Validate.Conformance.run_subject ~quick:true ~alpha:0.01 ~rng
          (corrupted_abku2_subject ~n:4 ~m:4)
      in
      Alcotest.(check string)
        (Printf.sprintf "corrupted stepper fails (seed %d)" seed)
        "FAIL"
        (Validate.Sequential.verdict_name bad.Validate.Conformance.verdict);
      let rng = Prng.Rng.create ~seed () in
      let good =
        Validate.Conformance.run_subject ~quick:true ~alpha:0.01 ~rng
          (Validate.Subject.balls Core.Scenario.A
             (Core.Scheduling_rule.abku 2) ~n:4 ~m:4)
      in
      Alcotest.(check string)
        (Printf.sprintf "true stepper passes (seed %d)" seed)
        "PASS"
        (Validate.Sequential.verdict_name good.Validate.Conformance.verdict))
    seeds

(* The machine a serve shard hosts, on identity bins and stepped through
   [Engine.Sim.apply], is held to the normalized chain's exact law. *)
let test_served_machine_passes () =
  let served =
    List.find
      (fun s -> Validate.Subject.name s = "Id-ABKU[2] n=4 m=4 (served)")
      (Validate.Subject.quick_catalog ())
  in
  List.iter
    (fun seed ->
      let rng = Prng.Rng.create ~seed () in
      let r =
        Validate.Conformance.run_subject ~quick:true ~alpha:0.01 ~rng served
      in
      Alcotest.(check string)
        (Printf.sprintf "served machine passes (seed %d)" seed)
        "PASS"
        (Validate.Sequential.verdict_name r.Validate.Conformance.verdict))
    [ 11; 22; 33 ]

(* --- report ---------------------------------------------------------- *)

let test_report_and_exit_code () =
  let rng = Prng.Rng.create ~seed:7 () in
  let subject =
    Validate.Conformance.run_subject ~quick:true ~alpha:0.01 ~rng
      (Validate.Subject.balls Core.Scenario.A (Core.Scheduling_rule.abku 2)
         ~n:3 ~m:3)
  in
  let report =
    {
      Validate.Conformance.alpha = 0.01;
      seed = 7;
      quick = true;
      subjects = [ subject ];
      verdict = subject.Validate.Conformance.verdict;
    }
  in
  Alcotest.(check int) "pass exits 0" 0 (Validate.Report.exit_code report);
  let json = Validate.Report.to_json report in
  (match Experiment.Json.member "schema" json with
  | Some (Experiment.Json.String s) ->
      Alcotest.(check string) "schema" Validate.Report.schema s
  | _ -> Alcotest.fail "report lacks a schema field");
  (* The document round-trips through the serializer. *)
  (match
     Experiment.Json.of_string (Experiment.Json.to_string json)
   with
  | Ok round -> Alcotest.(check bool) "round-trip" true (round = json)
  | Error e -> Alcotest.fail e);
  let failing = { report with Validate.Conformance.verdict = Validate.Sequential.Fail } in
  Alcotest.(check int) "fail exits 1" 1 (Validate.Report.exit_code failing)

let suite =
  [
    ("open exact transitions", `Quick, test_open_exact_transitions);
    ("relocation exact transitions", `Quick, test_relocation_exact_transitions);
    ("space", `Quick, test_space);
    ("estimators", `Quick, test_estimators);
    ("sequential tester", `Quick, test_sequential);
    ( "corrupted stepper fails, true passes",
      `Slow,
      test_corrupted_stepper_fails_true_passes );
    ("served machine passes", `Quick, test_served_machine_passes);
    ("report json and exit code", `Quick, test_report_and_exit_code);
  ]
