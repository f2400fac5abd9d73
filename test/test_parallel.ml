(* Tests for the multicore fan-out layer and the determinism guarantee of
   parallel measurements. *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector

let test_map_array_matches_sequential () =
  let xs = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "same results" (Array.map f xs)
    (Parallel.map_array ~domains:4 f xs);
  Alcotest.(check (array int)) "domains=1" (Array.map f xs)
    (Parallel.map_array ~domains:1 f xs)

let test_map_array_empty_and_single () =
  Alcotest.(check (array int)) "empty" [||]
    (Parallel.map_array ~domains:4 (fun x -> x) [||]);
  Alcotest.(check (array int)) "single" [| 7 |]
    (Parallel.map_array ~domains:4 (fun x -> x + 6) [| 1 |])

let test_map_array_more_domains_than_tasks () =
  let xs = [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "ok" [| 2; 4; 6 |]
    (Parallel.map_array ~domains:16 (fun x -> 2 * x) xs)

let test_map_array_propagates_exception () =
  Alcotest.check_raises "exception resurfaces" (Failure "boom") (fun () ->
      ignore
        (Parallel.map_array ~domains:3
           (fun x -> if x = 5 then failwith "boom" else x)
           (Array.init 10 (fun i -> i))))

let test_map_array_invalid () =
  Alcotest.check_raises "domains < 1"
    (Invalid_argument "Parallel.map_array: domains < 1") (fun () ->
      ignore (Parallel.map_array ~domains:0 (fun x -> x) [| 1 |]))

let test_recommended_positive () =
  Alcotest.(check bool) "at least one" true (Parallel.recommended_domains () >= 1)

let measure_with ~domains =
  let process =
    Core.Dynamic_process.make Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n:16
  in
  let coupled = Core.Coupled.monotone process in
  let rng = Prng.Rng.create ~seed:77 () in
  Coupling.Coalescence.measure ~domains ~reps:20 ~limit:10_000 ~rng coupled
    ~init:(fun _g ->
      ( Mv.of_load_vector (Lv.all_in_one ~n:16 ~m:16),
        Mv.of_load_vector (Lv.uniform ~n:16 ~m:16) ))

let test_measure_deterministic_across_domains () =
  let seq = measure_with ~domains:1 and par = measure_with ~domains:4 in
  Alcotest.(check (array int)) "identical times"
    seq.Coupling.Coalescence.times par.Coupling.Coalescence.times;
  Alcotest.(check int) "identical failures" seq.Coupling.Coalescence.failures
    par.Coupling.Coalescence.failures

let test_recovery_deterministic_across_domains () =
  let run ~domains =
    let rng = Prng.Rng.create ~seed:5 () in
    Core.Recovery.measure ~domains ~rng ~reps:10
      {
        Core.Recovery.scenario = Core.Scenario.A;
        rule = Core.Scheduling_rule.abku 2;
        n = 32;
        m = 32;
      }
      ~target:4 ~limit:100_000
  in
  let seq = run ~domains:1 and par = run ~domains:3 in
  Alcotest.(check (array int)) "identical times"
    seq.Coupling.Coalescence.times par.Coupling.Coalescence.times

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("map_array = sequential map", test_map_array_matches_sequential);
      ("map_array empty/single", test_map_array_empty_and_single);
      ("more domains than tasks", test_map_array_more_domains_than_tasks);
      ("exception propagation", test_map_array_propagates_exception);
      ("invalid domains", test_map_array_invalid);
      ("recommended domains", test_recommended_positive);
      ("coalescence deterministic across domains",
       test_measure_deterministic_across_domains);
      ("recovery deterministic across domains",
       test_recovery_deterministic_across_domains);
    ]
