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

let test_init_array () =
  Alcotest.(check (array int)) "init" [| 0; 2; 4 |]
    (Parallel.init_array ~domains:2 3 (fun i -> 2 * i));
  Alcotest.check_raises "negative" (Invalid_argument "Parallel.init_array: negative size")
    (fun () -> ignore (Parallel.init_array
      ~domains:2 (-1) (fun i -> i)))

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

let test_pool_runs_all_slices () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      Alcotest.(check int) "size" 4 (Parallel.Pool.size pool);
      let hits = Array.make 4 0 and sizes = Array.make 4 [] in
      (* Reuse across jobs: the same workers serve every run.  Workers
         only record what they saw; the checks run on this domain,
         because Alcotest's assertion log is not domain-safe. *)
      for _ = 1 to 5 do
        Parallel.Pool.run pool (fun w size ->
            sizes.(w) <- size :: sizes.(w);
            hits.(w) <- hits.(w) + 1)
      done;
      Alcotest.(check (array (list int))) "slice size"
        (Array.make 4 [ 4; 4; 4; 4; 4 ]) sizes;
      Alcotest.(check (array int)) "every slice ran every job"
        [| 5; 5; 5; 5 |] hits)

let test_pool_size_one_inline () =
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      let ran = ref false in
      Parallel.Pool.run pool (fun w size ->
          Alcotest.(check int) "worker" 0 w;
          Alcotest.(check int) "size" 1 size;
          ran := true);
      Alcotest.(check bool) "ran inline" true !ran)

let test_pool_propagates_exception () =
  Parallel.Pool.with_pool ~domains:3 (fun pool ->
      Alcotest.check_raises "worker failure resurfaces" (Failure "pool-boom")
        (fun () ->
          Parallel.Pool.run pool (fun w _ ->
              if w = 2 then failwith "pool-boom"));
      (* The pool survives a failed job. *)
      let total = Atomic.make 0 in
      Parallel.Pool.run pool (fun w _ -> ignore (Atomic.fetch_and_add total w));
      Alcotest.(check int) "usable after failure" 3 (Atomic.get total))

let test_pool_shutdown_idempotent () =
  let pool = Parallel.Pool.create ~domains:2 () in
  Parallel.Pool.run pool (fun _ _ -> ());
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Parallel.Pool.run: pool is shut down") (fun () ->
      Parallel.Pool.run pool (fun _ _ -> ()))

let test_pool_partitioned_sum () =
  (* The intended usage shape: disjoint output ranges per worker. *)
  let n = 10_000 in
  let xs = Array.init n (fun i -> float_of_int (i mod 97)) in
  let partial = Array.make 3 0. in
  Parallel.Pool.with_pool ~domains:3 (fun pool ->
      Parallel.Pool.run pool (fun w size ->
          let lo = n * w / size and hi = n * (w + 1) / size in
          let acc = ref 0. in
          for i = lo to hi - 1 do
            acc := !acc +. xs.(i)
          done;
          partial.(w) <- !acc));
  let seq = Array.fold_left ( +. ) 0. xs in
  Alcotest.(check (float 1e-9)) "partitioned sum" seq
    (partial.(0) +. partial.(1) +. partial.(2))

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("map_array = sequential map", test_map_array_matches_sequential);
      ("map_array empty/single", test_map_array_empty_and_single);
      ("more domains than tasks", test_map_array_more_domains_than_tasks);
      ("exception propagation", test_map_array_propagates_exception);
      ("invalid domains", test_map_array_invalid);
      ("init_array", test_init_array);
      ("recommended domains", test_recommended_positive);
      ("coalescence deterministic across domains",
       test_measure_deterministic_across_domains);
      ("recovery deterministic across domains",
       test_recovery_deterministic_across_domains);
      ("pool runs all slices and is reusable", test_pool_runs_all_slices);
      ("pool size one runs inline", test_pool_size_one_inline);
      ("pool propagates exceptions", test_pool_propagates_exception);
      ("pool shutdown idempotent", test_pool_shutdown_idempotent);
      ("pool partitioned sum", test_pool_partitioned_sum);
    ]
