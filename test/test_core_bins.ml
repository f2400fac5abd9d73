(* Tests for the identity-based system: bins, system steps, static
   allocation, recovery measurement, open systems and relocation. *)

module Sr = Core.Scheduling_rule
module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector

let rng ?(seed = 42) () = Prng.Rng.create ~seed ()

let check_invariants name bins =
  let loads = Core.Bins.loads bins in
  let m = Array.fold_left ( + ) 0 loads in
  if m <> Core.Bins.num_balls bins then
    Alcotest.failf "%s: ball count mismatch" name;
  let max = Array.fold_left Stdlib.max 0 loads in
  if max <> Core.Bins.max_load bins then
    Alcotest.failf "%s: max load %d vs tracked %d" name max
      (Core.Bins.max_load bins);
  let nonempty = Array.fold_left (fun a l -> if l > 0 then a + 1 else a) 0 loads in
  if nonempty <> Core.Bins.num_nonempty bins then
    Alcotest.failf "%s: nonempty mismatch" name

let test_int_vec () =
  let v = Core.Int_vec.create () in
  for i = 0 to 99 do
    Core.Int_vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Core.Int_vec.length v);
  Alcotest.(check int) "get" 42 (Core.Int_vec.get v 42);
  Core.Int_vec.set v 42 7;
  Alcotest.(check int) "set" 7 (Core.Int_vec.get v 42);
  Alcotest.(check int) "pop" 99 (Core.Int_vec.pop v);
  let removed = Core.Int_vec.swap_remove v 0 in
  Alcotest.(check int) "swap_remove returns" 0 removed;
  Alcotest.(check int) "moved last" 98 (Core.Int_vec.get v 0);
  Core.Int_vec.clear v;
  Alcotest.(check int) "clear" 0 (Core.Int_vec.length v);
  Alcotest.check_raises "empty pop" (Invalid_argument "Int_vec.pop: empty")
    (fun () -> ignore (Core.Int_vec.pop v))

let test_bins_create () =
  let b = Core.Bins.create ~n:3 in
  Alcotest.(check int) "n" 3 (Core.Bins.n b);
  Alcotest.(check int) "empty" 0 (Core.Bins.num_balls b);
  Alcotest.(check int) "max" 0 (Core.Bins.max_load b);
  check_invariants "fresh" b

let test_bins_of_loads () =
  let b = Core.Bins.of_loads [| 3; 0; 1 |] in
  Alcotest.(check int) "balls" 4 (Core.Bins.num_balls b);
  Alcotest.(check int) "load 0" 3 (Core.Bins.load b 0);
  Alcotest.(check int) "max" 3 (Core.Bins.max_load b);
  Alcotest.(check int) "nonempty" 2 (Core.Bins.num_nonempty b);
  check_invariants "of_loads" b;
  Alcotest.check_raises "negative" (Invalid_argument "Bins.of_loads: negative load")
    (fun () -> ignore (Core.Bins.of_loads [| -1 |]))

let test_bins_add_remove () =
  let g = rng () in
  let b = Core.Bins.of_loads [| 2; 1; 0 |] in
  Core.Bins.add_ball b 2;
  Alcotest.(check int) "load grew" 1 (Core.Bins.load b 2);
  check_invariants "after add" b;
  let removed_from = Core.Bins.remove_ball_uniform g b in
  Alcotest.(check bool) "valid bin" true (removed_from >= 0 && removed_from < 3);
  check_invariants "after uniform removal" b;
  let removed_from_b = Core.Bins.remove_from_random_nonempty g b in
  Alcotest.(check bool) "valid nonempty bin" true
    (removed_from_b >= 0 && removed_from_b < 3);
  check_invariants "after nonempty removal" b

let test_bins_remove_empty () =
  let g = rng () in
  let b = Core.Bins.create ~n:2 in
  Alcotest.check_raises "uniform" (Invalid_argument "Bins.remove_ball_uniform: no balls")
    (fun () -> ignore (Core.Bins.remove_ball_uniform g b));
  Alcotest.check_raises "nonempty"
    (Invalid_argument "Bins.remove_from_random_nonempty: no balls") (fun () ->
      ignore (Core.Bins.remove_from_random_nonempty g b))

let test_bins_move_ball () =
  let b = Core.Bins.of_loads [| 2; 0 |] in
  Core.Bins.move_ball b ~src:0 ~dst:1;
  Alcotest.(check int) "src" 1 (Core.Bins.load b 0);
  Alcotest.(check int) "dst" 1 (Core.Bins.load b 1);
  check_invariants "after move" b;
  Core.Bins.move_ball b ~src:1 ~dst:0;
  (* bin 1 is now empty *)
  Alcotest.check_raises "empty src" (Invalid_argument "Bins.move_ball: empty source")
    (fun () -> Core.Bins.move_ball b ~src:1 ~dst:0)

let test_bins_copy_independent () =
  let b = Core.Bins.of_loads [| 2; 1 |] in
  let c = Core.Bins.copy b in
  Core.Bins.add_ball b 0;
  Alcotest.(check int) "copy unchanged" 2 (Core.Bins.load c 0);
  check_invariants "copy" c

let test_bins_uniform_removal_law () =
  (* Removal frequency of a bin is proportional to its load. *)
  let g = rng () in
  let reps = 30_000 in
  let counts = Array.make 3 0 in
  for _ = 1 to reps do
    let b = Core.Bins.of_loads [| 6; 3; 1 |] in
    let i = Core.Bins.remove_ball_uniform g b in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int reps in
  Alcotest.(check bool) "bin0 ~ 0.6" true (Float.abs (frac 0 -. 0.6) < 0.02);
  Alcotest.(check bool) "bin2 ~ 0.1" true (Float.abs (frac 2 -. 0.1) < 0.02)

let test_bins_nonempty_removal_law () =
  (* Scenario B removes uniformly over non-empty bins regardless of load. *)
  let g = rng () in
  let reps = 30_000 in
  let counts = Array.make 4 0 in
  for _ = 1 to reps do
    let b = Core.Bins.of_loads [| 9; 1; 0; 2 |] in
    let i = Core.Bins.remove_from_random_nonempty g b in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check int) "never empty bin" 0 counts.(2);
  let third = 1. /. 3. in
  for i = 0 to 3 do
    if i <> 2 then begin
      let frac = float_of_int counts.(i) /. float_of_int reps in
      if Float.abs (frac -. third) > 0.02 then
        Alcotest.failf "bin %d frequency %f" i frac
    end
  done

let test_insert_with_rule_least_of_d () =
  let g = rng () in
  (* With d very large the least-loaded bin is found w.h.p. *)
  let b = Core.Bins.of_loads [| 5; 5; 0; 5 |] in
  let bin, probes = Core.Bins.insert_with_rule (Sr.abku 64) g b in
  Alcotest.(check int) "least loaded" 2 bin;
  Alcotest.(check int) "probes" 64 probes

let qcheck_bins_random_ops =
  QCheck.Test.make ~name:"bins invariants under random op sequences" ~count:150
    QCheck.(pair small_int (int_range 1 8))
    (fun (seed, n) ->
      QCheck.assume (n >= 1);
      let g = rng ~seed () in
      let b = Core.Bins.create ~n in
      let ok = ref true in
      for _ = 1 to 200 do
        (match Prng.Rng.int g 4 with
        | 0 -> Core.Bins.add_ball b (Prng.Rng.int g n)
        | 1 ->
            if Core.Bins.num_balls b > 0 then
              ignore (Core.Bins.remove_ball_uniform g b)
        | 2 ->
            if Core.Bins.num_balls b > 0 then
              ignore (Core.Bins.remove_from_random_nonempty g b)
        | _ -> ignore (Core.Bins.insert_with_rule (Sr.abku 2) g b));
        let loads = Core.Bins.loads b in
        let m = Array.fold_left ( + ) 0 loads in
        let mx = Array.fold_left Stdlib.max 0 loads in
        let ne =
          Array.fold_left (fun a l -> if l > 0 then a + 1 else a) 0 loads
        in
        if
          m <> Core.Bins.num_balls b
          || mx <> Core.Bins.max_load b
          || ne <> Core.Bins.num_nonempty b
        then ok := false
      done;
      !ok)

let test_system_conserves_balls () =
  let g = rng () in
  List.iter
    (fun sc ->
      let sys = Core.System.create sc (Sr.abku 2) (Core.Bins.of_loads [| 5; 3; 0; 2 |]) in
      Core.System.run g sys ~steps:500;
      Alcotest.(check int) "balls conserved" 10
        (Core.Bins.num_balls (Core.System.bins sys));
      check_invariants "system bins" (Core.System.bins sys))
    [ Core.Scenario.A; Core.Scenario.B ]

let test_system_run_until () =
  let g = rng () in
  let sys =
    Core.System.create Core.Scenario.A (Sr.abku 2)
      (Core.Bins.of_loads [| 10; 0; 0; 0; 0 |])
  in
  match
    Core.System.run_until g sys ~pred:(fun s -> Core.System.max_load s <= 4)
      ~limit:100_000
  with
  | Some t -> Alcotest.(check bool) "found" true (t > 0)
  | None -> Alcotest.fail "never recovered"

let test_system_matches_normalized_chain_law () =
  (* The identity-based system and the normalized chain must agree in law:
     compare max-load distributions after a fixed number of steps. *)
  let reps = 4000 and steps = 50 in
  List.iter
    (fun sc ->
      let h_sys = Stats.Freq.create ~size:7 in
      let h_chain = Stats.Freq.create ~size:7 in
      let g = rng ~seed:5 () in
      for _ = 1 to reps do
        let sys = Core.System.create sc (Sr.abku 2) (Core.Bins.of_loads [| 6; 0; 0 |]) in
        Core.System.run g sys ~steps;
        Stats.Freq.observe h_sys (Core.System.max_load sys);
        let p = Core.Dynamic_process.make sc (Sr.abku 2) ~n:3 in
        let v = Mv.of_load_vector (Lv.all_in_one ~n:3 ~m:6) in
        for _ = 1 to steps do
          Core.Dynamic_process.step_in_place p g v
        done;
        Stats.Freq.observe h_chain (Mv.max_load v)
      done;
      for load = 0 to 6 do
        let a = Stats.Freq.fraction_at_least h_sys load in
        let b = Stats.Freq.fraction_at_least h_chain load in
        if Float.abs (a -. b) > 0.04 then
          Alcotest.failf "scenario %s: load %d tail %f vs %f"
            (Core.Scenario.name sc) load a b
      done)
    [ Core.Scenario.A; Core.Scenario.B ]

let test_static_process () =
  let g = rng () in
  let bins = Core.Static_process.run (Sr.abku 2) g ~n:50 ~m:50 in
  Alcotest.(check int) "all placed" 50 (Core.Bins.num_balls bins);
  check_invariants "static" bins

let test_static_two_choices_beat_one () =
  (* The Azar et al. contrast, statistically: median max load with d = 2 is
     below d = 1 for n = m = 2000. *)
  let g = rng ~seed:2 () in
  let med rule =
    let samples = Core.Static_process.max_load_samples rule g ~n:2000 ~m:2000 ~reps:7 in
    Stats.Quantile.median (Stats.Quantile.of_ints samples)
  in
  let m1 = med (Sr.abku 1) and m2 = med (Sr.abku 2) in
  Alcotest.(check bool)
    (Printf.sprintf "d=2 (%f) < d=1 (%f)" m2 m1)
    true (m2 < m1)

let test_recovery_measure () =
  let spec =
    { Core.Recovery.scenario = Core.Scenario.A; rule = Sr.abku 2; n = 16; m = 16 }
  in
  let rngm = rng ~seed:77 () in
  let m = Core.Recovery.measure ~rng:rngm ~reps:10 spec ~target:3 ~limit:200_000 in
  Alcotest.(check int) "no failures" 0 m.Coupling.Coalescence.failures;
  Alcotest.(check bool) "positive recovery time" true (m.Coupling.Coalescence.median > 0.)

let test_open_process_step () =
  let g = rng () in
  let p = Core.Open_process.make (Sr.abku 2) ~n:4 in
  let v = Mv.of_load_vector (Lv.of_array [| 2; 1; 0; 0 |]) in
  for _ = 1 to 200 do
    let before = Mv.total v in
    ignore (Core.Open_process.step_normalized p g v);
    if abs (Mv.total v - before) > 1 then Alcotest.fail "population jumped";
    if not (Lv.is_normalized (Lv.to_array (Mv.to_load_vector v))) then
      Alcotest.fail "open: state not normalized"
  done

let test_open_process_empty_removal_is_noop () =
  let g = rng () in
  let p = Core.Open_process.make ~insert_probability:0.01 (Sr.abku 1) ~n:2 in
  let v = Mv.of_load_vector (Lv.of_array [| 0; 0 |]) in
  for _ = 1 to 100 do
    ignore (Core.Open_process.step_normalized p g v)
  done;
  Alcotest.(check bool) "non-negative population" true (Mv.total v >= 0)

let test_open_coupled_coalesces () =
  let p = Core.Open_process.make (Sr.abku 2) ~n:4 in
  let c = Core.Open_process.coupled p in
  let g = rng ~seed:13 () in
  let x = Mv.of_load_vector (Lv.all_in_one ~n:4 ~m:8) in
  let y = Mv.of_load_vector (Lv.of_array [| 0; 0; 0; 0 |]) in
  match Coupling.Coalescence.time c g x y ~limit:200_000 with
  | Some t -> Alcotest.(check bool) "met" true (t > 0)
  | None -> Alcotest.fail "open coupling did not coalesce"

let test_open_process_invalid () =
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Open_process.make: probability must be in (0,1)")
    (fun () -> ignore (Core.Open_process.make ~insert_probability:1.5 (Sr.abku 1) ~n:2))

let test_relocation_conserves_and_helps () =
  let g = rng ~seed:4 () in
  let reloc = Core.Relocation.make Core.Scenario.A (Sr.abku 2) ~relocations:2 ~n:8 in
  Alcotest.(check int) "attempts" 2 (Core.Relocation.relocation_attempts reloc);
  let bins = Core.Bins.of_loads (Array.init 8 (fun i -> if i = 0 then 16 else 0)) in
  for _ = 1 to 200 do
    Core.Relocation.step reloc g bins;
    Alcotest.(check int) "balls conserved" 16 (Core.Bins.num_balls bins);
    check_invariants "relocation" bins
  done;
  (* With two relocations per step, 200 steps flatten the spike well below
     the starting 16. *)
  Alcotest.(check bool) "max reduced" true (Core.Bins.max_load bins <= 6)

let test_relocation_name () =
  let r = Core.Relocation.make Core.Scenario.B (Sr.abku 2) ~relocations:1 ~n:4 in
  Alcotest.(check string) "name" "Ib-ABKU[2]+reloc1" (Core.Relocation.name r)

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("int_vec", test_int_vec);
      ("bins create", test_bins_create);
      ("bins of_loads", test_bins_of_loads);
      ("bins add/remove", test_bins_add_remove);
      ("bins remove empty", test_bins_remove_empty);
      ("bins move_ball", test_bins_move_ball);
      ("bins copy independent", test_bins_copy_independent);
      ("uniform removal law", test_bins_uniform_removal_law);
      ("nonempty removal law", test_bins_nonempty_removal_law);
      ("insert least of d", test_insert_with_rule_least_of_d);
      ("system conserves balls", test_system_conserves_balls);
      ("system run_until", test_system_run_until);
      ("system = normalized chain (law)", test_system_matches_normalized_chain_law);
      ("static process", test_static_process);
      ("static: two choices beat one", test_static_two_choices_beat_one);
      ("recovery measure", test_recovery_measure);
      ("open process step", test_open_process_step);
      ("open empty removal noop", test_open_process_empty_removal_is_noop);
      ("open coupling coalesces", test_open_coupled_coalesces);
      ("open process invalid", test_open_process_invalid);
      ("relocation", test_relocation_conserves_and_helps);
      ("relocation name", test_relocation_name);
    ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_bins_random_ops ]
