(* Scenario B in its natural habitat (paper, Section 1.1, footnote 2):
   a hash store with n buckets and two-choice insertion.  Deletions hit a
   random *occupied bucket* (e.g. a compaction worker picks a bucket and
   evicts one record) - that is exactly scenario B, whose recovery is
   quadratically slower than scenario A's.

   The demo measures both scenarios on the same store and prints the
   stationary bucket-depth profile against the fluid-limit prediction.

     dune exec examples/hashing_store.exe *)

let recovery ~scenario ~n =
  let g = Prng.Rng.create ~seed:31 () in
  let spec =
    { Core.Recovery.scenario; rule = Core.Scheduling_rule.abku 2; n; m = n }
  in
  let fluid =
    match scenario with
    | Core.Scenario.A -> Fluid.Mean_field.fixed_point_a ~d:2 ~m_over_n:1. ~levels:40
    | Core.Scenario.B -> Fluid.Mean_field.fixed_point_b ~d:2 ~m_over_n:1. ~levels:40
  in
  let target = Fluid.Mean_field.predicted_max_load ~n fluid + 1 in
  match
    Core.Recovery.time_to_max_load ~rng:g spec ~target ~limit:(10_000 * n)
  with
  | Some t -> (target, t)
  | None -> (target, -1)

let () =
  let n = 512 in
  Printf.printf "Hash store with %d buckets, two-choice insertion\n\n" n;

  Printf.printf "Recovery from a fully skewed store (all records in one bucket):\n";
  List.iter
    (fun (name, scenario) ->
      let target, steps = recovery ~scenario ~n in
      Printf.printf "  deletions hit %-28s -> max depth <= %d after %d ops\n"
        name target steps)
    [
      ("a random record (scenario A)", Core.Scenario.A);
      ("a random occupied bucket (scenario B)", Core.Scenario.B);
    ];
  Printf.printf
    "  (the paper: O(n ln n) = %.0f for A, O(n^2 ln n) = %.0f for B)\n"
    (Theory.Bounds.recovery_a_steps ~n)
    (Theory.Bounds.recovery_b_steps ~n);

  (* Stationary depth profile for scenario B vs the fluid limit. *)
  let g = Prng.Rng.create ~seed:32 () in
  let bins =
    Core.Bins.of_loads
      (Loadvec.Load_vector.to_array (Loadvec.Load_vector.uniform ~n ~m:n))
  in
  let sys = Core.System.create Core.Scenario.B (Core.Scheduling_rule.abku 2) bins in
  Core.System.run g sys ~steps:(100 * n);
  let hist = Stats.Freq.create ~size:(n + 1) in
  for _ = 1 to 200 do
    Core.System.run g sys ~steps:n;
    Array.iter (Stats.Freq.observe hist) (Core.Bins.loads (Core.System.bins sys))
  done;
  let fluid = Fluid.Mean_field.fixed_point_b ~d:2 ~m_over_n:1. ~levels:10 in
  Printf.printf "\nStationary bucket depth (scenario B) vs fluid limit:\n";
  Printf.printf "  %5s  %10s  %10s\n" "depth" "P(>=depth)" "fluid s_i";
  for i = 1 to 5 do
    Printf.printf "  %5d  %10.5f  %10.5f\n" i
      (Stats.Freq.fraction_at_least hist i)
      fluid.(i - 1)
  done
