(* A research-notebook walkthrough of the analysis pipeline on a system
   small enough to compute everything exactly:

     1. build the Markov chain of Id-ABKU[2] on Omega_m (Section 3.3),
     2. compute its stationary distribution and exact mixing time,
     3. measure the paper's coupling and estimate the contraction factor
        beta of Corollary 4.2,
     4. compare everything with Theorem 1.

     dune exec examples/exact_analysis.exe *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector

let () =
  let n = 6 in
  let process =
    Core.Dynamic_process.make Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n
  in
  Printf.printf "Process %s on Omega_%d (%d bins)\n\n"
    (Core.Dynamic_process.name process)
    n n;

  (* 1. the chain *)
  let states = Markov.Partition_space.enumerate ~n ~m:n in
  Printf.printf "State space: %d normalized load vectors\n" (Array.length states);
  let chain =
    Markov.Exact_builder.build
      (Markov.Exact_builder.enumerated states)
      ~transitions:(Core.Dynamic_process.exact_transitions process)
  in

  (* 2. stationary distribution + mixing time *)
  let pi = Markov.Exact.stationary chain in
  Printf.printf "\nStationary distribution:\n";
  Array.iter
    (fun v ->
      Printf.printf "  %-22s %.4f\n"
        (Format.asprintf "%a" Lv.pp v)
        pi.(Markov.Exact.index chain v))
    states;
  let tau = Markov.Exact.mixing_time ~eps:0.25 chain in
  Printf.printf "\nexact mixing time tau(1/4) = %d\n" tau;

  (* 3. the paper's coupling, empirically *)
  let coupled = Core.Coupled.paper_coupling process in
  let rng = Prng.Rng.create ~seed:1 () in
  let beta, alpha =
    Coupling.Path_coupling.beta_estimate ~reps:50_000 ~rng coupled
      ~pair:(fun g -> Core.Coupled.adjacent_pair g ~n ~m:n)
  in
  Printf.printf
    "\nSection 4 coupling on adjacent pairs: E[Delta'] = %.4f (Corollary \
     4.2 demands <= 1 - 1/m = %.4f), Pr[Delta' <> 1] = %.4f\n"
    beta
    (1. -. (1. /. float_of_int n))
    alpha;

  (* coalescence from the extremal pair *)
  let monotone = Core.Coupled.monotone process in
  let meas =
    Coupling.Coalescence.measure ~reps:500 ~limit:100_000 ~rng monotone
      ~init:(fun _g ->
        ( Mv.of_load_vector (Lv.all_in_one ~n ~m:n),
          Mv.of_load_vector (Lv.uniform ~n ~m:n) ))
  in
  Printf.printf "coupling coalescence median: %.0f steps\n" meas.median;

  (* 4. the theorem *)
  Printf.printf "\nTheorem 1 bound: tau(1/4) <= %.0f\n"
    (Theory.Bounds.theorem1 ~m:n ~eps:0.25);
  Printf.printf
    "Path Coupling Lemma with the measured beta: %.1f\n"
    (Theory.Bounds.path_coupling_case1 ~beta ~diameter:(n - 1) ~eps:0.25);
  Printf.printf
    "\nEverything lines up: exact %d ~ coalescence %.0f <= lemma-with-\
     measured-beta <= Theorem 1.\n"
    tau meas.median
