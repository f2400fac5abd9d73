(* E7 — soundness of the whole pipeline on small state spaces: the exact
   mixing time tau(1/4) (transition-matrix computation on the partition
   space Omega_m), the measured coalescence time of the coupling, and the
   closed-form path-coupling bounds, side by side.

   The ordering exact <= bound must hold; coalescence tracks the exact
   value from a fixed extremal pair.

   The sparse exact layer (CSR matrix, cached stationary distribution,
   batched per-start sweeps that retire each start at its first TV <=
   eps) makes state spaces several times larger than the historical
   dense ceiling affordable; the blocked streaming build plus
   designated extremal starts push the full-mode grid to n = m = 46
   (|Omega| = 105558) for scenario A.
   Each cell reports |Omega| in the table and its build/mix wall-clock
   through Engine.Metrics phases (dump with BENCH_METRICS=1), keeping
   the default table byte-identical across runs and domain counts.
   With --checkpoint the per-cell mixing search snapshots its progress
   and a killed run resumes with --resume, reproducing the
   uninterrupted rows exactly. *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector
module Sr = Core.Scheduling_rule
module Ctx = Experiment.Ctx

let eps = 0.25

(* Above this |Omega| the mixing search runs from the designated
   extremal starts only (one full bin, balanced): the monotone coupling
   puts every other start between them, so they realize the worst-case
   TV distance while the search cost drops from |Omega| starts to 2. *)
let all_starts_ceiling = 2000

(* Scenario B mixes like n * m log m (Claim 5.3), so its cells stop at
   the historical full ceiling; the extended sizes are scenario A. *)
let scenario_b_ceiling = 14

let run ctx =
  let reps = Ctx.reps ctx in
  List.iter
    (fun scenario ->
      let metrics = Engine.Metrics.create () in
      let table =
        Ctx.table ctx
          ~title:
            (Printf.sprintf
               "E7: %s-ABKU[2], exact tau(%.2f) on Omega_m vs bound"
               (Core.Scenario.process_prefix scenario)
               eps)
          ~columns:
            [
              "n=m"; "|Omega|"; "exact tau"; "median coalescence"; "bound";
              "E[max load] exact"; "fluid pred";
            ]
      in
      let scen_tag =
        match scenario with Core.Scenario.A -> "id" | B -> "ib"
      in
      Ctx.iter_cells ctx
        (fun n ->
          if scenario = Core.Scenario.B && n > scenario_b_ceiling then ()
          else begin
          let m = n in
          let process = Core.Dynamic_process.make scenario (Sr.abku 2) ~n in
          let starts =
            if Markov.Partition_space.count ~n ~m <= all_starts_ceiling then
              None
            else Some [| Lv.all_in_one ~n ~m; Lv.uniform ~n ~m |]
          in
          let checkpoint =
            Option.map Markov.Exact_checkpoint.file_sink
              (Ctx.checkpoint_path ctx
                 ~name:(Printf.sprintf "%s_n%02d" scen_tag n))
          in
          let a =
            Markov.Exact_builder.build_mix ~eps ~max_t:1_000_000
              ~domains:(Ctx.domains ctx) ?starts ?checkpoint
              (Markov.Exact_builder.enumerated
                 (Markov.Partition_space.enumerate ~n ~m))
              ~transitions:(Core.Dynamic_process.exact_transitions process)
          in
          let cell = Printf.sprintf "cell n=%02d |Omega|=%d" n a.state_count in
          Engine.Metrics.add_phase metrics (cell ^ " build") a.build_seconds;
          Engine.Metrics.add_phase metrics (cell ^ " mix") a.mix_seconds;
          let coupled = Core.Coupled.monotone process in
          let rng = Ctx.rng ctx ~experiment:(7000 + n) in
          let meas, cell_metrics =
            Coupling.Coalescence.measure_with_metrics ~domains:(Ctx.domains ctx)
              ~reps ~limit:1_000_000 ~rng coupled
              ~init:(fun _g ->
                ( Mv.of_load_vector (Lv.all_in_one ~n ~m),
                  Mv.of_load_vector (Lv.uniform ~n ~m) ))
          in
          let bound =
            match scenario with
            | Core.Scenario.A -> Theory.Bounds.theorem1 ~m ~eps
            | Core.Scenario.B -> Theory.Bounds.claim53 ~n ~m ~eps
          in
          let exact_mean_max =
            Markov.Exact.stationary_expectation a.chain
              ~f:(fun v -> float_of_int (Loadvec.Load_vector.max_load v))
              ()
          in
          let fluid =
            match scenario with
            | Core.Scenario.A ->
                Fluid.Mean_field.fixed_point_a ~d:2 ~m_over_n:1. ~levels:30
            | Core.Scenario.B ->
                Fluid.Mean_field.fixed_point_b ~d:2 ~m_over_n:1. ~levels:30
          in
          Ctx.row table
            ~values:
              (Ctx.measurement_values meas
              @ [
                  ("state_count", float_of_int a.state_count);
                  ("exact_tau", float_of_int a.tau);
                  ("bound", bound);
                  ("exact_mean_max", exact_mean_max);
                ])
            ~metrics:cell_metrics
            [
              string_of_int n;
              string_of_int a.state_count;
              string_of_int a.tau;
              Ctx.cell_measurement meas;
              Printf.sprintf "%.0f" bound;
              Printf.sprintf "%.2f" exact_mean_max;
              string_of_int (Fluid.Mean_field.predicted_max_load ~n fluid);
            ]
          end);
      Ctx.note table "soundness: exact tau <= closed-form bound on every row";
      Ctx.note table
        (Printf.sprintf
           "cells with |Omega| > %d search the extremal starts (all-in-one, \
            uniform) only; the monotone coupling sandwiches every other start \
            between them"
           all_starts_ceiling);
      Ctx.emit ctx table;
      Engine.Metrics.dump
        ~label:
          (Printf.sprintf "E7 %s exact-cell metrics"
             (Core.Scenario.process_prefix scenario))
        (Engine.Metrics.snapshot metrics))
    [ Core.Scenario.A; Core.Scenario.B ]

let spec =
  Experiment.Spec.v ~id:"e7"
    ~claim:"exact mixing time vs coupling coalescence vs closed-form bounds"
    ~tags:[ "exact"; "mixing"; "coupling"; "soundness" ]
    ~grid:
      (Experiment.Grid.v ~axis:"n=m" ~quick:[ 4; 6; 8; 10; 12 ]
         ~full:[ 4; 6; 8; 10; 12; 14; 20; 30; 46 ] ~reps:(201, 401) ())
    run
