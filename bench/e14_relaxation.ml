(* E14 — the exact decay curve behind the mixing-time definition: on
   small state spaces the worst-case TV distance decays exponentially
   with relaxation time tau_rel; tau(eps) then scales like
   tau_rel * ln(1/eps).  We verify both on the exact chains, including
   that tau(eps) grows logarithmically as eps shrinks - the ln(eps^-1)
   dependence in every bound of the paper.

   Cells run through the sparse exact layer (Markov.Exact_builder);
   |Omega| is reported in the table and per-cell wall-clock through
   Engine.Metrics phases (dump with BENCH_METRICS=1), keeping the
   default table byte-identical across runs and domain counts.  The
   blocked streaming build plus designated extremal starts (see e07)
   extend the full-mode scenario-A grid to n = m = 30 (|Omega| =
   5604). *)

module Sr = Core.Scheduling_rule
module Ctx = Experiment.Ctx

(* Same designated-start rule as e07: above this |Omega| the searches
   run from the extremal pair only (monotone-coupling domination). *)
let all_starts_ceiling = 2000
let scenario_b_ceiling = 13

let run ctx =
  List.iter
    (fun scenario ->
      let metrics = Engine.Metrics.create () in
      let table =
        Ctx.table ctx
          ~title:
            (Printf.sprintf "E14: %s-ABKU[2] exact decay"
               (Core.Scenario.process_prefix scenario))
          ~columns:
            [
              "n=m";
              "|Omega|";
              "tau(0.25)";
              "tau(0.01)";
              "ratio";
              "tau_rel (fit)";
              "tau_rel*ln(25)";
            ]
      in
      let scen_tag =
        match scenario with Core.Scenario.A -> "id" | B -> "ib"
      in
      Ctx.iter_cells ctx
        (fun n ->
          if scenario = Core.Scenario.B && n > scenario_b_ceiling then ()
          else begin
          let process = Core.Dynamic_process.make scenario (Sr.abku 2) ~n in
          let designated =
            Markov.Partition_space.count ~n ~m:n > all_starts_ceiling
          in
          let start_states =
            if designated then
              Some
                [|
                  Loadvec.Load_vector.all_in_one ~n ~m:n;
                  Loadvec.Load_vector.uniform ~n ~m:n;
                |]
            else None
          in
          let checkpoint =
            Option.map Markov.Exact_checkpoint.file_sink
              (Ctx.checkpoint_path ctx
                 ~name:(Printf.sprintf "%s_n%02d" scen_tag n))
          in
          let a =
            Markov.Exact_builder.build_mix ~eps:0.25 ~domains:(Ctx.domains ctx)
              ?starts:start_states ?checkpoint
              (Markov.Exact_builder.enumerated
                 (Markov.Partition_space.enumerate ~n ~m:n))
              ~transitions:(Core.Dynamic_process.exact_transitions process)
          in
          let starts =
            Option.map
              (Array.map (fun v -> Markov.Exact.index a.chain v))
              start_states
          in
          let tau25 = a.tau in
          let t1 = Unix.gettimeofday () in
          let tau01 =
            Markov.Exact.mixing_time ~eps:0.01 ~domains:(Ctx.domains ctx)
              ?starts a.chain
          in
          let tau_rel =
            Markov.Exact.relaxation_estimate ~domains:(Ctx.domains ctx) ?starts
              a.chain ~max_t:(8 * tau01) ()
          in
          let tail_seconds = Unix.gettimeofday () -. t1 in
          let cell = Printf.sprintf "cell n=%02d |Omega|=%d" n a.state_count in
          Engine.Metrics.add_phase metrics (cell ^ " build") a.build_seconds;
          Engine.Metrics.add_phase metrics (cell ^ " mix")
            (a.mix_seconds +. tail_seconds);
          Ctx.row table
            ~values:
              [
                ("state_count", float_of_int a.state_count);
                ("tau25", float_of_int tau25);
                ("tau01", float_of_int tau01);
                ("tau_rel", tau_rel);
              ]
            [
              string_of_int n;
              string_of_int a.state_count;
              string_of_int tau25;
              string_of_int tau01;
              Printf.sprintf "%.2f" (float_of_int tau01 /. float_of_int tau25);
              Printf.sprintf "%.2f" tau_rel;
              Printf.sprintf "%.2f" (tau_rel *. log 25.);
            ]
          end);
      Ctx.note table
        "tau(0.01)/tau(0.25) stays bounded (~ln(25)/ln(4) + offset): the \
         ln(eps^-1) dependence of Lemma 3.1; tau_rel*ln(25) tracks \
         tau(0.01) - tau(0.25) up to the pi_min offset";
      Ctx.emit ctx table;
      Engine.Metrics.dump
        ~label:
          (Printf.sprintf "E14 %s exact-cell metrics"
             (Core.Scenario.process_prefix scenario))
        (Engine.Metrics.snapshot metrics))
    [ Core.Scenario.A; Core.Scenario.B ]

let spec =
  Experiment.Spec.v ~id:"e14"
    ~claim:"exact TV decay is exponential; tau(eps) ~ tau_rel ln(1/eps)"
    ~tags:[ "exact"; "mixing"; "relaxation" ]
    ~grid:
      (Experiment.Grid.v ~axis:"n=m" ~quick:[ 6; 8; 10; 12 ]
         ~full:[ 6; 8; 10; 12; 13; 20; 30 ] ())
    run
