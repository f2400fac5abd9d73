(* E2 — Section 1.1 (second removal scenario): starting from an arbitrary
   assignment, Id-ABKU[d] recovers the typical maximum load
   ln ln n / ln d + O(1) within O(n ln n) steps.

   We start with all n balls in one bin and measure the first time the
   maximum load drops to (fluid-limit prediction + 1), sweeping n. *)

module Ctx = Experiment.Ctx

let run ctx =
  let reps = Ctx.reps ctx in
  let d = 2 in
  let table =
    Ctx.table ctx ~title:"E2: recovery of Id-ABKU[2] to fluid max load + 1"
      ~columns:
        [ "n=m"; "target"; "median steps [q10,q90]"; "n ln n"; "ratio" ]
  in
  let points = ref [] in
  Ctx.iter_cells ctx
    (fun n ->
      let profile = Fluid.Mean_field.fixed_point_a ~d ~m_over_n:1. ~levels:40 in
      let target = Fluid.Mean_field.predicted_max_load ~n profile + 1 in
      let spec =
        {
          Core.Recovery.scenario = Core.Scenario.A;
          rule = Core.Scheduling_rule.abku d;
          n;
          m = n;
        }
      in
      let scale = Theory.Bounds.recovery_a_steps ~n in
      let rng = Ctx.rng ctx ~experiment:(2000 + n) in
      let meas, metrics =
        Core.Recovery.measure_with_metrics ~domains:(Ctx.domains ctx) ~rng
          ~reps spec ~target ~limit:(200 * int_of_float scale)
      in
      points := (float_of_int n, meas.median) :: !points;
      Ctx.row table
        ~values:
          (Ctx.measurement_values meas
          @ [ ("target", float_of_int target); ("scale", scale) ])
        ~metrics
        [
          string_of_int n;
          string_of_int target;
          Ctx.cell_measurement meas;
          Printf.sprintf "%.0f" scale;
          Ctx.ratio_cell meas.median scale;
        ]);
  Ctx.note_exponent table ~points:(List.rev !points) ~log_exponent:1.
    ~expected:"1 (n ln n growth)" ~what:"median vs n (after / ln n)";
  Ctx.emit ctx table

let spec =
  Experiment.Spec.v ~id:"e2"
    ~claim:"scenario-A recovery from the worst state in O(n ln n) steps"
    ~tags:[ "recovery"; "scenario-a"; "sim" ]
    ~grid:
      (Experiment.Grid.v ~axis:"n=m" ~quick:[ 128; 256; 512; 1024; 2048 ]
         ~full:[ 128; 256; 512; 1024; 2048; 4096 ] ~reps:(11, 31) ())
    run
