(* E4 — Section 1.1 (first removal scenario): with removals from a random
   server (scenario B), recovery from an arbitrarily bad assignment takes
   O(n^2 ln n) steps.

   Max-load first-hitting time from the all-in-one state for Ib-ABKU[2]. *)

module Ctx = Experiment.Ctx

let run ctx =
  let reps = Ctx.reps ctx in
  let d = 2 in
  let table =
    Ctx.table ctx ~title:"E4: recovery of Ib-ABKU[2] to fluid max load + 1"
      ~columns:
        [ "n=m"; "target"; "median steps [q10,q90]"; "n^2 ln n"; "ratio" ]
  in
  let points = ref [] in
  Ctx.iter_cells ctx
    (fun n ->
      let profile = Fluid.Mean_field.fixed_point_b ~d ~m_over_n:1. ~levels:40 in
      let target = Fluid.Mean_field.predicted_max_load ~n profile + 1 in
      let spec =
        {
          Core.Recovery.scenario = Core.Scenario.B;
          rule = Core.Scheduling_rule.abku d;
          n;
          m = n;
        }
      in
      let scale = Theory.Bounds.recovery_b_steps ~n in
      let rng = Ctx.rng ctx ~experiment:(4000 + n) in
      let meas, metrics =
        Core.Recovery.measure_with_metrics ~domains:(Ctx.domains ctx) ~rng
          ~reps spec ~target ~limit:(50 * int_of_float scale)
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
    ~expected:"2 (n^2 ln n growth)" ~what:"median vs n (after / ln n)";
  Ctx.note table
    "scenario B drains the spike one ball per hit on it, and hits it with \
     probability ~1/#nonempty: quadratically slower than scenario A (E2)";
  Ctx.emit ctx table

let spec =
  Experiment.Spec.v ~id:"e4"
    ~claim:"scenario-B recovery from the worst state in O(n^2 ln n) steps"
    ~tags:[ "recovery"; "scenario-b"; "sim" ]
    ~grid:
      (Experiment.Grid.v ~axis:"n=m" ~quick:[ 32; 64; 128; 256; 512 ]
         ~full:[ 64; 128; 256; 512; 1024 ] ~reps:(9, 21) ())
    run
