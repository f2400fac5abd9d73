(* E24 — self-stabilization of repeated balls-into-bins (Becchetti,
   Clementi, Natale, Pasquale, Posta): with m = n balls, from any
   configuration — here the worst one, all balls in one bin — the
   maximum load drops to O(log n) within O(n) rounds w.h.p., and stays
   there.  We measure the first round at which the max load is
   <= ceil(2 ln n), sweeping n, for both re-placement rules.  The round
   is the engine's unit transition, so the generic first-hit driver
   applies unchanged. *)

module Lv = Loadvec.Load_vector
module Ctx = Experiment.Ctx

let run ctx =
  let reps = Ctx.reps ctx in
  List.iter
    (fun (rule, key) ->
      let table =
        Ctx.table ctx
          ~title:
            (Printf.sprintf
               "E24: RBB-%s stabilization from one full bin to max load <= 2 \
                ln n"
               (Rbb.rule_name rule))
          ~columns:[ "n=m"; "target"; "median rounds [q10,q90]"; "n"; "ratio" ]
      in
      let points = ref [] in
      Ctx.iter_cells ctx (fun n ->
          let m = n in
          let p = Rbb.make rule ~n in
          let target =
            int_of_float (ceil (2. *. Theory.Bounds.rbb_max_load ~n))
          in
          let scale = Theory.Bounds.rbb_stabilization ~n in
          let rng = Ctx.rng ctx ~experiment:(240_000 + (key * 10_000) + n) in
          let meas, metrics =
            Engine.Runner.measure ~domains:(Ctx.domains ctx) ~rng ~reps
              ~limit:(50 * n)
              (fun g metrics ~limit ->
                let s = Rbb.sim_repr ~metrics p (Lv.all_in_one ~n ~m) in
                Engine.Sim.first_hit s g ~pred:(fun ml -> ml <= target) ~limit)
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
      Ctx.note_exponent table ~points:(List.rev !points) ~log_exponent:0.
        ~expected:"1 (linear rounds)" ~what:"median rounds vs n";
      Ctx.emit ctx table)
    [ (Rbb.uniform, 0); (Rbb.dchoice 2, 1) ]

let spec =
  Experiment.Spec.v ~id:"e24"
    ~claim:"RBB self-stabilizes to max load O(log n) within O(n) rounds"
    ~tags:[ "rbb"; "recovery"; "sim" ]
    ~grid:
      (Experiment.Grid.v ~axis:"n=m" ~quick:[ 128; 256; 512; 1024 ]
         ~full:[ 128; 256; 512; 1024; 2048; 4096 ] ~reps:(11, 31) ())
    run
