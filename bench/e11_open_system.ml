(* E11 — Section 7, open systems: the ball population fluctuates (insert
   with probability 1/2, else delete a random ball).  The paper's proposal
   is to couple two copies from very different initial populations and
   measure when their distributions agree; our shared-randomness coupling
   makes that a coalescence measurement. *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector
module Sr = Core.Scheduling_rule
module Ctx = Experiment.Ctx

let run ctx =
  let reps = Ctx.reps ctx in
  let table =
    Ctx.table ctx
      ~title:"E11: Open(p=1/2, ABKU[2]), start 0 balls vs 2n balls"
      ~columns:[ "n"; "median coalescence [q10,q90]"; "failures" ]
  in
  let points = ref [] in
  Ctx.iter_cells ctx
    (fun n ->
      let p = Core.Open_process.make (Sr.abku 2) ~n in
      let coupled = Core.Open_process.coupled p in
      let rng = Ctx.rng ctx ~experiment:(11_000 + n) in
      let m = 2 * n in
      (* The population must drift from m down to meet the other copy:
         a random walk needs ~m^2 steps to lose m balls net. *)
      let limit = 2000 * m * m in
      let meas, metrics =
        Coupling.Coalescence.measure_with_metrics ~domains:(Ctx.domains ctx)
          ~reps ~limit ~rng coupled
          ~init:(fun _g ->
            ( Mv.of_load_vector (Lv.all_in_one ~n ~m),
              Mv.of_load_vector (Lv.of_array (Array.make n 0)) ))
      in
      points := (float_of_int m, meas.median) :: !points;
      Ctx.row table
        ~values:(Ctx.measurement_values meas)
        ~metrics
        [
          string_of_int n;
          Ctx.cell_measurement meas;
          string_of_int meas.failures;
        ]);
  Ctx.note_exponent table ~points:(List.rev !points) ~log_exponent:0.
    ~expected:"~2, with a heavy upper tail (the population gap must \
               random-walk to zero before the profiles can merge)"
    ~what:"median vs m";
  Ctx.note table "wide quantile spread is inherent: null-recurrent hitting times";
  Ctx.emit ctx table;
  (* The paper's own formulation (Section 7): estimate the time until the
     0-ball process has almost the same *distribution* as the m-ball one.
     Distributional agreement (here of the population size) arrives long
     before samplewise coalescence. *)
  let n = Ctx.scale ctx ~quick:16 ~full:32 in
  let m = 2 * n in
  let p = Core.Open_process.make (Sr.abku 2) ~n in
  let step g v =
    ignore (Core.Open_process.step_normalized p g v);
    v
  in
  let rng = Ctx.rng ctx ~experiment:11_500 in
  let rec times t acc =
    if t > 40 * m * m then List.rev acc else times (4 * t) (t :: acc)
  in
  (* The population has no stationary law (a reflected unbiased walk), so
     its support spreads like sqrt t; estimate the TV on population
     buckets of width m/8 to keep the finite-sample bias of the
     empirical-TV estimator small. *)
  let bucket v = Mv.total v * 8 / m in
  let profile =
    Markov.Empirical.decay_profile ~step ~rng
      ~x0:(fun () -> Mv.of_load_vector (Lv.all_in_one ~n ~m))
      ~y0:(fun () -> Mv.of_load_vector (Lv.of_array (Array.make n 0)))
      ~times:(times 1 []) ~reps:(Ctx.scale ctx ~quick:800 ~full:2000)
      ~observable:bucket
  in
  let tv_table =
    Ctx.table ctx
      ~title:
        (Printf.sprintf
           "E11b: TV of the population-size law, 0 vs %d balls (n = %d)" m n)
      ~columns:[ "t"; "estimated TV" ]
  in
  List.iter
    (fun (t, tv) ->
      Ctx.row tv_table
        ~values:[ ("tv", tv) ]
        [ string_of_int t; Printf.sprintf "%.3f" tv ])
    profile;
  Ctx.note tv_table
    "the distributions merge at ~m^2 steps, well before samplewise \
     coalescence: the distributional question the paper poses is easier";
  Ctx.emit ctx tv_table

let spec =
  Experiment.Spec.v ~id:"e11"
    ~claim:"open systems: coalescence of 0-ball vs m-ball starts"
    ~tags:[ "open-system"; "coupling"; "sim" ]
    ~grid:
      (Experiment.Grid.v ~axis:"n" ~quick:[ 8; 16; 32; 48 ]
         ~full:[ 8; 16; 32; 64 ] ~reps:(15, 31) ())
    run
