(* E6 — the combination the paper advocates (Section 1): Mitzenmacher's
   differential-equation method predicts the stationary profile; the
   paper's coupling bounds say how fast the process reaches it.  Here we
   validate the predictor: simulated stationary load fractions
   s_i = #bins(load >= i)/n against the fluid fixed point, for both
   scenarios. *)

module Sr = Core.Scheduling_rule
module Ctx = Experiment.Ctx

let simulated_profile ctx ~scenario ~d ~n ~levels =
  let rng = Ctx.rng ctx ~experiment:6000 in
  let bins =
    Core.Bins.of_loads
      (Loadvec.Load_vector.to_array (Loadvec.Load_vector.uniform ~n ~m:n))
  in
  let sys = Core.System.create scenario (Sr.abku d) bins in
  Core.System.run rng sys ~steps:(50 * n);
  let acc = Array.make levels 0. in
  let samples = 200 in
  for _ = 1 to samples do
    Core.System.run rng sys ~steps:n;
    let loads = Core.Bins.loads (Core.System.bins sys) in
    for i = 1 to levels do
      let count = Array.fold_left (fun a l -> if l >= i then a + 1 else a) 0 loads in
      acc.(i - 1) <- acc.(i - 1) +. (float_of_int count /. float_of_int n)
    done
  done;
  Array.map (fun x -> x /. float_of_int samples) acc

let run ctx =
  let n = Ctx.scale ctx ~quick:4096 ~full:16384 in
  let d = 2 and levels = 8 in
  List.iter
    (fun (scenario, fixed_point) ->
      let fluid = fixed_point () in
      let sim = simulated_profile ctx ~scenario ~d ~n ~levels in
      let table =
        Ctx.table ctx
          ~title:
            (Printf.sprintf "E6: load fractions s_i, %s-ABKU[%d], n = m = %d"
               (Core.Scenario.process_prefix scenario)
               d n)
          ~columns:[ "i"; "simulated s_i"; "fluid s_i"; "abs diff" ]
      in
      for i = 1 to levels do
        let s = sim.(i - 1) in
        let f = if i - 1 < Array.length fluid then fluid.(i - 1) else 0. in
        Ctx.row table
          ~values:[ ("simulated", s); ("fluid", f); ("abs_diff", Float.abs (s -. f)) ]
          [
            string_of_int i;
            Printf.sprintf "%.5f" s;
            Printf.sprintf "%.5f" f;
            Printf.sprintf "%.5f" (Float.abs (s -. f));
          ]
      done;
      let pred = Fluid.Mean_field.predicted_max_load ~n fluid in
      Ctx.note table
        (Printf.sprintf "fluid-predicted max load: %d (used as the recovery \
                         target in E2/E4)" pred);
      Ctx.emit ctx table)
    [
      (Core.Scenario.A,
       fun () -> Fluid.Mean_field.fixed_point_a ~d ~m_over_n:1. ~levels:40);
      (Core.Scenario.B,
       fun () -> Fluid.Mean_field.fixed_point_b ~d ~m_over_n:1. ~levels:40);
    ]

let spec =
  Experiment.Spec.v ~id:"e6"
    ~claim:"Mitzenmacher fluid limit predicts the stationary profile"
    ~tags:[ "fluid"; "stationary"; "sim" ]
    run
