(* E13 — the mixing-time definition made visible at realistic sizes:
   the total-variation distance between the laws of the max-load
   observable from an adversarial start and from a balanced start, as a
   function of time.  By data processing this lower-bounds the state TV
   distance, so its epsilon-crossing point must land below the theorems'
   bounds: Theorem 1 for scenario A, the O~(m^2) scale for scenario B. *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector
module Sr = Core.Scheduling_rule
module Ctx = Experiment.Ctx

let geometric_times limit =
  let rec go t acc = if t > limit then List.rev acc else go (t * 4) (t :: acc) in
  go 1 []

let run ctx =
  let n = Ctx.scale ctx ~quick:64 ~full:128 in
  let m = n in
  let reps = Ctx.scale ctx ~quick:500 ~full:2000 in
  List.iter
    (fun (scenario, scale_name, scale) ->
      let process = Core.Dynamic_process.make scenario (Sr.abku 2) ~n in
      (* Chain over mutable state; Empirical copies the start per run. *)
      let step g v =
        Core.Dynamic_process.step_in_place process g v;
        v
      in
      let rng = Ctx.rng ctx ~experiment:13_000 in
      let limit = 2 * int_of_float scale in
      (* Geometric grid plus the bound itself, so the table shows the TV
         exactly where the theorem promises <= eps. *)
      let times =
        List.sort_uniq compare (int_of_float scale :: geometric_times limit)
      in
      let profile =
        Markov.Empirical.decay_profile ~step ~rng
          ~x0:(fun () -> Mv.of_load_vector (Lv.all_in_one ~n ~m))
          ~y0:(fun () -> Mv.of_load_vector (Lv.uniform ~n ~m))
          ~times ~reps ~observable:Mv.max_load
      in
      let table =
        Ctx.table ctx
          ~title:
            (Printf.sprintf "E13: TV(max load at t) for %s, n = m = %d"
               (Core.Dynamic_process.name process)
               n)
          ~columns:[ "t"; "estimated TV" ]
      in
      List.iter
        (fun (t, tv) ->
          Ctx.row table
            ~values:[ ("tv", tv) ]
            [ string_of_int t; Printf.sprintf "%.3f" tv ])
        profile;
      let at_bound =
        List.find_opt (fun (t, _) -> t = int_of_float scale) profile
      in
      (match at_bound with
      | Some (t, tv) ->
          Ctx.note table
            (Printf.sprintf
               "at the bound t = %s = %d the observable TV is %.3f %s 0.25 \
                (observable TV lower-bounds state TV, so <= is required)"
               scale_name t tv
               (if tv <= 0.25 then "<=" else "> !! VIOLATION of"))
      | None -> ());
      Ctx.emit ctx table)
    [
      (Core.Scenario.A, "Theorem 1", Theory.Bounds.theorem1 ~m ~eps:0.25);
      (Core.Scenario.B, "m^2 ln m", Theory.Bounds.scenario_b_improved ~m);
    ]

let spec =
  Experiment.Spec.v ~id:"e13"
    ~claim:"TV decay of the max-load observable vs the theorems' scales"
    ~tags:[ "mixing"; "tv"; "sim" ]
    run
