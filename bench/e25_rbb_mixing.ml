(* E25 — mixing of repeated balls-into-bins against the Los & Sauerwald
   Theta(n log n) scale (m = Theta(n)), in two views.  First the exact
   tau(1/4) on the partition space for small n: the one-round law
   (deterministic ejection, then q sequential placements) folded through
   the same sparse exact pipeline the sequential processes use.  Then
   the empirical TV decay of the max-load observable at a realistic
   size, whose epsilon-crossing must land below the bound (observable
   TV lower-bounds state TV). *)

module Lv = Loadvec.Load_vector
module Ctx = Experiment.Ctx

let eps = 0.25

let geometric_times limit =
  let rec go t acc = if t > limit then List.rev acc else go (t * 4) (t :: acc) in
  go 1 []

let rules = [ (Rbb.uniform, 0); (Rbb.dchoice 2, 1) ]

let run ctx =
  (* Exact tau(1/4) on Omega_m: RBB is conservative, so the state space
     is the familiar partition space and the blocked-CSR exact layer
     applies verbatim. *)
  let metrics = Engine.Metrics.create () in
  let table =
    Ctx.table ctx ~title:"E25: RBB exact tau(0.25) on Omega_m vs n ln n"
      ~columns:[ "rule"; "n=m"; "|Omega|"; "exact tau"; "n ln n"; "ratio" ]
  in
  Ctx.iter_cells ctx (fun n ->
      let m = n in
      List.iter
        (fun (rule, _) ->
          let p = Rbb.make rule ~n in
          let a =
            Markov.Exact_builder.build_mix ~eps ~max_t:1_000_000
              ~domains:(Ctx.domains ctx)
              (Markov.Exact_builder.enumerated
                 (Markov.Partition_space.enumerate ~n ~m))
              ~transitions:(Rbb.exact_transitions p)
          in
          let cell =
            Printf.sprintf "cell %s n=%02d |Omega|=%d" (Rbb.name p) n
              a.state_count
          in
          Engine.Metrics.add_phase metrics (cell ^ " build") a.build_seconds;
          Engine.Metrics.add_phase metrics (cell ^ " mix") a.mix_seconds;
          let bound = Theory.Bounds.rbb_mixing ~n ~m in
          Ctx.row table
            ~values:
              [
                ("state_count", float_of_int a.state_count);
                ("exact_tau", float_of_int a.tau);
                ("bound", bound);
              ]
            [
              Rbb.name p;
              string_of_int n;
              string_of_int a.state_count;
              string_of_int a.tau;
              Printf.sprintf "%.1f" bound;
              Ctx.ratio_cell (float_of_int a.tau) bound;
            ])
        rules);
  Ctx.note table
    "the Los-Sauerwald scale is asymptotic: the ratio column should stay \
     bounded as n grows, not sit below 1";
  Ctx.emit ctx table;
  Engine.Metrics.dump ~label:"E25 exact-cell metrics"
    (Engine.Metrics.snapshot metrics);
  (* Empirical TV decay at a size the exact pipeline cannot reach. *)
  let n = Ctx.scale ctx ~quick:64 ~full:128 in
  let m = n in
  let reps = Ctx.scale ctx ~quick:400 ~full:2000 in
  List.iter
    (fun (rule, key) ->
      let p = Rbb.make rule ~n in
      let bound = int_of_float (Theory.Bounds.rbb_mixing ~n ~m) in
      let rng = Ctx.rng ctx ~experiment:(250_000 + (key * 10_000)) in
      let times =
        List.sort_uniq compare (bound :: geometric_times (2 * bound))
      in
      let profile =
        Markov.Empirical.decay_profile ~step:(Rbb.chain p) ~rng
          ~x0:(fun () -> Lv.all_in_one ~n ~m)
          ~y0:(fun () -> Lv.uniform ~n ~m)
          ~times ~reps ~observable:Lv.max_load
      in
      let table =
        Ctx.table ctx
          ~title:
            (Printf.sprintf "E25: TV(max load at t) for %s, n = m = %d"
               (Rbb.name p) n)
          ~columns:[ "t"; "estimated TV" ]
      in
      List.iter
        (fun (t, tv) ->
          Ctx.row table
            ~values:[ ("tv", tv) ]
            [ string_of_int t; Printf.sprintf "%.3f" tv ])
        profile;
      (match List.find_opt (fun (t, _) -> t = bound) profile with
      | Some (t, tv) ->
          Ctx.note table
            (Printf.sprintf
               "at the bound t = n ln n = %d the observable TV is %.3f %s \
                0.25 (observable TV lower-bounds state TV, so <= is required)"
               t tv
               (if tv <= 0.25 then "<=" else "> !! VIOLATION of"))
      | None -> ());
      Ctx.emit ctx table)
    rules

let spec =
  Experiment.Spec.v ~id:"e25"
    ~claim:"RBB mixing: exact tau and empirical TV vs the n ln n scale"
    ~tags:[ "rbb"; "mixing"; "tv"; "exact" ]
    ~grid:
      (Experiment.Grid.v ~axis:"n=m" ~quick:[ 4; 6; 8; 10 ]
         ~full:[ 4; 6; 8; 10; 12; 14; 16 ] ())
    run
