type check = {
  check : string;
  verdict : Sequential.verdict;
  samples : int;
  detail : string;
  stats : (string * float) list;
  outcome : Sequential.outcome option;
}

type subject_report = {
  subject : string;
  family : string;
  state_count : int;
  checks : check list;
  verdict : Sequential.verdict;
  samples : int;
}

type report = {
  alpha : float;
  seed : int;
  quick : bool;
  subjects : subject_report list;
  verdict : Sequential.verdict;
}

let span_args args = if Obs.enabled () then args () else []

(* The state whose exact one-step row has the most distinct successors
   of positive mass, the lowest index on ties.  The spread below can
   miss every state a wrong law shows in: at n = m = 4 it is (4),
   (1,1,1,1) and (2,2), whose non-empty bins all hold one load, so a
   removal biased among non-empty bins leaves their rows as they are.
   The richest row, (3,1) there, has the most successors to get wrong. *)
let richest_row space (s : _ Subject.spec) =
  let best = ref 0 and most = ref (-1) in
  for i = 0 to Space.size space - 1 do
    let row =
      Space.dense_law space (s.Subject.transitions (Space.state space i))
    in
    let k = Array.fold_left (fun k p -> if p > 0. then k + 1 else k) 0 row in
    if k > !most then begin
      best := i;
      most := k
    end
  done;
  !best

(* Start states for the one-step checks: the subject's own start, a
   deterministic spread across the enumeration, and the richest row. *)
let one_step_start_indices ~quick ~size ~richest start_idx =
  let wanted =
    if quick then [ start_idx; size / 2; richest ]
    else [ start_idx; 0; size - 1; size / 2; richest ]
  in
  List.fold_left
    (fun acc i -> if List.mem i acc then acc else acc @ [ i ])
    [] wanted

let sequential_stats (o : Sequential.outcome) =
  [
    ("p_value", o.Sequential.p_value);
    ("statistic", o.Sequential.statistic);
    ("df", float_of_int o.Sequential.df);
    ("tv_plugin", o.Sequential.tv_plugin);
    ("tv_corrected", o.Sequential.tv_corrected);
    ("ci_lo", fst o.Sequential.ci);
    ("ci_hi", snd o.Sequential.ci);
    ("escapes", float_of_int o.Sequential.escapes);
    ("looks", float_of_int o.Sequential.looks);
  ]

let check_of_outcome ~name ~what (o : Sequential.outcome) =
  let detail =
    Printf.sprintf
      "%s: %s after %d samples (%d looks): p = %.4f, corrected TV = %.4f \
       [%.4f, %.4f]%s"
      what
      (Sequential.verdict_name o.Sequential.verdict)
      o.Sequential.samples o.Sequential.looks o.Sequential.p_value
      o.Sequential.tv_corrected (fst o.Sequential.ci) (snd o.Sequential.ci)
      (if o.Sequential.escapes > 0 then
         Printf.sprintf ", %d escapes" o.Sequential.escapes
       else "")
  in
  {
    check = name;
    verdict = o.Sequential.verdict;
    samples = o.Sequential.samples;
    detail;
    stats = sequential_stats o;
    outcome = Some o;
  }

let one_step_check ~domains ~cfg ~rng space (s : _ Subject.spec) idx =
  Obs.with_span "validate.check"
    ~args:(span_args (fun () -> [ ("check", Obs.Str "one-step") ]))
    (fun () ->
      let x = Space.state space idx in
      let expected = Space.dense_law space (s.Subject.transitions x) in
      let sample k =
        Space.collect ~domains ~rng ~reps:k space ~sample:(fun g ->
            let sim = s.Subject.fresh_sim () in
            Engine.Sim.reset sim x;
            Engine.Sim.step sim g;
            [| Engine.Sim.observe sim |])
      in
      let o = Sequential.test cfg ~rng ~expected ~sample in
      check_of_outcome
        ~name:(Printf.sprintf "one-step x%d" idx)
        ~what:
          (Printf.sprintf "one-step law from state %d vs exact row" idx)
        o)

let stationary_check ~domains ~cfg ~rng space (s : _ Subject.spec) ~chain =
  Obs.with_span "validate.check"
    ~args:(span_args (fun () -> [ ("check", Obs.Str "stationary") ]))
    (fun () ->
      let pi = Markov.Exact.stationary chain in
      (* Thinning at the exact τ(0.01) makes consecutive observations
         nearly independent, so the iid goodness-of-fit machinery
         applies up to a 1% TV slack per observation. *)
      let thin = max 1 (Markov.Exact.mixing_time ~eps:0.01 ~domains chain) in
      let per_rep = 4 in
      let sample k =
        let reps = max 1 ((k + per_rep - 1) / per_rep) in
        Space.collect ~domains ~rng ~reps space ~sample:(fun g ->
            let sim = s.Subject.fresh_sim () in
            Engine.Sim.reset sim s.Subject.start;
            Array.init per_rep (fun _ ->
                Engine.Sim.iterate sim g thin;
                Engine.Sim.observe sim))
      in
      let o = Sequential.test cfg ~rng ~expected:pi ~sample in
      let c =
        check_of_outcome ~name:"stationary"
          ~what:
            (Printf.sprintf "occupancy (thinned every %d steps) vs exact pi"
               thin)
          o
      in
      { c with stats = ("thin", float_of_int thin) :: c.stats })

let geometric_times t_bound =
  let rec up acc t = if t >= t_bound then List.rev acc else up (t :: acc) (2 * t) in
  up [] 1 @ [ t_bound ]

let decay_check ~domains ~quick ~rng space (s : _ Subject.spec) ~chain
    (label, bound) =
  Obs.with_span "validate.check"
    ~args:(span_args (fun () -> [ ("check", Obs.Str "tv-decay") ]))
    (fun () ->
      let pi = Markov.Exact.stationary chain in
      let t_bound = max 1 (int_of_float (ceil bound)) in
      let reps = if quick then 400 else 1200 in
      let measure t =
        Space.collect ~domains ~rng ~reps space ~sample:(fun g ->
            let sim = s.Subject.fresh_sim () in
            Engine.Sim.reset sim s.Subject.start;
            Engine.Sim.iterate sim g t;
            [| Engine.Sim.observe sim |])
      in
      let curve =
        List.map
          (fun t ->
            let c = measure t in
            (t, c, Estimators.bias_corrected_tv c.Space.freq ~expected:pi))
          (geometric_times t_bound)
      in
      let escapes =
        List.fold_left (fun acc (_, c, _) -> acc + c.Space.escapes) 0 curve
      in
      let _, at_bound, tv_at_bound =
        List.nth curve (List.length curve - 1)
      in
      let lo, hi = Estimators.tv_ci ~rng at_bound.Space.freq ~expected:pi in
      let bias =
        Estimators.tv_bias ~expected:pi
          ~total:(Stats.Freq.total at_bound.Space.freq)
      in
      let crossing =
        List.find_map (fun (t, _, tv) -> if tv <= 0.25 then Some t else None)
          curve
      in
      let verdict =
        if escapes > 0 then Sequential.Fail
        else if lo -. bias > 0.25 then Sequential.Fail
        else if tv_at_bound <= 0.25 then Sequential.Pass
        else Sequential.Inconclusive
      in
      let samples = reps * List.length curve in
      let detail =
        Printf.sprintf
          "%s: corrected TV to pi at the %s bound (t = %d) is %.4f [%.4f, \
           %.4f]%s"
          (Sequential.verdict_name verdict)
          label t_bound tv_at_bound lo hi
          (match crossing with
          | Some t -> Printf.sprintf "; 1/4 first crossed at t = %d" t
          | None -> "; never crossed 1/4")
      in
      {
        check = "tv-decay";
        verdict;
        samples;
        detail;
        stats =
          [
            ("bound", bound);
            ("tv_at_bound", tv_at_bound);
            ("ci_lo", lo);
            ("ci_hi", hi);
            ("bias", bias);
            ( "crossing",
              match crossing with Some t -> float_of_int t | None -> nan );
            ("escapes", float_of_int escapes);
          ];
        outcome = None;
      })

let run_subject ?(domains = 1) ~quick ~alpha ~rng (Subject.P s) =
  Obs.with_span "validate.subject"
    ~args:(span_args (fun () -> [ ("subject", Obs.Str s.Subject.name) ]))
    (fun () ->
      let space = Space.make s.Subject.states in
      let chain =
        Markov.Exact_builder.build ?block_rows:s.Subject.block_rows
          (Markov.Exact_builder.enumerated s.Subject.states)
          ~transitions:s.Subject.transitions
      in
      let start_idx =
        match Space.find_opt space s.Subject.start with
        | Some i -> i
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Conformance.run_subject: %s's start state is outside its \
                  state space"
                 s.Subject.name)
      in
      let one_cfg =
        Sequential.config ~alpha
          ~batch:(if quick then 1000 else 2500)
          ~max_batches:(if quick then 4 else 8)
          ()
      in
      let one_steps =
        List.map
          (one_step_check ~domains ~cfg:one_cfg ~rng space s)
          (one_step_start_indices ~quick ~size:(Space.size space)
             ~richest:(richest_row space s) start_idx)
      in
      let stationary =
        stationary_check ~domains ~cfg:one_cfg ~rng space s ~chain
      in
      let decay =
        match s.Subject.bound with
        | None -> []
        | Some b -> [ decay_check ~domains ~quick ~rng space s ~chain b ]
      in
      let checks = one_steps @ [ stationary ] @ decay in
      {
        subject = s.Subject.name;
        family = s.Subject.family;
        state_count = Array.length s.Subject.states;
        checks;
        verdict =
          List.fold_left
            (fun acc (c : check) -> Sequential.worst acc c.verdict)
            Sequential.Pass checks;
        samples =
          List.fold_left (fun acc (c : check) -> acc + c.samples) 0 checks;
      })

let run ?(domains = 1) ?(quick = false) ?(alpha = 0.01) ~seed subjects =
  let rng = Prng.Rng.create ~seed () in
  let subjects =
    List.map
      (fun subj ->
        let g = Prng.Rng.split rng in
        run_subject ~domains ~quick ~alpha ~rng:g subj)
      subjects
  in
  {
    alpha;
    seed;
    quick;
    subjects;
    verdict =
      List.fold_left
        (fun acc (s : subject_report) -> Sequential.worst acc s.verdict)
        Sequential.Pass subjects;
  }
