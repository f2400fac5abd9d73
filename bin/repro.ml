(* Command-line interface to the library: simulate any of the paper's
   processes, measure recovery and coalescence, run exact small-chain
   analysis, and print fluid-limit predictions. *)

open Cmdliner

(* ---- shared arguments: each flag is defined once ---- *)

let at_least = Experiments.Cli.at_least
let positive = Experiments.Cli.positive

let seed_arg =
  let doc = "Random seed." in
  Arg.(value & opt int 0x5EED & info [ "seed" ] ~docv:"SEED" ~doc)

(* The generator every stochastic subcommand draws from. *)
let rng_arg = Term.(const (fun seed -> Prng.Rng.create ~seed ()) $ seed_arg)

let n_arg =
  let doc = "Number of bins / servers / vertices." in
  Arg.(value & opt positive 256 & info [ "n" ] ~docv:"N" ~doc)

(* The size (n, m), with m defaulting to n and at least [min]: the
   dynamic processes remove a ball every step, so they need one. *)
let size_arg ~min =
  let doc =
    if min = 0 then "Number of balls (defaults to n)."
    else Printf.sprintf "Number of balls, at least %d (defaults to n)." min
  in
  let m_arg =
    Arg.(value & opt (some (at_least min)) None & info [ "m" ] ~docv:"M" ~doc)
  in
  Term.(const (fun n m -> (n, Option.value m ~default:n)) $ n_arg $ m_arg)

let scenario_arg =
  let conv_scenario =
    let parse = function
      | "A" | "a" -> Ok Core.Scenario.A
      | "B" | "b" -> Ok Core.Scenario.B
      | s -> Error (`Msg (Printf.sprintf "unknown scenario %S (use A or B)" s))
    in
    Arg.conv (parse, fun fmt s -> Format.fprintf fmt "%s" (Core.Scenario.name s))
  in
  let doc =
    "Removal scenario: A removes a random ball, B removes from a random \
     non-empty bin."
  in
  Arg.(value & opt conv_scenario Core.Scenario.A
       & info [ "scenario" ] ~docv:"A|B" ~doc)

let parse_rule s =
  match String.split_on_char ':' s with
  | [ "abku"; d ] | [ "ABKU"; d ] -> (
      match int_of_string_opt d with
      | Some d when d >= 1 -> Ok (Core.Scheduling_rule.abku d)
      | _ -> Error (`Msg "abku:<d> needs d >= 1"))
  | [ "adap"; thresholds ] | [ "ADAP"; thresholds ] -> (
      try
        let steps =
          String.split_on_char ',' thresholds |> List.map int_of_string
        in
        Ok (Core.Scheduling_rule.adap (Core.Adaptive.of_list steps))
      with _ -> Error (`Msg "adap:<t0,t1,...> needs non-decreasing ints >= 1"))
  | _ -> Error (`Msg (Printf.sprintf "unknown rule %S (abku:<d> | adap:<list>)" s))

let rule_arg =
  let conv_rule =
    Arg.conv
      (parse_rule, fun fmt r -> Format.fprintf fmt "%s" (Core.Scheduling_rule.name r))
  in
  let doc = "Scheduling rule: abku:<d> or adap:<t0,t1,...>." in
  Arg.(value & opt conv_rule (Core.Scheduling_rule.abku 2)
       & info [ "rule" ] ~docv:"RULE" ~doc)

let steps_arg ~default =
  let doc = "Number of process steps." in
  Arg.(value & opt int default & info [ "steps" ] ~docv:"STEPS" ~doc)

let reps_arg ~default ~doc =
  Arg.(value & opt positive default & info [ "reps" ] ~docv:"REPS" ~doc)

let d_arg ~doc = Arg.(value & opt positive 2 & info [ "d" ] ~docv:"D" ~doc)
let adversarial_arg ~doc = Arg.(value & flag & info [ "adversarial" ] ~doc)

let domains_arg ~doc =
  Arg.(value & opt positive 1 & info [ "domains" ] ~docv:"N" ~doc)

(* Refuse, with exit 2, a size the command's paper bound is undefined
   at. *)
let require cmd ok what =
  if not ok then begin
    Printf.eprintf "repro %s: %s\n" cmd what;
    exit 2
  end

(* ---- the paper's per-scenario choices ---- *)

(* The mean-field fixed point of the fluid limit. *)
let fixed_point = function
  | Core.Scenario.A -> Fluid.Mean_field.fixed_point_a
  | Core.Scenario.B -> Fluid.Mean_field.fixed_point_b

(* The growth scale of recovery from all-in-one, and the multiple of it
   at which a run gives up. *)
let recovery_scale scenario ~n =
  match scenario with
  | Core.Scenario.A -> (Theory.Bounds.recovery_a_steps ~n, 500)
  | Core.Scenario.B -> (Theory.Bounds.recovery_b_steps ~n, 100)

(* The coalescence scale (Theorem 1's tau(1/4) for A, the improved
   m^2 ln m for B), and the multiple of it at which a coupling run gives
   up.  m^2 ln m is undefined at one ball, so B refuses m < 2. *)
let coalescence_scale cmd scenario ~m =
  match scenario with
  | Core.Scenario.A -> (Theory.Bounds.theorem1 ~m ~eps:0.25, 100)
  | Core.Scenario.B ->
      require cmd (m >= 2) "scenario B needs m >= 2 balls";
      (Theory.Bounds.scenario_b_improved ~m, 200)

(* The paper's bound on tau(eps): Theorem 1 for A, Claim 5.3 for B, with
   B's improved m^2 ln m after it when [improved]. *)
let print_bound ?(improved = false) scenario ~n ~m ~eps =
  match scenario with
  | Core.Scenario.A ->
      Printf.printf "Theorem 1 bound: %.0f\n" (Theory.Bounds.theorem1 ~m ~eps)
  | Core.Scenario.B ->
      Printf.printf "Claim 5.3 bound: %.0f" (Theory.Bounds.claim53 ~n ~m ~eps);
      if improved then
        Printf.printf "; improved m^2 ln m: %.0f"
          (Theory.Bounds.scenario_b_improved ~m);
      print_char '\n'

let process_name scenario rule ~n =
  Core.Dynamic_process.name (Core.Dynamic_process.make scenario rule ~n)

(* ---- simulate ---- *)

let simulate g (n, m) scenario rule steps adversarial =
  let loads =
    if adversarial then begin
      let a = Array.make n 0 in
      a.(0) <- m;
      a
    end
    else Loadvec.Load_vector.to_array (Loadvec.Load_vector.uniform ~n ~m)
  in
  let system = Core.System.create scenario rule (Core.Bins.of_loads loads) in
  Printf.printf "process %s, n = %d, m = %d, %d steps\n"
    (process_name scenario rule ~n) n m steps;
  let probes = Stats.Summary.create () in
  let max_summary = Stats.Summary.create () in
  for _ = 1 to steps do
    Stats.Summary.add_int probes (Core.System.step_probes g system);
    Stats.Summary.add_int max_summary (Core.System.max_load system)
  done;
  Printf.printf "final max load: %d\n" (Core.System.max_load system);
  Printf.printf "mean max load over run: %.2f (worst %d)\n"
    (Stats.Summary.mean max_summary)
    (int_of_float (Stats.Summary.max max_summary));
  Printf.printf "probes per insertion: %.3f\n" (Stats.Summary.mean probes);
  let hist = Stats.Freq.of_values (Core.Bins.loads (Core.System.bins system)) in
  Printf.printf "final load histogram:\n%s"
    (Format.asprintf "%a" Stats.Freq.pp hist)

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run a dynamic allocation process")
    Term.(const simulate $ rng_arg $ size_arg ~min:1 $ scenario_arg $ rule_arg
          $ steps_arg ~default:100_000
          $ adversarial_arg ~doc:"Start with all balls in one bin.")

(* ---- recover ---- *)

let recover rng (n, m) scenario rule reps target =
  require "recover" (n >= 2) "needs n >= 2 bins";
  let d = match rule with Core.Scheduling_rule.Abku d -> d | Adap _ -> 2 in
  let fluid =
    fixed_point scenario ~d
      ~m_over_n:(float_of_int m /. float_of_int n)
      ~levels:60
  in
  let target =
    match target with
    | Some t -> t
    | None -> Fluid.Mean_field.predicted_max_load ~n fluid + 1
  in
  let spec = { Core.Recovery.scenario; rule; n; m } in
  let scale, patience = recovery_scale scenario ~n in
  let limit = patience * int_of_float scale in
  let meas = Core.Recovery.measure ~rng ~reps spec ~target ~limit in
  Printf.printf
    "recovery of %s from all-in-one to max load <= %d (n=%d, m=%d, %d runs)\n"
    (process_name scenario rule ~n) target n m reps;
  Printf.printf "median %.0f steps [q10 %.0f, q90 %.0f], %d runs hit the limit\n"
    meas.median meas.q10 meas.q90 meas.failures;
  Printf.printf "paper growth scale: %.0f\n" scale

let recover_cmd =
  let target =
    Arg.(value & opt (some int) None
         & info [ "target" ] ~docv:"LOAD"
             ~doc:"Recovery target (default: fluid prediction + 1).")
  in
  Cmd.v
    (Cmd.info "recover" ~doc:"Measure recovery time from the worst state")
    Term.(const recover $ rng_arg $ size_arg ~min:1 $ scenario_arg $ rule_arg
          $ reps_arg ~default:11 ~doc:"Repetitions." $ target)

(* ---- couple ---- *)

let couple rng (n, m) scenario rule reps =
  let scale, patience = coalescence_scale "couple" scenario ~m in
  let process = Core.Dynamic_process.make scenario rule ~n in
  let coupled = Core.Coupled.monotone process in
  let meas =
    Coupling.Coalescence.measure ~reps ~limit:(patience * int_of_float scale)
      ~rng coupled ~init:(fun _g ->
        ( Loadvec.Mutable_vector.of_load_vector
            (Loadvec.Load_vector.all_in_one ~n ~m),
          Loadvec.Mutable_vector.of_load_vector
            (Loadvec.Load_vector.uniform ~n ~m) ))
  in
  Printf.printf "coalescence of the %s coupling (n=%d, m=%d, %d runs)\n"
    (Core.Dynamic_process.name process) n m reps;
  Printf.printf "median %.0f [q10 %.0f, q90 %.0f], failures %d\n" meas.median
    meas.q10 meas.q90 meas.failures;
  print_bound ~improved:true scenario ~n ~m ~eps:0.25

let couple_cmd =
  Cmd.v
    (Cmd.info "couple" ~doc:"Measure coupling coalescence time")
    Term.(const couple $ rng_arg $ size_arg ~min:1 $ scenario_arg $ rule_arg
          $ reps_arg ~default:15 ~doc:"Repetitions.")

(* ---- edge ---- *)

let edge g n steps adversarial =
  let t =
    if adversarial then Edgeorient.Orientation.adversarial ~n
    else Edgeorient.Orientation.create ~n
  in
  Printf.printf "greedy edge orientation on %d vertices, %d edges\n" n steps;
  Printf.printf "%10s  %s\n" "edges" "unfairness";
  let printed = ref 1 in
  for k = 1 to steps do
    Edgeorient.Orientation.greedy_step g t;
    if k = !printed then begin
      Printf.printf "%10d  %d\n" k (Edgeorient.Orientation.unfairness t);
      printed := 2 * !printed
    end
  done;
  Printf.printf "%10d  %d (final)\n" steps (Edgeorient.Orientation.unfairness t);
  if n >= 4 then
    Printf.printf "Ajtai et al. stationary prediction ~ log2 log2 n = %.2f\n"
      (Theory.Bounds.edge_stationary_unfairness ~n);
  Printf.printf "Theorem 2 recovery scale: n^2 ln^2 n = %.0f\n"
    (Theory.Bounds.theorem2 ~n)

let edge_cmd =
  let vertices =
    Arg.(value & opt (at_least 2) 256
         & info [ "n" ] ~docv:"N" ~doc:"Number of vertices, at least 2.")
  in
  Cmd.v
    (Cmd.info "edge" ~doc:"Run the greedy edge orientation protocol")
    Term.(const edge $ rng_arg $ vertices $ steps_arg ~default:100_000
          $ adversarial_arg ~doc:"Start from the adversarial state.")

(* ---- exact ---- *)

let exact (n, m) scenario rule eps domains block_rows spill checkpoint resume
    max_states starts_mode =
  let count = Markov.Partition_space.count ~n ~m in
  if count > max_states then begin
    Printf.eprintf
      "state space too large for exact analysis (%d > %d states; raise \
       --max-states)\n"
      count max_states;
    exit 2
  end
  else begin
    let process = Core.Dynamic_process.make scenario rule ~n in
    let states = Markov.Partition_space.enumerate ~n ~m in
    let chain =
      Markov.Exact_builder.build ?block_rows ?spill
        (Markov.Exact_builder.enumerated states)
        ~transitions:(Core.Dynamic_process.exact_transitions process)
    in
    Printf.printf "%s on Omega_%d with %d bins: %d states, %d transitions\n"
      (Core.Dynamic_process.name process)
      m n (Array.length states)
      (Markov.Blocked_csr.nnz (Markov.Exact.blocked chain));
    (* Above a few thousand states the all-starts search is the
       dominant cost; monotone-coupling domination makes the extremal
       starts (one full bin, balanced) the interesting ones. *)
    let extremal =
      match starts_mode with
      | `Extremal -> true
      | `All -> false
      | `Auto -> count > 5000
    in
    let starts =
      if not extremal then None
      else
        Some
          (Array.map
             (fun v -> Markov.Exact.index chain v)
             [|
               Loadvec.Load_vector.all_in_one ~n ~m;
               Loadvec.Load_vector.uniform ~n ~m;
             |])
    in
    if extremal then
      Printf.printf "starts: extremal (all-in-one, uniform) of %d states\n"
        (Array.length states);
    let sink =
      Option.map
        (fun path ->
          if (not resume) && Sys.file_exists path then Sys.remove path;
          Printf.printf "checkpointing to %s%s\n" path
            (if resume && Sys.file_exists path then " (resuming)" else "");
          Markov.Exact_checkpoint.file_sink path)
        checkpoint
    in
    let tau =
      match
        Markov.Exact.mixing_time ~eps ~max_t:10_000_000 ~domains ?starts
          ?checkpoint:sink chain
      with
      | tau -> tau
      | exception Failure msg ->
          Printf.eprintf "repro exact: %s\n" msg;
          exit 2
    in
    Printf.printf "exact mixing time tau(%.3f) = %d\n" eps tau;
    let pi = Markov.Exact.stationary chain in
    Printf.printf "stationary distribution (top 5 states):\n";
    let order = Array.init (Array.length pi) (fun i -> i) in
    Array.sort (fun a b -> compare pi.(b) pi.(a)) order;
    Array.iteri
      (fun k i ->
        if k < 5 then
          Printf.printf "  %s : %.4f\n"
            (Format.asprintf "%a" Loadvec.Load_vector.pp
               (Markov.Exact.state chain i))
            pi.(i))
      order;
    print_bound scenario ~n ~m ~eps
  end

let exact_cmd =
  let eps =
    let parse s =
      match float_of_string_opt s with
      | Some e when e > 0. && e < 1. -> Ok e
      | _ ->
          Error
            (`Msg
              (Printf.sprintf "invalid value '%s', expected a number in (0, 1)" s))
    in
    Arg.(value & opt (conv (parse, Format.pp_print_float)) 0.25
         & info [ "eps" ] ~docv:"EPS" ~doc:"Mixing threshold, in (0, 1).")
  in
  let block_rows =
    Arg.(value & opt (some positive) None
         & info [ "block-rows" ] ~docv:"N"
             ~doc:"Rows per blocked-CSR block (default 4096).")
  in
  let spill =
    Arg.(value & opt (some string) None
         & info [ "spill" ] ~docv:"FILE"
             ~doc:"Stream transition blocks to FILE during the build so the \
                   matrix never resides fully in memory.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"FILE"
             ~doc:"Snapshot the stationary solve and mixing search to FILE so \
                   a killed run can resume.")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Resume from an existing checkpoint FILE instead of \
                   deleting it; the resumed run reproduces the uninterrupted \
                   answer exactly.")
  in
  let max_states =
    Arg.(value & opt int 200_000
         & info [ "max-states" ] ~docv:"N"
             ~doc:"Refuse state spaces larger than this.")
  in
  let starts =
    Arg.(value
         & opt
             (enum [ ("auto", `Auto); ("all", `All); ("extremal", `Extremal) ])
             `Auto
         & info [ "starts" ] ~docv:"auto|all|extremal"
             ~doc:"Start states for the mixing search: every state, only the \
                   extremal pair (all-in-one, uniform), or extremal \
                   automatically above 5000 states.")
  in
  Cmd.v
    (Cmd.info "exact" ~doc:"Exact mixing time on a small state space")
    Term.(const exact $ size_arg ~min:1 $ scenario_arg $ rule_arg $ eps
          $ domains_arg
              ~doc:"Worker domains for the mixing search; the result is \
                    identical for any value."
          $ block_rows $ spill $ checkpoint $ resume $ max_states $ starts)

(* ---- fluid ---- *)

let fluid (n, m) scenario d levels =
  let m_over_n = float_of_int m /. float_of_int n in
  let s = fixed_point scenario ~d ~m_over_n ~levels in
  Printf.printf
    "fluid fixed point, scenario %s, d = %d, m/n = %.2f (s_i = fraction of \
     bins with load >= i)\n"
    (Core.Scenario.name scenario) d m_over_n;
  Array.iteri
    (fun i si -> if si > 1e-12 then Printf.printf "  s_%d = %.6f\n" (i + 1) si)
    s;
  Printf.printf "predicted max load at n = %d: %d\n" n
    (Fluid.Mean_field.predicted_max_load ~n s)

let fluid_cmd =
  let levels =
    Arg.(value & opt positive 30
         & info [ "levels" ] ~docv:"L" ~doc:"Truncation level.")
  in
  Cmd.v
    (Cmd.info "fluid" ~doc:"Print the fluid-limit stationary profile")
    Term.(const fluid $ size_arg ~min:1 $ scenario_arg
          $ d_arg ~doc:"Number of choices." $ levels)

(* ---- tv: empirical mixing profile ---- *)

let tv rng (n, m) scenario rule reps =
  let scale, _ = coalescence_scale "tv" scenario ~m in
  let process = Core.Dynamic_process.make scenario rule ~n in
  let step g v =
    Core.Dynamic_process.step_in_place process g v;
    v
  in
  let limit = 2 * int_of_float scale in
  let rec times t acc = if t > limit then List.rev acc else times (4 * t) (t :: acc) in
  let profile =
    Markov.Empirical.decay_profile ~step ~rng
      ~x0:(fun () ->
        Loadvec.Mutable_vector.of_load_vector
          (Loadvec.Load_vector.all_in_one ~n ~m))
      ~y0:(fun () ->
        Loadvec.Mutable_vector.of_load_vector
          (Loadvec.Load_vector.uniform ~n ~m))
      ~times:(times 1 []) ~reps ~observable:Loadvec.Mutable_vector.max_load
  in
  Printf.printf
    "TV distance of the max-load law, adversarial vs balanced start\n";
  Printf.printf "process %s, n = %d, m = %d, %d runs per point\n\n"
    (Core.Dynamic_process.name process) n m reps;
  Printf.printf "%10s  %s\n" "t" "TV estimate";
  List.iter (fun (t, tv) -> Printf.printf "%10d  %.3f\n" t tv) profile;
  Printf.printf "\npaper scale for this scenario: %.0f\n" scale

let tv_cmd =
  Cmd.v
    (Cmd.info "tv" ~doc:"Empirical total-variation decay profile")
    Term.(const tv $ rng_arg $ size_arg ~min:1 $ scenario_arg $ rule_arg
          $ reps_arg ~default:500 ~doc:"Runs per point.")

(* ---- weighted ---- *)

let weighted g (n, m) d tail =
  let t = Core.Weighted.static_run g ~n ~m ~d ~dist:tail in
  Printf.printf "weighted allocation: n = %d, m = %d, d = %d, weights %s\n" n m
    d
    (Core.Weighted.dist_name tail);
  Printf.printf "max load %.3f, total weight %.1f, mean load %.3f\n"
    (Core.Weighted.max_load t)
    (Core.Weighted.total_weight t)
    (Core.Weighted.total_weight t /. float_of_int n)

let weighted_cmd =
  let tail =
    Arg.(value
         & opt
             (enum
                [
                  ("const", Core.Weighted.Constant 1.);
                  ("uniform", Core.Weighted.Uniform_unit);
                  ("exp", Core.Weighted.Exponential 1.);
                  ("pareto", Core.Weighted.Pareto { alpha = 1.5; xmin = 1. });
                ])
             (Core.Weighted.Exponential 1.)
         & info [ "tail" ] ~docv:"const|uniform|exp|pareto"
             ~doc:"Weight distribution.")
  in
  Cmd.v
    (Cmd.info "weighted" ~doc:"Weighted-jobs allocation")
    Term.(const weighted $ rng_arg $ size_arg ~min:0 $ d_arg ~doc:"Choices."
          $ tail)

(* ---- parallel ---- *)

let parallel g (n, m) d rounds =
  let result = Core.Parallel_alloc.run g ~n ~m ~d ~rounds () in
  Printf.printf
    "collision protocol: n = %d, m = %d, d = %d, %d rounds\n" n m d rounds;
  Printf.printf "max load %d, rounds used %d, fallback balls %d\n"
    result.max_load result.rounds_used result.fallback_balls

let parallel_cmd =
  let rounds =
    Arg.(value & opt int 3 & info [ "rounds" ] ~docv:"R" ~doc:"Parallel rounds.")
  in
  Cmd.v
    (Cmd.info "parallel" ~doc:"Parallel collision-protocol allocation")
    Term.(const parallel $ rng_arg $ size_arg ~min:0
          $ d_arg ~doc:"Candidates." $ rounds)

(* ---- removal: Section 7 generalized removal laws ---- *)

let removal g (n, m) rule law =
  let removal_rule =
    match law with
    | `A -> Core.Removal.scenario_a
    | `B -> Core.Removal.scenario_b
    | `Squared -> Core.Removal.load_squared
    | `Heaviest -> Core.Removal.heaviest
  in
  let v =
    Loadvec.Mutable_vector.of_load_vector (Loadvec.Load_vector.all_in_one ~n ~m)
  in
  Printf.printf
    "generalized process: removal %S + %s, n = %d, m = %d, adversarial start\n"
    (Core.Removal.name removal_rule)
    (Core.Scheduling_rule.name rule)
    n m;
  let steps = ref 0 in
  let next = ref 1 in
  Printf.printf "%10s  %s\n" "step" "max load";
  while Loadvec.Mutable_vector.max_load v > 1 + (m / n) && !steps < 100_000_000 do
    if !steps = !next then begin
      Printf.printf "%10d  %d\n" !steps (Loadvec.Mutable_vector.max_load v);
      next := 2 * !next
    end;
    Core.Removal.step removal_rule rule g v;
    incr steps
  done;
  Printf.printf "%10d  %d (final)\n" !steps (Loadvec.Mutable_vector.max_load v)

let removal_cmd =
  let law =
    Arg.(value
         & opt
             (enum
                [
                  ("A", `A); ("a", `A); ("B", `B); ("b", `B);
                  ("squared", `Squared); ("heaviest", `Heaviest);
                ])
             `A
         & info [ "law" ] ~docv:"a|b|squared|heaviest"
             ~doc:"Removal distribution (Section 7 generalization).")
  in
  Cmd.v
    (Cmd.info "removal" ~doc:"Recovery under a generalized removal law")
    Term.(const removal $ rng_arg $ size_arg ~min:0 $ rule_arg $ law)

(* ---- validate: statistical conformance (lib/validate) ---- *)

let contains_substring ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  if nl = 0 then true
  else begin
    let found = ref false in
    for i = 0 to hl - nl do
      if (not !found) && String.sub haystack i nl = needle then found := true
    done;
    !found
  end

let validate quick alpha seed domains json only list_only =
  let subjects =
    if quick then Validate.Subject.quick_catalog ()
    else Validate.Subject.full_catalog ()
  in
  if list_only then
    List.iter
      (fun s ->
        Printf.printf "%-30s %s, %d states\n" (Validate.Subject.name s)
          (Validate.Subject.family s)
          (Validate.Subject.state_count s))
      subjects
  else begin
    let subjects =
      match only with
      | [] -> subjects
      | pats ->
          List.filter
            (fun s ->
              let name = String.lowercase_ascii (Validate.Subject.name s) in
              List.exists
                (fun p ->
                  contains_substring ~needle:(String.lowercase_ascii p) name)
                pats)
            subjects
    in
    if subjects = [] then begin
      prerr_endline "repro validate: no subject matches --only";
      exit 2
    end;
    let report = Validate.Conformance.run ~domains ~quick ~alpha ~seed subjects in
    Validate.Report.print report;
    (match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc
          (Experiment.Json.to_string (Validate.Report.to_json report));
        output_char oc '\n';
        close_out oc;
        Printf.printf "report written to %s\n" path);
    exit (Validate.Report.exit_code report)
  end

let validate_cmd =
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"Run the small CI catalog (one balls-into-bins subject, one \
                   edge orientation) with cheaper sequential budgets.")
  in
  let alpha =
    Arg.(value & opt float 0.01
         & info [ "alpha" ] ~docv:"ALPHA"
             ~doc:"False-FAIL budget per conformance check.")
  in
  let json =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the typed conformance report as JSON to FILE.")
  in
  let only =
    Arg.(value & opt_all string []
         & info [ "only" ] ~docv:"SUBSTR"
             ~doc:"Keep only subjects whose name contains SUBSTR \
                   (case-insensitive, repeatable).")
  in
  let list_only =
    Arg.(value & flag
         & info [ "list" ] ~doc:"List the catalog subjects and exit.")
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Certify simulators against exact chains and paper bounds")
    Term.(const validate $ quick $ alpha $ seed_arg
          $ domains_arg
              ~doc:"Sampling fan-out width; the report is identical for any \
                    value."
          $ json $ only $ list_only)

(* ---- serve / load / query: allocation-as-a-service (lib/serve) ---- *)

let address_conv =
  let parse s =
    match Serve.Wire.parse_address s with
    | Ok a -> Ok a
    | Error m -> Error (`Msg m)
  in
  Arg.conv
    (parse, fun fmt a ->
       Format.fprintf fmt "%s" (Serve.Wire.address_to_string a))

let default_address = Serve.Wire.Unix_sock "/tmp/repro-serve.sock"

let connect_arg =
  let doc = "Server address: unix:PATH or tcp:HOST:PORT." in
  Arg.(value & opt address_conv default_address
       & info [ "connect" ] ~docv:"ADDR" ~doc)

let serve seed (n, m) scenario rule process listen shards dir snapshot_every
    sync () quiet trace trace_sample =
  let cluster =
    { Serve.Cluster.n; m; shards; process; scenario; rule;
      repr = Core.Repr.Array_backed; seed }
  in
  let config =
    { Serve.Server.listen; cluster; dir; snapshot_every; sync; quiet; trace;
      trace_sample }
  in
  try Serve.Server.run config
  with Failure msg | Invalid_argument msg ->
    prerr_endline msg;
    exit 1

let serve_cmd =
  let process =
    let process_conv =
      let parse s =
        match Serve.Process.of_string s with
        | Ok p -> Ok p
        | Error m -> Error (`Msg m)
      in
      Arg.conv (parse, fun fmt p ->
          Format.fprintf fmt "%s" (Serve.Process.name p))
    in
    Arg.(value & opt process_conv Serve.Process.Sequential
         & info [ "process" ] ~docv:"FAMILY"
             ~doc:(Printf.sprintf
                     "Hosted process family (%s): seq shards answer \
                      step/insert/remove, rbb shards answer round/insert \
                      (round-synchronous repeated balls-into-bins; needs an \
                      ABKU rule)."
                     Serve.Process.help))
  in
  let listen =
    Arg.(value & opt address_conv default_address
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Listen address: unix:PATH or tcp:HOST:PORT.")
  in
  let shards =
    Arg.(value & opt int 4
         & info [ "shards" ] ~docv:"S"
             ~doc:"Partition the bins into S contiguous shards.")
  in
  let dir =
    Arg.(value & opt (some string) None
         & info [ "dir" ] ~docv:"DIR"
             ~doc:"State directory (snapshot + journal); a restart — even \
                   after kill -9 — restores from it byte-identically. \
                   Without it the service is ephemeral.")
  in
  let snapshot_every =
    Arg.(value & opt positive 1_000_000
         & info [ "snapshot-every" ] ~docv:"EVENTS"
             ~doc:"Cut a snapshot (and compact the journal) every EVENTS \
                   mutations.")
  in
  let sync =
    Arg.(value & flag
         & info [ "sync" ] ~doc:"fsync the journal after every batch.")
  in
  let domains =
    let one =
      Arg.conv
        ( (fun s ->
            if int_of_string_opt s = Some 1 then Ok ()
            else Error (`Msg "the daemon runs on one domain: only 1 is accepted")),
          fun fmt () -> Format.pp_print_string fmt "1" )
    in
    Arg.(value & opt one ()
         & info [ "domains" ] ~docv:"1"
             ~doc:"Accepted only as 1, and ignored: the daemon applies \
                   every event on one domain.  Kept for command lines that \
                   still pass $(b,--domains 1), such as the steady \
                   benchmark's; any other value is a usage error.")
  in
  let quiet = Arg.(value & flag & info [ "quiet" ] ~doc:"No banner.") in
  let trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Record span trees for sampled requests and write a \
                   Perfetto trace to FILE on graceful shutdown.")
  in
  let trace_sample =
    Arg.(value & opt positive 64
         & info [ "trace-sample" ] ~docv:"N"
             ~doc:"With --trace, sample every Nth request (at most one per \
                   select round) for a full \
                   request/decode/apply/reply span tree.")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the allocation service daemon")
    Term.(const serve $ seed_arg $ size_arg ~min:0 $ scenario_arg $ rule_arg
          $ process $ listen $ shards $ dir $ snapshot_every $ sync $ domains
          $ quiet $ trace $ trace_sample)

let parse_mix s =
  match String.split_on_char ':' s |> List.map int_of_string_opt with
  | [ Some i; Some r; Some p ] when i >= 0 && r >= 0 && p >= 0 && i + r + p = 100
    ->
      Ok { Serve.Load_gen.insert_pct = i; remove_pct = r; probe_pct = p }
  | _ -> Error (`Msg "mix must be INSERT:REMOVE:PROBE percentages summing to 100")

let load connect ops batch mix seed =
  match Serve.Load_gen.run ~connect ~ops ~batch ~mix ~seed () with
  | Ok r ->
      Printf.printf "repro load: %d ops in %.3f s -> %.0f ops/sec (%d errors)\n"
        r.Serve.Load_gen.ops r.seconds r.ops_per_sec r.errors;
      let lat = r.Serve.Load_gen.latency in
      if lat.Obs.Hist.count > 0 then begin
        let p q = Obs.Hist.quantile lat q /. 1e3 in
        Printf.printf
          "repro load: rtt p50 %.1f us, p90 %.1f us, p99 %.1f us, p999 %.1f \
           us (max %.1f us)\n"
          (p 0.5) (p 0.9) (p 0.99) (p 0.999)
          (float_of_int lat.Obs.Hist.max /. 1e3)
      end
  | Error msg ->
      prerr_endline ("repro load: " ^ msg);
      exit 1

let load_cmd =
  let ops =
    Arg.(value & opt positive 200_000
         & info [ "ops" ] ~docv:"N" ~doc:"Requests to send.")
  in
  let batch =
    Arg.(value & opt positive 512
         & info [ "batch" ] ~docv:"N" ~doc:"Pipelined requests per write.")
  in
  let mix =
    let mix_conv = Arg.conv (parse_mix, fun fmt m ->
        Format.fprintf fmt "%d:%d:%d" m.Serve.Load_gen.insert_pct
          m.remove_pct m.probe_pct)
    in
    Arg.(value & opt mix_conv Serve.Load_gen.default_mix
         & info [ "mix" ] ~docv:"I:R:P"
             ~doc:"Traffic mix, insert:remove:probe percentages.")
  in
  Cmd.v
    (Cmd.info "load" ~doc:"Drive mixed traffic against a running service")
    Term.(const load $ connect_arg $ ops $ batch $ mix $ seed_arg)

let parse_query_op s =
  match String.split_on_char ':' s with
  | [ ("probe" | "watermark" | "occupancy" | "ping" | "step" | "round"
      | "remove") as op ] ->
      Ok (Printf.sprintf "{\"op\":%S}" op)
  | [ "insert"; key ] -> (
      match int_of_string_opt key with
      | Some k -> Ok (Printf.sprintf "{\"op\":\"insert\",\"key\":%d}" k)
      | None -> Error (Printf.sprintf "insert:<key> needs an integer, got %S" key))
  | _ -> Error (Printf.sprintf "unknown query op %S" s)

let query connect ops =
  let ops = if ops = [] then [ "probe"; "watermark" ] else ops in
  let lines =
    List.map
      (fun op ->
        match parse_query_op op with
        | Ok line -> line
        | Error msg ->
            prerr_endline ("repro query: " ^ msg);
            exit 2)
      ops
  in
  match Serve.Load_gen.query ~connect lines with
  | Ok replies -> List.iter print_endline replies
  | Error msg ->
      prerr_endline ("repro query: " ^ msg);
      exit 1

let query_cmd =
  let ops =
    Arg.(value & pos_all string []
         & info [] ~docv:"OP"
             ~doc:"Ops to send in order: probe, watermark, occupancy, \
                   ping, step, round, remove, insert:<key> (default: probe \
                   watermark).")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Send one-shot requests to a running service")
    Term.(const query $ connect_arg $ ops)

(* ---- stat: the telemetry client (dashboard / --json / --prom) ---- *)

let stat_die msg =
  prerr_endline ("repro stat: " ^ msg);
  exit 1

let fetch_stats connect fmt =
  let line =
    match fmt with
    | `Json -> {|{"op":"stats"}|}
    | `Prom -> {|{"op":"stats","format":"prom"}|}
  in
  match Serve.Load_gen.query ~connect [ line ] with
  | Ok [ reply ] -> reply
  | Ok _ -> stat_die "unexpected reply count"
  | Error msg -> stat_die msg

let jint ?(default = 0) name j =
  match Experiment.Json.member name j with
  | Some (Experiment.Json.Int i) -> i
  | Some (Experiment.Json.Float f) -> int_of_float f
  | _ -> default

let jfloat ?(default = 0.) name j =
  match Experiment.Json.member name j with
  | Some (Experiment.Json.Float f) -> f
  | Some (Experiment.Json.Int i) -> float_of_int i
  | _ -> default

(* A labelled family of the stats reply as (label value, series). *)
let family ~label name j =
  match Experiment.Json.member name j with
  | Some (Experiment.Json.List series) ->
      List.filter_map
        (fun s ->
          match Experiment.Json.member label s with
          | Some (Experiment.Json.String v) -> Some (v, s)
          | _ -> None)
        series
  | _ -> []

let render_dashboard j =
  let b = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "uptime %.1fs  seq %d  balls %d  max_load %d  watermark %d\n"
    (jfloat "uptime_seconds" j) (jint "seq" j) (jint "balls" j)
    (jint "max_load" j) (jint "watermark" j);
  add
    "clients %d (of %d connections)  requests %d  events %d  errors %d  \
     rounds %d\n"
    (jint "clients" j) (jint "connections" j) (jint "requests" j)
    (jint "events" j) (jint "errors" j) (jint "rounds" j);
  (match Experiment.Json.member "round_ns" j with
  | Some r ->
      add "rounds: mean %.1f us, p99 %.1f us; mean batch %.1f events\n"
        (jfloat "mean" r /. 1e3)
        (jfloat "p99" r /. 1e3)
        (match Experiment.Json.member "batch_events" j with
        | Some be -> jfloat "mean" be
        | None -> 0.)
  | None -> ());
  (match family ~label:"op" "latency_ns" j with
  | [] -> ()
  | ops ->
      add "\n%-10s %10s %11s %11s %11s %11s\n" "op" "count" "p50(us)"
        "p90(us)" "p99(us)" "p999(us)";
      List.iter
        (fun (op, lat) ->
          add "%-10s %10d %11.1f %11.1f %11.1f %11.1f\n" op (jint "count" lat)
            (jfloat "p50" lat /. 1e3)
            (jfloat "p90" lat /. 1e3)
            (jfloat "p99" lat /. 1e3)
            (jfloat "p999" lat /. 1e3))
        ops);
  (match family ~label:"shard" "shard_balls" j with
  | [] -> ()
  | shards ->
      let gauge name shard =
        match List.assoc_opt shard (family ~label:"shard" name j) with
        | Some s -> jint "value" s
        | None -> 0
      in
      add "\n%-6s %10s %9s %10s\n" "shard" "balls" "max_load" "applied";
      List.iter
        (fun (shard, balls) ->
          add "%-6s %10d %9d %10d\n" shard (jint "value" balls)
            (gauge "shard_max_load" shard)
            (gauge "shard_applied" shard))
        shards);
  if Experiment.Json.member "journal_bytes" j <> None then
    add
      "\ndurability: journal %d bytes (flushed %.1fs ago%s), snapshot seq %d \
       (%.1fs ago), %d mutations since\n"
      (jint "journal_bytes" j)
      (jfloat "journal_flush_age_seconds" j)
      (match Experiment.Json.member "journal_sync_age_seconds" j with
      | Some (Experiment.Json.Float s) -> Printf.sprintf ", fsynced %.1fs ago" s
      | _ -> "")
      (jint "snapshot_seq" j)
      (jfloat "snapshot_age_seconds" j)
      (jint "since_snapshot" j);
  Buffer.contents b

let stat connect json prom interval count =
  if json && prom then stat_die "--json and --prom are mutually exclusive";
  if json then print_endline (fetch_stats connect `Json)
  else if prom then begin
    match Experiment.Json.of_string (fetch_stats connect `Prom) with
    | Ok j -> (
        match Experiment.Json.member "text" j with
        | Some (Experiment.Json.String text) -> print_string text
        | _ -> stat_die "malformed reply: no text field")
    | Error msg -> stat_die ("bad reply: " ^ msg)
  end
  else begin
    if interval <= 0. then stat_die "--interval must be positive";
    let forever = count <= 0 in
    let i = ref 0 in
    while forever || !i < count do
      (match Experiment.Json.of_string (fetch_stats connect `Json) with
      | Error msg -> stat_die ("bad reply: " ^ msg)
      | Ok j ->
          if !i > 0 && Unix.isatty Unix.stdout then
            (* redraw in place between refreshes *)
            print_string "\027[2J\027[H";
          print_string (render_dashboard j);
          flush stdout);
      incr i;
      if forever || !i < count then
        try ignore (Unix.select [] [] [] interval)
        with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done
  end

let stat_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"One-shot: print the raw stats reply (one JSON line) and \
                   exit.")
  in
  let prom =
    Arg.(value & flag
         & info [ "prom" ]
             ~doc:"One-shot: print the Prometheus text exposition and exit.")
  in
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECS"
             ~doc:"Dashboard refresh interval.")
  in
  let count =
    Arg.(value & opt int 1
         & info [ "count" ] ~docv:"N"
             ~doc:"Dashboard renders before exiting (0 = refresh until \
                   interrupted).")
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:"Show live telemetry of a running service (latency percentiles, \
             stage costs, shard and durability gauges)")
    Term.(const stat $ connect_arg $ json $ prom $ interval $ count)

(* ---- entry point ---- *)

let () =
  let doc = "recovery time of dynamic allocation processes (SPAA 1998)" in
  let info = Cmd.info "repro" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval ~env:Experiments.Cli.env
       (Cmd.group info
          [
            simulate_cmd; recover_cmd; couple_cmd; edge_cmd; exact_cmd;
            fluid_cmd; tv_cmd; weighted_cmd; parallel_cmd; removal_cmd;
            Experiments.Cli.cmd; validate_cmd; serve_cmd; load_cmd; query_cmd;
            stat_cmd;
          ]))
