(* The experiment suite's command line, evaluated by bench/main.exe and
   mounted as `repro bench`.  Every setting of Experiment.Config is a
   flag that declares its environment variable: the variable gives the
   flag's default, the flag wins over it, and --help lists both. *)

open Cmdliner

(* The lookup both front ends evaluate with: an empty variable reads as
   unset.  [getenv] stands in for the process environment in tests. *)
let env ?(getenv = Sys.getenv_opt) name =
  match getenv name with Some "" -> None | v -> v

(* Every count flag of the suite and of `repro` parses through these:
   [at_least k] accepts the integers >= k. *)
let at_least k =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= k -> Ok v
    | _ ->
        Error
          (`Msg
            (Printf.sprintf "invalid value '%s', expected an integer >= %d" s
               k))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive = at_least 1

let config =
  let d = Experiment.Config.default in
  let var ?docv ?absent names name doc =
    Arg.info names ~env:(Cmd.Env.info name) ?docv ?absent ~doc
  in
  let flag names name doc = Arg.(value & flag & var names name doc) in
  let path names name docv doc =
    Arg.(value & opt (some string) None & var names name ~docv doc)
  in
  let make full seed domains csv_dir json_dir trace checkpoint_dir resume
      metrics_dump =
    { Experiment.Config.full; seed; domains; csv_dir; json_dir; trace;
      checkpoint_dir; resume; metrics_dump }
  in
  Term.(
    const make
    $ flag [ "full" ] "BENCH_FULL" "Paper-scale sweeps instead of quick sizes."
    $ Arg.(value & opt int d.seed
           & var [ "seed" ] "BENCH_SEED" ~docv:"N" ~absent:"0xB0B"
               "Root seed; every experiment derives its own streams from it.")
    $ Arg.(value & opt positive d.domains
           & var [ "domains" ] "BENCH_DOMAINS" ~docv:"N"
               "Replication fan-out width; results are identical for any \
                value.")
    $ path [ "csv" ] "BENCH_CSV" "DIR" "Write every table as CSV into $(docv)."
    $ path [ "json" ] "BENCH_JSON" "DIR"
        "Write BENCH_RESULTS.json into $(docv)."
    $ path [ "trace" ] "REPRO_TRACE" "FILE"
        "Write a Chrome/Perfetto trace of the run to $(docv); open it in \
         https://ui.perfetto.dev."
    $ path [ "checkpoint" ] "BENCH_CHECKPOINT" "DIR"
        "Snapshot long exact-analysis runs into $(docv) so a killed run can \
         resume."
    $ flag [ "resume" ] "BENCH_RESUME"
        "Resume from the snapshots left in the checkpoint directory; without \
         it stale snapshots are deleted and the run starts fresh."
    $ flag [ "metrics" ] "BENCH_METRICS"
        "Print the engine counter tables (steps, probes, draws, phases) \
         after instrumented measurements.")

let tags =
  let flatten l = List.filter (( <> ) "") (List.concat l) in
  Term.(
    const flatten
    $ Arg.(value & opt_all (list string) []
           & info [ "tags" ] ~docv:"TAGS"
               ~doc:"Keep only experiments carrying one of the \
                     comma-separated $(docv); repeatable."))

let run config ids list_only verbose tags =
  let specs = Registry.all in
  let ids =
    if list_only then List.map (fun (s : Experiment.Spec.t) -> s.id) specs
    else List.map String.lowercase_ascii ids
  in
  match Experiment.Driver.select specs ~ids ~tags with
  | Error e ->
      prerr_endline
        ("bench: " ^ Experiment.Driver.selection_error_message specs e);
      exit 2
  | Ok selected when list_only ->
      Experiment.Driver.print_list ~verbose selected
  | Ok selected -> ignore (Experiment.Driver.run ~config selected)

let cmd =
  let ids =
    Arg.(value & pos_all string []
         & info [] ~docv:"ID"
             ~doc:"Experiments to run (e1..e25, micro); without one, every \
                   default experiment.")
  in
  let list_only =
    Arg.(value & flag
         & info [ "list" ]
             ~doc:"Print every experiment id with its claim and tags \
                   (honours $(b,--tags)).")
  in
  let verbose =
    Arg.(value & flag
         & info [ "v"; "verbose" ]
             ~doc:"With $(b,--list): show each spec's quick/full grid.")
  in
  let exits =
    Cmd.Exit.info 2 ~doc:"on an unknown id or tag, or an empty selection."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "bench" ~exits ~doc:"Run the paper's experiment suite")
    Term.(const run $ config $ ids $ list_only $ verbose $ tags)
