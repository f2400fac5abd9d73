(* Benchmark harness: regenerates every experiment table of DESIGN.md /
   EXPERIMENTS.md through the declarative experiment framework
   (lib/experiment).

     dune exec bench/main.exe                      # default specs, quick sizes
     dune exec bench/main.exe -- e1 e8             # a subset
     dune exec bench/main.exe -- micro             # Bechamel per-step costs
     dune exec bench/main.exe -- --list            # ids and claims
     dune exec bench/main.exe -- --full            # paper-scale sweeps
     dune exec bench/main.exe -- --tags recovery   # select by tag
     dune exec bench/main.exe -- e1 --json out/    # + BENCH_RESULTS.json

   The environment variables BENCH_FULL / BENCH_SEED / BENCH_DOMAINS /
   BENCH_CSV / BENCH_JSON still set the defaults; flags override them. *)

let usage () =
  print_string
    "usage: main.exe [IDS] [OPTIONS]\n\
     \n\
     Run the paper's experiments (all default ones when no id is given).\n\
     \n\
     options:\n\
     \  --list           print every experiment id with its claim and tags\n\
     \                   (honours --tags; add -v for grid sizes and reps)\n\
     \  -v, --verbose    with --list: show each spec's quick/full grid\n\
     \  --full           paper-scale sweeps (BENCH_FULL=1)\n\
     \  --seed N         root seed (BENCH_SEED, default 0xB0B)\n\
     \  --domains N      replication fan-out width (BENCH_DOMAINS);\n\
     \                   results are identical for any value\n\
     \  --csv DIR        write every table as CSV into DIR (BENCH_CSV)\n\
     \  --json DIR       write BENCH_RESULTS.json into DIR (BENCH_JSON)\n\
     \  --trace FILE     write a Chrome/Perfetto trace of the run to FILE\n\
     \                   (REPRO_TRACE); open in https://ui.perfetto.dev\n\
     \  --checkpoint DIR snapshot long exact-analysis runs into DIR\n\
     \                   (BENCH_CHECKPOINT) so a killed run can resume\n\
     \  --resume         resume from snapshots left in the checkpoint dir\n\
     \                   (BENCH_RESUME); without it stale snapshots are\n\
     \                   deleted and the run starts fresh\n\
     \  --repr NAME      stepper state backend (BENCH_REPR): array (the\n\
     \                   default oracle), counts, or counts-sampled; only\n\
     \                   experiments flagged in --list -v honour it\n\
     \  --tags A,B       keep only experiments carrying one of the tags\n\
     \  --env            list every environment variable the harness reads\n\
     \  -h, --help       this message\n"

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "main.exe: %s\n%!" msg;
      exit 2)
    fmt

let split_tags s = String.split_on_char ',' s |> List.filter (( <> ) "")

let () =
  let specs = Experiments.Registry.all in
  let cfg =
    ref
      (try Experiment.Config.load ()
       with Invalid_argument msg -> fail "%s" msg)
  in
  let ids = ref [] in
  let tags = ref [] in
  let list_only = ref false in
  let verbose = ref false in
  let int_value flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail "%s expects an integer, got %S" flag v
  in
  (* Accept both "--flag value" and "--flag=value". *)
  let split_eq a =
    match String.index_opt a '=' with
    | Some i when String.length a > 2 && a.[0] = '-' ->
        [ String.sub a 0 i; String.sub a (i + 1) (String.length a - i - 1) ]
    | _ -> [ a ]
  in
  let rec parse = function
    | [] -> ()
    | ("-h" | "--help") :: _ ->
        usage ();
        exit 0
    | "--list" :: rest ->
        list_only := true;
        parse rest
    | "--env" :: _ ->
        print_string (Experiment.Config.env_help ());
        exit 0
    | ("-v" | "--verbose") :: rest ->
        verbose := true;
        parse rest
    | "--trace" :: file :: rest ->
        cfg := { !cfg with trace = Some file };
        parse rest
    | "--full" :: rest ->
        cfg := { !cfg with full = true };
        parse rest
    | "--seed" :: v :: rest ->
        cfg := { !cfg with seed = int_value "--seed" v };
        parse rest
    | "--domains" :: v :: rest ->
        let d = int_value "--domains" v in
        if d < 1 then fail "--domains expects a value >= 1";
        cfg := { !cfg with domains = d };
        parse rest
    | "--csv" :: dir :: rest ->
        cfg := { !cfg with csv_dir = Some dir };
        parse rest
    | "--json" :: dir :: rest ->
        cfg := { !cfg with json_dir = Some dir };
        parse rest
    | "--checkpoint" :: dir :: rest ->
        cfg := { !cfg with checkpoint_dir = Some dir };
        parse rest
    | "--resume" :: rest ->
        cfg := { !cfg with resume = true };
        parse rest
    | "--repr" :: v :: rest ->
        (match Core.Repr.of_string v with
        | Ok repr -> cfg := { !cfg with repr }
        | Error msg -> fail "--repr: %s" msg);
        parse rest
    | "--tags" :: v :: rest ->
        tags := !tags @ split_tags v;
        parse rest
    | [ ("--seed" | "--domains" | "--csv" | "--json" | "--tags" | "--trace"
        | "--checkpoint" | "--repr") as flag ] ->
        fail "%s expects a value" flag
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
        fail "unknown option %S (see --help)" arg
    | id :: rest ->
        ids := String.lowercase_ascii id :: !ids;
        parse rest
  in
  parse (List.concat_map split_eq (List.tl (Array.to_list Sys.argv)));
  if !list_only then begin
    (match Experiment.Driver.unknown_tags specs !tags with
    | [] -> ()
    | bad ->
        fail "%s"
          (Experiment.Driver.selection_error_message specs
             (Experiment.Driver.Unknown_tags bad)));
    let listed =
      match !tags with
      | [] -> specs
      | tags ->
          List.filter
            (fun (s : Experiment.Spec.t) ->
              List.exists (fun t -> Experiment.Spec.has_tag s t) tags)
            specs
    in
    if listed = [] then
      fail "%s"
        (Experiment.Driver.selection_error_message specs
           Experiment.Driver.Empty_selection);
    Experiment.Driver.print_list ~verbose:!verbose ~repr:!cfg.repr listed;
    exit 0
  end;
  match
    Experiment.Driver.select specs ~ids:(List.rev !ids) ~tags:!tags
  with
  | Error e ->
      Printf.eprintf "main.exe: %s\n%!"
        (Experiment.Driver.selection_error_message specs e);
      exit 2
  | Ok selected -> ignore (Experiment.Driver.run ~config:!cfg selected)
