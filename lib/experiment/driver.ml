(* Orchestration: select specs, run them under one configuration,
   and route results to the sinks.  The stdout stream (banner, headings,
   aligned tables) is byte-identical to the pre-framework harness in
   default mode. *)

let results_file = "BENCH_RESULTS.json"

type selection_error =
  | Unknown_ids of string list
  | Unknown_tags of string list  (* no spec at all carries them *)
  | Empty_selection  (* tag filter matched nothing *)

let known_ids specs =
  String.concat " " (List.map (fun (s : Spec.t) -> s.id) specs)

let known_tags specs =
  List.sort_uniq compare (List.concat_map (fun (s : Spec.t) -> s.tags) specs)

let unknown_tags specs tags =
  let known = known_tags specs in
  List.filter (fun t -> not (List.mem t known)) tags

let selection_error_message specs = function
  | Unknown_ids ids ->
      Printf.sprintf "unknown experiment%s %s; known: %s"
        (if List.length ids > 1 then "s" else "")
        (String.concat " " (List.map (Printf.sprintf "%S") ids))
        (known_ids specs)
  | Unknown_tags tags ->
      Printf.sprintf "unknown tag%s %s; known: %s"
        (if List.length tags > 1 then "s" else "")
        (String.concat " " (List.map (Printf.sprintf "%S") tags))
        (String.concat " " (known_tags specs))
  | Empty_selection -> "no experiment matches the tag filter"

(* Resolve ids (in the order given) and apply the tag filter; [ids = []]
   selects every default spec.  Tags are validated against the union of
   every spec's tags, so a typo is reported as such rather than as an
   empty selection. *)
let select specs ~ids ~tags =
  let base, unknown =
    match ids with
    | [] -> (List.filter (fun (s : Spec.t) -> s.default) specs, [])
    | ids ->
        List.fold_left
          (fun (sel, unk) id ->
            match
              List.find_opt (fun (s : Spec.t) -> s.id = id) specs
            with
            | Some s -> (s :: sel, unk)
            | None -> (sel, id :: unk))
          ([], []) ids
        |> fun (sel, unk) -> (List.rev sel, List.rev unk)
  in
  if unknown <> [] then Error (Unknown_ids unknown)
  else
    match unknown_tags specs tags with
    | _ :: _ as bad -> Error (Unknown_tags bad)
    | [] ->
    let selected =
      match tags with
      | [] -> base
      | tags ->
          List.filter
            (fun (s : Spec.t) -> List.exists (fun t -> Spec.has_tag s t) tags)
            base
    in
    if selected = [] then Error Empty_selection else Ok selected

let print_list ?(verbose = false) ?(repr = Core.Repr.Array_backed) specs =
  List.iter
    (fun (s : Spec.t) ->
      Printf.printf "%-6s %s%s\n" s.id s.claim
        (match s.tags with
        | [] -> ""
        | tags -> Printf.sprintf "  [%s]" (String.concat " " tags));
      if verbose then begin
        Printf.printf "       repr: %s\n"
          (if s.uses_repr then Core.Repr.name repr else "array (fixed)");
        match s.grid with
        | None -> Printf.printf "       grid: none\n"
        | Some g ->
            let sizes full = Grid.sizes g ~full in
            let cells full = List.length (sizes full) in
            let reps_str full =
              let r = Grid.reps g ~full in
              if r <= 0 then "" else Printf.sprintf " x %d reps" r
            in
            let fmt ns = String.concat " " (List.map string_of_int ns) in
            Printf.printf "       %s: quick %d cells [%s]%s; full %d cells [%s]%s\n"
              g.Grid.axis (cells false) (fmt (sizes false)) (reps_str false)
              (cells true) (fmt (sizes true)) (reps_str true)
      end)
    specs

let print_banner config =
  Printf.printf
    "Recovery Time of Dynamic Allocation Processes - experiment harness\n";
  Printf.printf "mode: %s, seed: %d\n%!"
    (Config.mode_description config)
    config.Config.seed

(* Telemetry for the results document: the global registry's JSON view,
   i.e. every gated counter and histogram that recorded something
   during the run.  Populated only while tracing is enabled (the
   [tracing] field says which), and influenced by probe scheduling: the
   deterministic view strips the whole section. *)
let telemetry_json () =
  Json.Obj
    (("tracing", Json.Bool (Obs.enabled ()))
    :: Obs.Registry.to_json Obs.Registry.global)

let results_json ~config outcomes =
  Json.Obj
    [
      ("schema", Json.String "repro.bench-results/4");
      ( "config",
        Json.Obj
          [
            ("mode", Json.String (Config.mode_name config));
            ("seed", Json.Int config.Config.seed);
            ("repr", Json.String (Core.Repr.name config.Config.repr));
            ("domains", Json.Int config.Config.domains);
          ] );
      ( "experiments",
        Json.List
          (List.map
             (fun (ctx, seconds) -> Ctx.to_json ctx ~wall_seconds:seconds)
             outcomes) );
      ("telemetry", telemetry_json ());
    ]

let write_results ~dir doc =
  Util.mkdir_p dir;
  let path = Filename.concat dir results_file in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf (Json.to_string doc);
  Buffer.add_char buf '\n';
  Common.Codec.write_file path buf;
  path

(* Run the specs in order under [config]: banner, then per spec the
   heading and body, then the JSON document (written to
   [config.json_dir] when set) and the trace file (when requested).
   Returns the document. *)
let run ?(banner = true) ~config specs =
  if config.Config.trace <> None then Obs.enable ();
  (* The engine reads no environment itself; the config's metrics_dump
     (--metrics / BENCH_METRICS) is forwarded here, once, for the whole
     run. *)
  Engine.Metrics.set_dump config.Config.metrics_dump;
  if banner then print_banner config;
  let outcomes =
    List.map
      (fun (s : Spec.t) ->
        if s.auto_heading then
          Printf.printf "\n#### %s — %s\n%!" (String.uppercase_ascii s.id)
            s.claim;
        let ctx =
          Ctx.make ~config ~id:s.id ~claim:s.claim ~tags:s.tags ~grid:s.grid
        in
        let sp =
          if Obs.enabled () then
            Obs.begin_span "experiment" ~args:[ ("id", Obs.Str s.id) ]
          else Obs.null_span
        in
        let t0 = Obs.Clock.now_ns () in
        let finish () =
          let seconds = Obs.Clock.seconds_since t0 in
          Obs.end_span sp;
          seconds
        in
        (match s.run ctx with
        | () -> ()
        | exception e ->
            ignore (finish ());
            raise e);
        (ctx, finish ()))
      specs
  in
  let doc = results_json ~config outcomes in
  (match config.Config.json_dir with
  | None -> ()
  | Some dir -> ignore (write_results ~dir doc));
  (match config.Config.trace with
  | None -> ()
  | Some path -> Obs.write_trace ~path);
  doc

(* Object keys under which the JSON document stores wall-clock times:
   stripping them must make two runs of the same seed comparable
   byte-for-byte regardless of domain count or machine speed. *)
let timing_keys = [ "wall_seconds"; "phase_seconds" ]

(* "domains" is execution provenance, not a result: the runner splits
   generators before fan-out, so any width yields the same records.
   "telemetry" goes too — it is empty unless tracing is on, and the
   exact layer's probe counts depend on the shared-bound schedule. *)
let deterministic_view doc =
  Json.strip_keys ~keys:("domains" :: "telemetry" :: timing_keys) doc
