(* Tests for the declarative experiment framework (lib/experiment):
   filesystem helpers shared by the sinks, the JSON value layer, the
   BENCH_RESULTS.json sink, the cross-domain determinism contract, and
   the suite's command line (bench/cli.ml). *)

let fresh_tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "repro_expfw_%d_%d" (Unix.getpid ()) !counter)
    in
    (* A previous crashed run may have left it behind. *)
    ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir)));
    dir

(* --- Util ------------------------------------------------------------ *)

let test_mkdir_p_nested () =
  let root = fresh_tmp_dir () in
  let deep = List.fold_left Filename.concat root [ "a"; "b"; "c" ] in
  Common.Util.mkdir_p deep;
  Alcotest.(check bool) "deep path exists" true (Sys.is_directory deep);
  (* Idempotent on an existing tree. *)
  Common.Util.mkdir_p deep;
  Alcotest.(check bool) "still exists" true (Sys.is_directory deep)

let test_mkdir_p_race () =
  (* Four domains race to create the same fresh nested path; the lost
     races must be swallowed, not surfaced as Sys_error. *)
  let root = fresh_tmp_dir () in
  let deep = List.fold_left Filename.concat root [ "x"; "y"; "z" ] in
  let worker () =
    try
      Common.Util.mkdir_p deep;
      None
    with exn -> Some (Printexc.to_string exn)
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let errors = List.filter_map Domain.join domains in
  Alcotest.(check (list string)) "no domain raised" [] errors;
  Alcotest.(check bool) "path exists" true (Sys.is_directory deep)

let write_string path s =
  let buf = Buffer.create (String.length s) in
  Buffer.add_string buf s;
  Common.Codec.write_file path buf

let test_mkdir_p_file_conflict () =
  let root = fresh_tmp_dir () in
  Common.Util.mkdir_p root;
  let file = Filename.concat root "plain" in
  write_string file "not a directory\n";
  let raised =
    try
      Common.Util.mkdir_p (Filename.concat file "sub");
      false
    with Sys_error _ -> true
  in
  Alcotest.(check bool) "child of a regular file raises Sys_error" true raised

let test_write_file () =
  let root = fresh_tmp_dir () in
  Common.Util.mkdir_p root;
  let path = Filename.concat root "out.txt" in
  write_string path "first";
  write_string path "second";
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "truncates on rewrite" "second" contents

let test_sanitize_component () =
  Alcotest.(check string)
    "keeps [A-Za-z0-9_-]" "AZaz09_-"
    (Common.Util.sanitize_component "AZaz09_-");
  Alcotest.(check string)
    "replaces the rest" "E1__n__recovery_steps_"
    (Common.Util.sanitize_component "E1: n, recovery steps.");
  Alcotest.(check string)
    "slash is not a path escape" "a_b"
    (Common.Util.sanitize_component "a/b")

(* --- Json ------------------------------------------------------------ *)

let test_json_escaping () =
  let j = Experiment.Json.String "a\"b\\c\nd\re\tf\bg\x0ch\x01i" in
  Alcotest.(check string)
    "control characters escaped"
    "\"a\\\"b\\\\c\\nd\\re\\tf\\bg\\fh\\u0001i\""
    (Experiment.Json.to_string ~indent:0 j)

let test_json_layout () =
  let j =
    Experiment.Json.Obj
      [
        ("a", Experiment.Json.Int 1);
        ("b", Experiment.Json.List [ Experiment.Json.Bool true; Experiment.Json.Null ]);
      ]
  in
  Alcotest.(check string)
    "compact" "{\"a\":1,\"b\":[true,null]}"
    (Experiment.Json.to_string ~indent:0 j);
  Alcotest.(check string)
    "pretty"
    "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    null\n  ]\n}"
    (Experiment.Json.to_string j)

let test_json_floats () =
  let repr f = Experiment.Json.to_string ~indent:0 (Experiment.Json.Float f) in
  Alcotest.(check string) "integral gets a point" "2.0" (repr 2.0);
  Alcotest.(check string) "nan is null" "null" (repr Float.nan);
  Alcotest.(check string) "inf is null" "null" (repr Float.infinity);
  (* Round-trip: the printed representation parses back exactly. *)
  List.iter
    (fun f ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "round-trip %h" f)
        f
        (float_of_string (Experiment.Json.float_repr f)))
    [ 0.1; 1.0 /. 3.0; 1e-300; 6.02214076e23; -2.5 ]

let test_json_strip_member () =
  let open Experiment.Json in
  let doc =
    Obj
      [
        ("keep", Int 1);
        ("wall_seconds", Float 1.5);
        ( "nested",
          List [ Obj [ ("phase_seconds", Float 0.1); ("steps", Int 7) ] ] );
      ]
  in
  let stripped = strip_keys ~keys:[ "wall_seconds"; "phase_seconds" ] doc in
  Alcotest.(check string)
    "timing keys removed at every depth"
    "{\"keep\":1,\"nested\":[{\"steps\":7}]}"
    (to_string ~indent:0 stripped);
  Alcotest.(check bool) "member hit" true (member "keep" doc <> None);
  Alcotest.(check bool) "member miss" true (member "gone" doc = None);
  Alcotest.(check bool) "member on non-obj" true (member "x" (Int 3) = None)

let test_json_parse () =
  let open Experiment.Json in
  let ok s =
    match of_string s with
    | Ok v -> v
    | Error msg -> Alcotest.failf "%S should parse: %s" s msg
  in
  Alcotest.(check bool)
    "scalars" true
    (ok "  null " = Null
    && ok "true" = Bool true
    && ok "-42" = Int (-42)
    && ok "2.5e2" = Float 250.
    && ok "\"a\\u0041\\n\"" = String "aA\n");
  Alcotest.(check bool)
    "containers" true
    (ok "[1, [], {\"k\": false}]" = List [ Int 1; List []; Obj [ ("k", Bool false) ] ]);
  (* Inverse pair: serialize-then-parse is the identity, at any indent. *)
  let doc =
    Obj
      [
        ("s", String "quote\"back\\slash\twide \xe2\x9c\x93");
        ("xs", List [ Int 0; Float 0.1; Null; Bool true ]);
        ("empty", Obj []);
      ]
  in
  Alcotest.(check bool) "round-trip pretty" true (ok (to_string doc) = doc);
  Alcotest.(check bool)
    "round-trip compact" true
    (ok (to_string ~indent:0 doc) = doc);
  (* Surrogate pairs decode to UTF-8. *)
  Alcotest.(check bool)
    "surrogate pair" true
    (ok "\"\\ud83d\\ude00\"" = String "\xf0\x9f\x98\x80");
  let rejects s =
    match of_string s with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool)
    "malformed inputs rejected" true
    (List.for_all rejects
       [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"\\ud83d\""; "\"unterminated" ])

(* --- Driver / sinks -------------------------------------------------- *)

(* A tiny synthetic spec so sink tests do not pay for a real
   experiment's measurement loop. *)
let toy_spec =
  Experiment.Spec.v ~id:"toy" ~claim:"synthetic sink test"
    ~tags:[ "test" ] ~auto_heading:false
    (fun ctx ->
      let t =
        Experiment.Ctx.table ctx ~title:"Toy table" ~columns:[ "n"; "v" ]
      in
      Experiment.Ctx.row ~values:[ ("v", 1.5) ] t [ "1"; "1.5" ];
      Experiment.Ctx.note t "toy note";
      Experiment.Ctx.emit ctx t)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_json_sink_writes_file () =
  let dir = fresh_tmp_dir () in
  let config =
    { Experiment.Config.default with json_dir = Some dir; seed = 42 }
  in
  let doc = Experiment.Driver.run ~banner:false ~config [ toy_spec ] in
  let path = Filename.concat dir Experiment.Driver.results_file in
  Alcotest.(check bool) "BENCH_RESULTS.json written" true (Sys.file_exists path);
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check bool)
    "schema marker present" true
    (contains ~sub:"repro.bench-results/5" contents);
  Alcotest.(check string)
    "file matches the returned document"
    (Experiment.Json.to_string doc ^ "\n")
    contents;
  (* The v2 telemetry section exists even in an untraced run (with
     tracing reported off) and disappears from the deterministic view. *)
  (match Experiment.Json.member "telemetry" doc with
  | Some tele -> (
      match Experiment.Json.member "tracing" tele with
      | Some (Experiment.Json.Bool false) -> ()
      | _ -> Alcotest.fail "telemetry.tracing should be false here")
  | None -> Alcotest.fail "v2 document lacks the telemetry section");
  Alcotest.(check bool)
    "deterministic view strips telemetry" true
    (Experiment.Json.member "telemetry"
       (Experiment.Driver.deterministic_view doc)
    = None)

let test_selection () =
  let specs = Experiments.Registry.all in
  (match Experiment.Driver.select specs ~ids:[ "e1"; "nope"; "bogus" ] ~tags:[] with
  | Error (Experiment.Driver.Unknown_ids bad) ->
      Alcotest.(check (list string)) "unknown ids reported" [ "nope"; "bogus" ] bad
  | _ -> Alcotest.fail "expected Unknown_ids");
  (match Experiment.Driver.select specs ~ids:[] ~tags:[ "no-such-tag" ] with
  | Error (Experiment.Driver.Unknown_tags bad) ->
      Alcotest.(check (list string))
        "unknown tags reported" [ "no-such-tag" ] bad
  | _ -> Alcotest.fail "expected Unknown_tags");
  (match Experiment.Driver.select specs ~ids:[ "e1" ] ~tags:[ "rbb" ] with
  | Error Experiment.Driver.Empty_selection -> ()
  | _ -> Alcotest.fail "expected Empty_selection (valid tag, empty base)");
  (match Experiment.Driver.select specs ~ids:[] ~tags:[ "rbb" ] with
  | Ok sel ->
      Alcotest.(check (list string))
        "the rbb tag selects exactly the RBB experiments" [ "e24"; "e25" ]
        (List.map (fun s -> s.Experiment.Spec.id) sel)
  | _ -> Alcotest.fail "rbb tag selection should succeed");
  match Experiment.Driver.select specs ~ids:[ "e8"; "e1" ] ~tags:[] with
  | Ok [ a; b ] ->
      Alcotest.(check string) "order preserved" "e8" a.Experiment.Spec.id;
      Alcotest.(check string) "order preserved" "e1" b.Experiment.Spec.id
  | _ -> Alcotest.fail "expected two specs in the given order"

let test_registry_complete () =
  let ids = List.map (fun s -> s.Experiment.Spec.id) Experiments.Registry.all in
  let expected =
    List.init 25 (fun i -> Printf.sprintf "e%d" (i + 1)) @ [ "micro" ]
  in
  Alcotest.(check (list string)) "all 25 experiments plus micro" expected ids;
  let defaults =
    List.filter (fun s -> s.Experiment.Spec.default) Experiments.Registry.all
  in
  Alcotest.(check int) "e23 and micro are opt-in" 24 (List.length defaults)

(* Regression: the --tags filter applies before the run, so the JSON
   sink only ever sees the selected specs — the document must agree with
   the filtered stdout, not list every registered experiment. *)
let test_tags_filter_reaches_json_sink () =
  let mk id tags =
    Experiment.Spec.v ~id ~claim:"tag filter test" ~tags ~auto_heading:false
      (fun ctx ->
        let t =
          Experiment.Ctx.table ctx ~title:("tbl-" ^ id) ~columns:[ "n" ]
        in
        Experiment.Ctx.row t [ "1" ];
        Experiment.Ctx.emit ctx t)
  in
  let specs = [ mk "t1" [ "keep" ]; mk "t2" [ "drop" ] ] in
  match Experiment.Driver.select specs ~ids:[] ~tags:[ "keep" ] with
  | Error _ -> Alcotest.fail "selection should succeed"
  | Ok selected ->
      let config = Experiment.Config.default in
      let doc = Experiment.Driver.run ~banner:false ~config selected in
      let ids =
        match Experiment.Json.member "experiments" doc with
        | Some (Experiment.Json.List es) ->
            List.filter_map
              (fun e ->
                match Experiment.Json.member "id" e with
                | Some (Experiment.Json.String id) -> Some id
                | _ -> None)
              es
        | _ -> Alcotest.fail "document lacks the experiments list"
      in
      Alcotest.(check (list string))
        "JSON sink holds exactly the tag-selected specs" [ "t1" ] ids

(* The framework's core determinism contract: the same seed yields the
   same JSON result records whatever the domain fan-out, once
   wall-clock fields are stripped. *)
let test_determinism_across_domains () =
  let e1 =
    List.find (fun s -> s.Experiment.Spec.id = "e1") Experiments.Registry.all
  in
  let run domains =
    let config = { Experiment.Config.default with domains } in
    let doc = Experiment.Driver.run ~banner:false ~config [ e1 ] in
    Experiment.Json.to_string (Experiment.Driver.deterministic_view doc)
  in
  Alcotest.(check string)
    "domains=1 and domains=4 agree on the deterministic view"
    (run 1) (run 4)

(* --- Cli.config ----------------------------------------------------- *)

(* Evaluate [term] on [args] under the fake environment [env], read the
   way both front ends read the real one.  Returns the value or the
   error text cmdliner printed. *)
let eval_cli ?(env = []) term args =
  let err = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer err in
  let getenv name = List.assoc_opt name env in
  let result =
    Cmdliner.Cmd.eval_value ~err:ppf
      ~env:(Experiments.Cli.env ~getenv)
      ~argv:(Array.of_list ("bench" :: args))
      (Cmdliner.Cmd.v (Cmdliner.Cmd.info "bench") term)
  in
  Format.pp_print_flush ppf ();
  match result with
  | Ok (`Ok v) -> Ok v
  | _ -> Error (Buffer.contents err)

(* A malformed value fails loudly, naming the variable, instead of
   silently running the default. *)
let rejects name value () =
  match eval_cli ~env:[ (name, value) ] Experiments.Cli.config [] with
  | Ok _ -> Alcotest.failf "%s=%S should be rejected" name value
  | Error msg ->
      if not (contains ~sub:name msg) then
        Alcotest.failf "%s=%S: message %S does not name the variable" name
          value msg

(* A flag wins over its variable, whose malformed value is then never
   read; an empty variable is unset; a flag variable reads 1 as true;
   --tags repeats and splits at commas. *)
let test_cli_flags_and_variables () =
  let config ?env args =
    match eval_cli ?env Experiments.Cli.config args with
    | Ok c -> c
    | Error msg -> Alcotest.failf "rejected: %s" msg
  in
  let seed = (config ~env:[ ("BENCH_SEED", "abc") ] [ "--seed"; "5" ]).seed in
  Alcotest.(check int) "--seed wins over BENCH_SEED" 5 seed;
  let empty =
    config
      ~env:[ ("BENCH_SEED", ""); ("BENCH_DOMAINS", ""); ("BENCH_CSV", "") ]
      []
  in
  Alcotest.(check bool) "empty variables read as unset" true
    (empty = Experiment.Config.default);
  Alcotest.(check bool) "BENCH_FULL=1 sets full mode" true
    (config ~env:[ ("BENCH_FULL", "1") ] []).full;
  match eval_cli Experiments.Cli.tags [ "--tags"; "a"; "--tags"; "b,c" ] with
  | Ok tags ->
      Alcotest.(check (list string)) "--tags repeats" [ "a"; "b"; "c" ] tags
  | Error msg -> Alcotest.failf "--tags rejected: %s" msg

let suite =
  [
    ("mkdir_p nested", test_mkdir_p_nested);
    ("mkdir_p race", test_mkdir_p_race);
    ("mkdir_p file conflict", test_mkdir_p_file_conflict);
    ("write_file", test_write_file);
    ("sanitize component", test_sanitize_component);
    ("json escaping", test_json_escaping);
    ("json layout", test_json_layout);
    ("json floats", test_json_floats);
    ("json strip/member", test_json_strip_member);
    ("json parse", test_json_parse);
    ("json sink file", test_json_sink_writes_file);
    ("selection", test_selection);
    ("registry complete", test_registry_complete);
    ("tags filter reaches json sink", test_tags_filter_reaches_json_sink);
    ("determinism across domains", test_determinism_across_domains);
    ("config rejects non-integer BENCH_SEED", rejects "BENCH_SEED" "abc");
    ("config rejects non-integer BENCH_DOMAINS", rejects "BENCH_DOMAINS" "abc");
    ("config rejects BENCH_DOMAINS < 1", rejects "BENCH_DOMAINS" "0");
    ("config flags win over variables", test_cli_flags_and_variables);
  ]
  |> List.map (fun (name, f) -> (name, `Quick, f))
