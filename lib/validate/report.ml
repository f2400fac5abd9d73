module Json = Common.Json

let schema = "repro.validate-report/1"

let float_or_null v = if Float.is_nan v then Json.Null else Json.Float v

let check_json (c : Conformance.check) =
  Json.Obj
    ([
       ("check", Json.String c.Conformance.check);
       ("verdict", Json.String (Sequential.verdict_name c.Conformance.verdict));
       ("samples", Json.Int c.Conformance.samples);
       ("detail", Json.String c.Conformance.detail);
       ( "stats",
         Json.Obj
           (List.map (fun (k, v) -> (k, float_or_null v)) c.Conformance.stats)
       );
     ]
    @
    match c.Conformance.outcome with
    | None -> []
    | Some o ->
        [
          ( "sequential",
            Json.Obj
              [
                ("looks", Json.Int o.Sequential.looks);
                ("escapes", Json.Int o.Sequential.escapes);
                ("alpha_adjusted", Json.Float o.Sequential.alpha_adjusted);
                ("df", Json.Int o.Sequential.df);
              ] );
        ])

let subject_json (s : Conformance.subject_report) =
  Json.Obj
    [
      ("subject", Json.String s.Conformance.subject);
      ("family", Json.String s.Conformance.family);
      ("states", Json.Int s.Conformance.state_count);
      ("verdict", Json.String (Sequential.verdict_name s.Conformance.verdict));
      ("samples", Json.Int s.Conformance.samples);
      ("checks", Json.List (List.map check_json s.Conformance.checks));
    ]

let to_json (r : Conformance.report) =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("alpha", Json.Float r.Conformance.alpha);
      ("seed", Json.Int r.Conformance.seed);
      ("mode", Json.String (if r.Conformance.quick then "quick" else "full"));
      ("verdict", Json.String (Sequential.verdict_name r.Conformance.verdict));
      ("subjects", Json.List (List.map subject_json r.Conformance.subjects));
    ]

let print (r : Conformance.report) =
  Printf.printf "conformance run: %d subjects, alpha = %g, %s mode\n"
    (List.length r.Conformance.subjects)
    r.Conformance.alpha
    (if r.Conformance.quick then "quick" else "full");
  List.iter
    (fun (s : Conformance.subject_report) ->
      Printf.printf "\n%s (%s, %d states)\n" s.Conformance.subject
        s.Conformance.family s.Conformance.state_count;
      List.iter
        (fun (c : Conformance.check) ->
          Printf.printf "  %-14s %s\n" c.Conformance.check
            c.Conformance.detail)
        s.Conformance.checks;
      Printf.printf "  => %s (%d samples)\n"
        (Sequential.verdict_name s.Conformance.verdict)
        s.Conformance.samples)
    r.Conformance.subjects;
  Printf.printf "\noverall: %s\n"
    (Sequential.verdict_name r.Conformance.verdict)

let exit_code (r : Conformance.report) =
  match r.Conformance.verdict with Sequential.Fail -> 1 | _ -> 0
