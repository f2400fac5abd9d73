(* The benchmark's entry point.

     bench.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1]
               --repro PATH --check-trace PATH

   W is a workload BENCHMARK.json declares, or all (each in turn; the
   default, with seed 1, 30 s, untraced).  The workloads and the names
   and units of the metrics are read from BENCHMARK.json in the
   directory the benchmark runs from, the checkout root.  The run prints
   each metric with its unit and sample count, then one JSON line (see
   Report); it exits 1 when an output check fails.  run.py builds the
   executables and supplies --repro and --check-trace. *)

(* Scratch state of the runs (fixture, state copies, sockets, traces),
   relative to the checkout root the benchmark runs from. *)
let work = ".perfbench-run"

let trace_file workload = Filename.concat work (workload ^ "-trace.json")

let analysis ~checker ~workload ~seed ~seconds ~trace =
  let self = Sys.executable_name in
  let args ~setup_only =
    [ "--worker"; workload; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
      "--trace-file"; trace_file workload ]
    @ if setup_only then [ "--setup-only" ] else []
  in
  let checked_wait c =
    match Proc.wait c with
    | Unix.WEXITED 0 -> ()
    | _ -> failwith ("perfbench: the " ^ workload ^ " worker failed")
  in
  (* Four set-up launches before the measured worker and four after it,
     so that their median spans the run.  A set-up takes 0.15 s at most,
     so nine cost little. *)
  let probe () =
    let c = Proc.spawn self (args ~setup_only:true) in
    checked_wait c;
    c.Proc.setup_s
  in
  let before = if trace then [] else List.init 4 (fun _ -> probe ()) in
  let c = Proc.spawn self (args ~setup_only:false) in
  let (r : Report.t) =
    Fun.protect
      ~finally:(fun () -> checked_wait c)
      (fun () -> Marshal.from_channel c.Proc.out)
  in
  if trace then
    match Layers.check_trace ~checker (trace_file workload) with
    | Ok () -> { r with notes = r.notes @ [ "trace: " ^ trace_file workload ] }
    | Error e -> { r with correct = false; problems = r.problems @ [ e ] }
  else
    let setups = before @ (c.Proc.setup_s :: List.init 4 (fun _ -> probe ())) in
    { r with
      metrics = ("setup_s", Sample.median setups) :: r.metrics;
      samples = ("setup_s", List.length setups) :: r.samples }

let run_one ~repro ~checker ~workload ~seed ~seconds ~trace =
  match workload with
  | "serve-read" -> Serve_bench.run ~repro ~checker ~work ~seed ~seconds ~trace
  | "exact-mix" | "coalesce-sim" -> analysis ~checker ~workload ~seed ~seconds ~trace
  | w -> failwith ("perfbench: no code for the workload " ^ w)

(* A traced run reports every per-layer metric: a layer the workload
   never calls reads 0. *)
let complete (d : Report.declared) ~trace (r : Report.t) =
  if not trace then r
  else
    let missing =
      List.filter_map
        (fun (name, _) ->
          if List.mem_assoc name r.metrics then None else Some (name, 0.))
        d.per_layer
    in
    { r with metrics = r.metrics @ missing }

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | "--setup-only" :: rest -> opts (("setup-only", "1") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | k :: _ ->
        Printf.eprintf "perfbench: bad argument %S\n" k;
        exit 2
  in
  let o = opts [] args in
  let defaults = [ ("workload", "all"); ("seed", "1"); ("seconds", "30"); ("trace", "0") ] in
  let get k =
    match List.assoc_opt k o with
    | Some v -> v
    | None -> (
        match List.assoc_opt k defaults with
        | Some v -> v
        | None ->
            Printf.eprintf "perfbench: missing --%s\n" k;
            exit 2)
  in
  let int k =
    match int_of_string_opt (get k) with
    | Some v -> v
    | None ->
        Printf.eprintf "perfbench: --%s needs an integer\n" k;
        exit 2
  in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace =
    match get "trace" with
    | "0" -> false
    | "1" -> true
    | _ ->
        Printf.eprintf "perfbench: --trace is 0 or 1\n";
        exit 2
  in
  match List.assoc_opt "worker" o with
  | Some workload ->
      Analysis_bench.worker ~workload ~seed ~seconds ~trace
        ~trace_file:(get "trace-file") ~setup_only:(List.mem_assoc "setup-only" o)
  | None ->
      let d = Report.declared "BENCHMARK.json" in
      let repro = get "repro" and checker = get "check-trace" in
      let workload = get "workload" in
      let selected =
        if workload = "all" then d.workloads
        else if List.mem workload d.workloads then [ workload ]
        else begin
          Printf.eprintf "perfbench: unknown workload %S (%s or all)\n" workload
            (String.concat ", " d.workloads);
          exit 2
        end
      in
      if not (Sys.file_exists work) then Unix.mkdir work 0o755;
      let reports =
        List.map
          (fun workload ->
            let r =
              complete d ~trace
                (run_one ~repro ~checker ~workload ~seed ~seconds ~trace)
            in
            Report.print_human d r;
            r)
          selected
      in
      let metrics = if trace then d.per_layer else d.end_to_end in
      let correct = List.for_all (fun r -> r.Report.correct) reports in
      let line =
        match reports with
        | [ r ] -> Report.json_line r ~metrics
        | _ ->
            (* One line over all workloads: metric names are prefixed by
               the workload. *)
            let all =
              { (List.hd reports) with
                Report.workload = "all"; correct;
                attempted = List.fold_left (fun a r -> a + r.Report.attempted) 0 reports;
                failed = List.fold_left (fun a r -> a + r.Report.failed) 0 reports;
                metrics =
                  List.concat_map
                    (fun r ->
                      List.map
                        (fun (n, _) -> (r.Report.workload ^ "/" ^ n, Report.value r n))
                        metrics)
                    reports }
            in
            Report.json_line all
              ~metrics:
                (List.concat_map
                   (fun w -> List.map (fun (n, u) -> (w ^ "/" ^ n, u)) metrics)
                   selected)
      in
      print_endline line;
      exit (if correct then 0 else 1)
