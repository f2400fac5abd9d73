(* Per-experiment execution context: configuration access, derived RNG
   streams, grid resolution, and the sink pipeline.  Tables built here
   print exactly as the historical bench/exp_util.ml did (byte-identical
   default-mode output); in addition every row may carry typed values
   and engine metrics, which flow into the CSV/JSON sinks. *)

type fit = {
  what : string;
  slope : float;
  r_squared : float;
  expected : string;
  log_exponent : float;
}

type row_record = {
  cells : string list;
  values : (string * float) list;
  metrics : Engine.Metrics.snapshot option;
}

type tbl = {
  table : Stats.Table.t;
  mutable records : row_record list;  (* reversed *)
  mutable fits : fit list;  (* reversed *)
}

type t = {
  config : Config.t;
  id : string;
  claim : string;
  tags : string list;
  grid : Grid.t option;
  start_ns : int64;  (* monotonic experiment start, for the heartbeat *)
  mutable emitted : tbl list;  (* reversed *)
  mutable extras : (string * Json.t) list;  (* reversed *)
}

let make ~config ~id ~claim ~tags ~grid =
  {
    config;
    id;
    claim;
    tags;
    grid;
    start_ns = Obs.Clock.now_ns ();
    emitted = [];
    extras = [];
  }

let full t = t.config.Config.full
let domains t = t.config.Config.domains
let seed t = t.config.Config.seed
let rng t ~experiment = Config.rng_for t.config ~experiment

let sizes t =
  match t.grid with
  | Some g -> Grid.sizes g ~full:(full t)
  | None -> invalid_arg (t.id ^ ": spec declares no grid")

let reps t =
  match t.grid with
  | Some g ->
      let r = Grid.reps g ~full:(full t) in
      if r <= 0 then invalid_arg (t.id ^ ": spec grid declares no reps") else r
  | None -> invalid_arg (t.id ^ ": spec declares no grid")

let scale t ~quick ~full:f = if full t then f else quick

(* Checkpoint file for one unit of work.  The experiment layer only
   hands out paths (the experiment builds its sink); a fresh run
   deletes any stale snapshot so only [--resume] picks one up. *)
let checkpoint_path t ~name =
  match t.config.Config.checkpoint_dir with
  | None -> None
  | Some dir ->
      Common.Util.mkdir_p dir;
      let path =
        Filename.concat dir
          (Common.Util.sanitize_component (t.id ^ "_" ^ name) ^ ".ckpt")
      in
      if (not t.config.Config.resume) && Sys.file_exists path then
        Sys.remove path;
      Some path

(* Full-mode sweeps run for minutes; a heartbeat on stderr shows which
   grid cell is in flight.  Interactive runs only: silent whenever
   stdout (or stderr) is redirected, so logged and golden-diffed output
   is untouched. *)
let heartbeat_wanted t =
  full t && Unix.isatty Unix.stdout && Unix.isatty Unix.stderr

let iter_cells t f =
  let all = sizes t in
  let total = List.length all in
  let hb = heartbeat_wanted t in
  List.iteri
    (fun i n ->
      let sp =
        if Obs.enabled () then
          Obs.begin_span "experiment.cell"
            ~args:[ ("id", Obs.Str t.id); ("size", Obs.Int n) ]
        else Obs.null_span
      in
      Fun.protect ~finally:(fun () -> Obs.end_span sp) (fun () -> f n);
      if hb then
        Printf.eprintf "[%s %d/%d cells, %.0fs elapsed]\n%!" t.id (i + 1) total
          (Obs.Clock.seconds_since t.start_ns))
    all

(* ---- tables ---- *)

let table (_ : t) ~title ~columns =
  { table = Stats.Table.create ~title ~columns; records = []; fits = [] }

let row ?(values = []) ?metrics tbl cells =
  Stats.Table.add_row tbl.table cells;
  tbl.records <- { cells; values; metrics } :: tbl.records

let note tbl s = Stats.Table.add_note tbl.table s

(* Attached documents (e.g. e23's conformance report) ride into the JSON
   sink next to the tables; last set wins per key. *)
let set_extra t key json =
  t.extras <- (key, json) :: List.remove_assoc key t.extras

(* Fit a power law to (size, median) points, optionally dividing out a
   polylog factor first, and attach the result to the table as a note.
   The note text is the historical bench/exp_util.ml one, verbatim; the
   fit additionally becomes a structured record for the JSON sink. *)
let note_exponent tbl ~points ~log_exponent ~expected ~what =
  match points with
  | _ :: _ :: _ ->
      let pts = Array.of_list points in
      let fit =
        if log_exponent = 0. then Stats.Regression.power_law pts
        else Stats.Regression.log_corrected_power_law ~log_exponent pts
      in
      note tbl
        (Printf.sprintf
           "fitted exponent of %s: %.2f (R^2 = %.3f); theorem predicts %s"
           what fit.Stats.Regression.slope fit.Stats.Regression.r_squared
           expected);
      tbl.fits <-
        {
          what;
          slope = fit.Stats.Regression.slope;
          r_squared = fit.Stats.Regression.r_squared;
          expected;
          log_exponent;
        }
        :: tbl.fits
  | _ -> note tbl "too few sizes for an exponent fit"

(* Print the table and hand it to the file sinks.  The CSV sink keeps
   the historical one-file-per-table layout and byte format. *)
let emit t tbl =
  Stats.Table.print tbl.table;
  (match t.config.Config.csv_dir with
  | None -> ()
  | Some dir ->
      Common.Util.mkdir_p dir;
      let path =
        Filename.concat dir
          (Common.Util.sanitize_component (Stats.Table.title tbl.table) ^ ".csv")
      in
      let csv = Buffer.create 4096 in
      Buffer.add_string csv (Stats.Table.to_csv tbl.table);
      Common.Codec.write_file path csv);
  t.emitted <- tbl :: t.emitted

(* ---- cell formatting (historical bench/exp_util.ml helpers) ---- *)

let cell_measurement (m : Engine.Runner.measurement) =
  if Float.is_nan m.median then "(all runs hit limit)"
  else Printf.sprintf "%.0f [%.0f, %.0f]" m.median m.q10 m.q90

let ratio_cell measured predicted =
  if Float.is_nan measured || predicted = 0. then "-"
  else Printf.sprintf "%.3f" (measured /. predicted)

let measurement_values (m : Engine.Runner.measurement) =
  [
    ("median", m.median);
    ("mean", m.mean);
    ("q10", m.q10);
    ("q90", m.q90);
    ("failures", float_of_int m.failures);
    ("runs", float_of_int (Array.length m.times + m.failures));
  ]

(* ---- JSON view ---- *)

let metrics_json (s : Engine.Metrics.snapshot) =
  Json.Obj
    [
      ("steps", Json.Int s.steps);
      ("probes", Json.Int s.probes);
      ("rng_draws", Json.Int s.rng_draws);
      ( "watermark",
        if s.watermark = min_int then Json.Null else Json.Int s.watermark );
      (* Wall-clock lives under this one key so determinism comparisons
         can strip it. *)
      ( "phase_seconds",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.phases) );
    ]

let tbl_json (tbl : tbl) =
  let fit_json (f : fit) =
    Json.Obj
      [
        ("what", Json.String f.what);
        ("slope", Json.Float f.slope);
        ("r_squared", Json.Float f.r_squared);
        ("expected", Json.String f.expected);
        ("log_exponent", Json.Float f.log_exponent);
      ]
  in
  let row_json (r : row_record) =
    Json.Obj
      ([ ("cells", Json.List (List.map (fun c -> Json.String c) r.cells)) ]
      @ (match r.values with
        | [] -> []
        | vs ->
            [
              ( "values",
                Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) vs) );
            ])
      @
      match r.metrics with
      | None -> []
      | Some s -> [ ("metrics", metrics_json s) ])
  in
  Json.Obj
    [
      ("title", Json.String (Stats.Table.title tbl.table));
      ( "columns",
        Json.List
          (List.map (fun c -> Json.String c) (Stats.Table.columns tbl.table))
      );
      ("rows", Json.List (List.rev_map row_json tbl.records));
      ( "notes",
        Json.List
          (List.map (fun n -> Json.String n) (Stats.Table.notes tbl.table)) );
      ("fits", Json.List (List.rev_map fit_json tbl.fits));
    ]

let to_json t ~wall_seconds =
  let grid =
    match t.grid with
    | None -> Json.Null
    | Some g ->
        Json.Obj
          [
            ("axis", Json.String g.Grid.axis);
            ( "sizes",
              Json.List
                (List.map (fun n -> Json.Int n) (Grid.sizes g ~full:(full t)))
            );
            ( "reps",
              let r = Grid.reps g ~full:(full t) in
              if r <= 0 then Json.Null else Json.Int r );
          ]
  in
  Json.Obj
    ([
       ("id", Json.String t.id);
      ("claim", Json.String t.claim);
      ("tags", Json.List (List.map (fun s -> Json.String s) t.tags));
      ("grid", grid);
      ("wall_seconds", Json.Float wall_seconds);
      ("tables", Json.List (List.rev_map tbl_json t.emitted));
    ]
    @
    match t.extras with
    | [] -> []
    | extras -> [ ("extra", Json.Obj (List.rev extras)) ])
