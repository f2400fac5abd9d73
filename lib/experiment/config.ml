(* Run configuration for the experiment harness.  Environment variables
   give the historical defaults; the CLI flags of [bench/main.exe] and
   [repro bench] override them.  Every variable any harness reads lives
   in [env_table] below — one documented table instead of scattered
   [Sys.getenv_opt] calls. *)

type t = {
  full : bool;  (** Paper-scale sweeps (minutes to hours) instead of quick. *)
  seed : int;  (** Root seed; every experiment derives independent streams. *)
  domains : int;  (** Replication fan-out width (results are identical for any value). *)
  csv_dir : string option;  (** Dump every table as CSV into this directory. *)
  json_dir : string option;  (** Write [BENCH_RESULTS.json] into this directory. *)
  trace : string option;  (** Write a Chrome/Perfetto trace of the run here. *)
  checkpoint_dir : string option;
      (** Snapshot long exact-analysis runs into this directory. *)
  resume : bool;  (** Resume from existing snapshots instead of replacing them. *)
  metrics_dump : bool;
      (** Print the engine counter tables (steps, probes, draws,
          phases) after instrumented measurements. *)
  repr : Core.Repr.t;  (** State-representation backend for the stepper hot paths. *)
}

let default =
  {
    full = false;
    seed = 0xB0B;
    domains = 1;
    csv_dir = None;
    json_dir = None;
    trace = None;
    checkpoint_dir = None;
    resume = false;
    metrics_dump = false;
    repr = Core.Repr.Array_backed;
  }

(* The single source of truth for the harness environment.  [load]
   reads exactly these variables; [env_help] renders this table for
   --help output and the docs quote it. *)
let env_table =
  [
    ("BENCH_FULL", "flag", "paper-scale sweeps instead of quick sizes");
    ("BENCH_SEED", "int", "root seed (default 0xB0B)");
    ("BENCH_DOMAINS", "int >= 1", "replication fan-out width (results identical for any value)");
    ("BENCH_CSV", "dir", "write every table as CSV into DIR");
    ("BENCH_JSON", "dir", "write BENCH_RESULTS.json into DIR");
    ("BENCH_METRICS", "flag", "dump engine counter tables (steps, probes, draws, phases)");
    ("BENCH_CHECKPOINT", "dir", "snapshot long exact-analysis runs into DIR");
    ("BENCH_RESUME", "flag", "resume from snapshots left in BENCH_CHECKPOINT");
    ("BENCH_REPR", "name", "stepper state backend: array (default), counts, counts-sampled");
    ("REPRO_TRACE", "file", "write a Chrome/Perfetto trace of the run to FILE");
  ]

let env_help () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "environment variables (flags override them):\n";
  List.iter
    (fun (name, kind, doc) ->
      Buffer.add_string buf (Printf.sprintf "  %-17s %-9s %s\n" name kind doc))
    env_table;
  Buffer.contents buf

(* An empty value counts as unset. *)
let env name =
  match Sys.getenv_opt name with Some "" -> None | v -> v

let env_flag name =
  match env name with Some ("1" | "true" | "yes") -> true | _ -> false

(* A set but malformed value fails loudly instead of silently running
   the default. *)
let env_int name ~min ~default =
  match env name with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some v when v >= min -> v
      | _ ->
          let bound = if min = min_int then "" else Printf.sprintf " >= %d" min in
          invalid_arg
            (Printf.sprintf "%s: expected an integer%s, got %S" name bound s))

let env_repr name =
  match env name with
  | None -> Core.Repr.Array_backed
  | Some s -> (
      match Core.Repr.of_string s with
      | Ok r -> r
      | Error msg -> invalid_arg (name ^ ": " ^ msg))

let load () =
  {
    full = env_flag "BENCH_FULL";
    seed = env_int "BENCH_SEED" ~min:min_int ~default:0xB0B;
    domains = env_int "BENCH_DOMAINS" ~min:1 ~default:1;
    csv_dir = env "BENCH_CSV";
    json_dir = env "BENCH_JSON";
    trace = env "REPRO_TRACE";
    checkpoint_dir = env "BENCH_CHECKPOINT";
    resume = env_flag "BENCH_RESUME";
    metrics_dump = env_flag "BENCH_METRICS";
    repr = env_repr "BENCH_REPR";
  }

let mode_name cfg = if cfg.full then "FULL" else "quick"

(* The harness banner string predates the framework; keep it verbatim. *)
let mode_description cfg =
  if cfg.full then "FULL" else "quick (set BENCH_FULL=1 for paper-scale)"

let rng cfg = Prng.Rng.create ~seed:cfg.seed ()

(* Every experiment derives an independent stream so that adding or
   reordering experiments does not perturb the others. *)
let rng_for cfg ~experiment =
  let g = Prng.Rng.create ~seed:(cfg.seed + (0x9E37 * experiment)) () in
  ignore (Prng.Rng.bits64 g);
  g
