(* Run configuration for the experiment harness.  The suite's command
   line (bench/cli.ml) builds it: one flag per field, each defaulting
   to its BENCH_* environment variable. *)

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

let mode_name cfg = if cfg.full then "FULL" else "quick"

(* The harness banner string predates the framework; keep it verbatim. *)
let mode_description cfg =
  if cfg.full then "FULL" else "quick (set BENCH_FULL=1 for paper-scale)"

(* Every experiment derives an independent stream so that adding or
   reordering experiments does not perturb the others. *)
let rng_for cfg ~experiment =
  let g = Prng.Rng.create ~seed:(cfg.seed + (0x9E37 * experiment)) () in
  ignore (Prng.Rng.bits64 g);
  g
