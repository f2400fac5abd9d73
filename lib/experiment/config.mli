(** Run configuration for the experiment harness.  The suite's command
    line ([bench/cli.ml]) sets each field from its flag, or else from
    the environment variable named below. *)

type t = {
  full : bool;  (** Paper-scale sweeps instead of quick sizes ([BENCH_FULL]). *)
  seed : int;  (** Root seed ([BENCH_SEED]). *)
  domains : int;
      (** Replication fan-out width; results are identical for any value
          ([BENCH_DOMAINS]). *)
  csv_dir : string option;
      (** Dump every table as CSV into this directory ([BENCH_CSV]). *)
  json_dir : string option;
      (** Write [BENCH_RESULTS.json] into this directory ([BENCH_JSON]). *)
  trace : string option;
      (** Write a Chrome/Perfetto trace of the run here ([REPRO_TRACE]). *)
  checkpoint_dir : string option;
      (** Snapshot long exact-analysis runs into this directory
          ([BENCH_CHECKPOINT]). *)
  resume : bool;
      (** Resume from existing snapshots instead of replacing them
          ([BENCH_RESUME]). *)
  metrics_dump : bool;
      (** Print engine counter tables after instrumented measurements
          ([BENCH_METRICS]); {!Driver.run} forwards this to
          {!Engine.Metrics.set_dump}. *)
  repr : Core.Repr.t;
      (** State-representation backend for the stepper hot paths
          ([BENCH_REPR]).  Specs that honour it are flagged
          {!Spec.t.uses_repr}; all others run the array oracle
          regardless. *)
}

val default : t
(** Quick mode, seed [0xB0B], one domain, no file sinks, no trace. *)

val mode_name : t -> string
(** ["quick"] or ["FULL"] — for result provenance. *)

val mode_description : t -> string
(** The harness banner's mode string (kept byte-identical to the
    pre-framework harness). *)

val rng_for : t -> experiment:int -> Prng.Rng.t
(** An independent stream per experiment key, so adding or reordering
    experiments does not perturb the others. *)
