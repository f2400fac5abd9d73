(** Run configuration for the experiment harness. *)

type t = {
  full : bool;  (** Paper-scale sweeps instead of quick sizes. *)
  seed : int;  (** Root seed. *)
  domains : int;  (** Replication fan-out width; results are identical for any value. *)
  csv_dir : string option;  (** Dump every table as CSV into this directory. *)
  json_dir : string option;  (** Write [BENCH_RESULTS.json] into this directory. *)
  trace : string option;  (** Write a Chrome/Perfetto trace of the run here. *)
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
          ([BENCH_REPR] / [--repr]).  Specs that honour it are flagged
          {!Spec.t.uses_repr}; all others run the array oracle
          regardless. *)
}

val default : t
(** Quick mode, seed [0xB0B], one domain, no file sinks, no trace. *)

val env_help : unit -> string
(** Every environment variable the harnesses read, with its kind and
    doc — the one documented table, which {!load} reads exactly —
    rendered for [--help] output. *)

val load : unit -> t
(** [default] overridden by the environment variables {!env_help}
    lists; an empty value counts as unset.
    @raise Invalid_argument naming the variable if [BENCH_SEED] is not
    an integer, [BENCH_DOMAINS] is not an integer [>= 1], or
    [BENCH_REPR] names an unknown backend. *)

val mode_name : t -> string
(** ["quick"] or ["FULL"] — for result provenance. *)

val mode_description : t -> string
(** The harness banner's mode string (kept byte-identical to the
    pre-framework harness). *)

val rng : t -> Prng.Rng.t
(** The root generator. *)

val rng_for : t -> experiment:int -> Prng.Rng.t
(** An independent stream per experiment key, so adding or reordering
    experiments does not perturb the others. *)
