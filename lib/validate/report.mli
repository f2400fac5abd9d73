(** Rendering and export of conformance reports.

    The text rendering is the [repro validate] CLI output; the JSON
    document (schema ["repro.validate-report/1"]) is what CI archives
    and what [bench] experiment e23 attaches to [BENCH_RESULTS.json]. *)

val schema : string
(** ["repro.validate-report/1"]. *)

val to_json : Conformance.report -> Common.Json.t

val print : Conformance.report -> unit
(** Human-readable report on stdout: a verdict line per check, a
    summary line per subject, and a final overall verdict line. *)

val exit_code : Conformance.report -> int
(** 1 when the overall verdict is Fail, 0 otherwise (Inconclusive does
    not fail a run; it asks for more samples, not for a bug hunt). *)
