(** Always-on telemetry for the serve daemon.

    A bank of raw {!Obs.Hist} instruments — atomic, domain-safe, and
    deliberately {e not} gated on [Obs.enabled ()]: the daemon measures
    its own latency whether or not a trace is being recorded, while the
    global Obs flag keeps governing spans and the named registries (the
    zero-overhead disabled-path contract of the step loops is
    untouched).

    Request lifecycle stages are timed per op type
    ([decode -> route -> shard-apply -> reply], see {!stage}); the
    server also records end-to-end service latency per request, events
    per round, and per-shard drain cost and queue depth.  Stage timing
    costs two monotonic-clock reads (~20-25ns each) per stage, ~5-10%
    of the request budget at the ~500k ops/sec mark — documented in
    DESIGN.md ("Serving observability").

    The report builders take plain data for the gauges the bank cannot
    see itself (cluster totals, durability state, connections) and
    render the [stats] wire reply: structured JSON fields
    ({!report_json}) or a Prometheus text exposition
    ({!report_prom}). *)

type t

val create : shards:int -> t
(** A fresh bank for a cluster of [shards] shards (the per-shard
    histograms are indexed by shard id). *)

val uptime_s : t -> float

(** {2 Op taxonomy}

    Stage and latency histograms are keyed by a small op index covering
    the wire vocabulary (events, [ping], [stats]) plus a pseudo-op for
    unparseable requests. *)

val op_count : int
val op_of_event : Engine.Event.t -> int
val op_ping : int
val op_stats : int
val op_error : int
val op_name : int -> string

(** {2 Recording} *)

type stage =
  | Decode  (** Wire parse of one request line (per request). *)
  | Route  (** Router draw + queue push of one mutation (per event). *)
  | Apply  (** Shard state-machine application (per event). *)
  | Reply  (** Reply formatting into the client buffer (per request). *)

val observe_stage : t -> stage -> op:int -> int64 -> unit
(** Record one stage duration in nanoseconds for op index [op]. *)

val observe_latency : t -> op:int -> int64 -> unit
(** End-to-end service time of one request: parse start to reply
    buffered. *)

val observe_batch : t -> int -> unit
(** Events in one applied round. *)

val observe_round : t -> int64 -> unit
(** Duration of one round (drain to replies buffered). *)

val observe_drain : t -> shard:int -> depth:int -> int64 -> unit
(** One drain pass over a shard's queue: its depth and duration. *)

(** {2 Report inputs} *)

type totals = {
  connections : int;
  live : int;
  requests : int;
  events : int;
  errors : int;
  rounds : int;
}

type shard_gauges = {
  shard : int;
  bins : int;
  balls : int;
  shard_max_load : int;
  shard_watermark : int;
  applied : int;
  queue_depth : int;  (** Pending (unflushed) events right now. *)
}

type durability = {
  journal_bytes : int;
  flush_age_s : float;
  sync_age_s : float option;  (** [None] = never fsynced. *)
  snapshot_seq : int;
  snapshot_age_s : float;
  since_snapshot : int;
}

type cluster_gauges = {
  seq : int;
  balls_total : int;
  max_load : int;
  watermark : int;
}

(** {2 Exposition} *)

val hist_fields : Obs.Hist.snapshot -> (string * Experiment.Json.t) list
(** count / sum / max / mean / p50 / p90 / p99 / p999 of one
    histogram, the JSON shape every latency field of the report uses. *)

val report_json :
  t ->
  totals:totals ->
  cluster:cluster_gauges ->
  shards:shard_gauges list ->
  durability:durability option ->
  (string * Experiment.Json.t) list
(** The [stats] reply fields: top-level gauges, [ops] (per-op latency
    and stage histograms, empty ops omitted), [shards] (gauges plus
    drain histograms), and [durability] when the service has a store. *)

val report_prom :
  t ->
  totals:totals ->
  cluster:cluster_gauges ->
  shards:shard_gauges list ->
  durability:durability option ->
  string
(** The same report as a Prometheus text exposition ([# HELP] /
    [# TYPE] preambles; histograms as pre-computed quantile samples
    with [_count] / [_sum] companions). *)
