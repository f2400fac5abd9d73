(** Tracing and telemetry.

    One subsystem for every layer (engine, exact analysis, experiment
    framework, serve daemon): nestable {e spans} on a monotonic clock,
    a {e registry} of named counters, gauges and log-bucketed
    histograms with a JSON and a Prometheus view, and a Chrome/Perfetto
    trace-event JSON export.

    {b Overhead contract.}  Everything is gated on one static flag set
    by {!enable}: while disabled (the default), every recording entry
    point is a single load-and-branch with {e no allocation}, so
    instrumented step loops keep their throughput.  Call sites that
    would allocate just to build span attributes must guard on
    {!enabled} themselves.

    {b Determinism contract.}  Events buffer per domain and are merged
    by sorting on the (track, seq) key.  Work fanned out over domains
    records under explicit task tracks ({!task_base} / {!in_task}), so
    the merged trace is identical for any domain count once timestamps
    are stripped. *)

val enabled : unit -> bool
(** Whether recording is on.  Guard any instrumentation that allocates
    (attribute lists, formatted strings) behind this. *)

val enable : unit -> unit
(** Turn recording on (idempotent).  Call from the main domain before
    the instrumented work starts; also pins the calling domain's buffer
    to track 0. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop all buffered events and zero every {!Counter} and {!Histogram}
    (they stay registered).  Also resets the task-track allocator. *)

(** Monotonic wall-clock (CLOCK_MONOTONIC): immune to NTP adjustments,
    which can make [Unix.gettimeofday] deltas negative or inflated. *)
module Clock : sig
  val now_ns : unit -> int64

  val now_int : unit -> int
  (** {!now_ns} as an immediate int.  Unlike {!now_ns}, whose result
      is boxed wherever the call is not inlined (every other module of a
      build without cross-module inlining), it allocates nothing. *)

  val ns_since : int64 -> int64
  (** Nanoseconds elapsed since an earlier {!now_ns}, clamped at zero. *)

  val seconds_since : int64 -> float
  (** {!ns_since} in seconds (clamped at zero). *)

  val seconds_of_ns : int64 -> float
end

(** Log-bucketed histogram: the pure, domain-safe data structure behind
    {!Histogram}.  Bucket 0 holds values [<= 0]; bucket [k >= 1] holds
    the k-bit values [2^(k-1) .. 2^k - 1]. *)
module Hist : sig
  type t

  val create : unit -> t

  val observe : t -> int -> unit
  (** Record one value.  Atomic; safe from any domain, and the totals
      are deterministic for any fan-out (sums commute).  Unlike the
      {!Histogram} wrapper this is {e not} gated on {!enabled}. *)

  val bucket_of : int -> int

  type snapshot = {
    count : int;
    sum : int;
    max : int;  (** [min_int] when empty. *)
    buckets : (int * int * int) list;
        (** Non-empty buckets as [(lo, hi, count)], in value order. *)
  }

  val snapshot : t -> snapshot
  val reset : t -> unit
  val mean : snapshot -> float

  val empty : snapshot
  (** The identity of {!merge}. *)

  val merge : snapshot -> snapshot -> snapshot
  (** Combine two snapshots as if their observation streams had been
      interleaved into one histogram: bucket counts, totals and the max
      all combine cell-by-cell, so merging is associative and
      commutative with {!empty} as identity, and
      [merge (snapshot a) (snapshot b)] equals the snapshot of a
      histogram fed both streams. *)

  val quantile : snapshot -> float -> float
  (** [quantile s q] estimates the [q]-quantile ([q] clamped to
      [0..1]) by linear interpolation within the bucket holding rank
      [q * count]; the top bucket's edge is pulled in to the recorded
      max.  Monotone in [q]; exact to within the width of the bucket
      containing the true order statistic; [nan] when empty. *)

  val percentiles : snapshot -> (string * float) list
  (** [("p50", _); ("p90", _); ("p99", _); ("p999", _)] via
      {!quantile} — the latency summary the serve layer exports. *)
end

(** Named instruments and their two derived views.

    A series is a name, a label set, a help string, a kind (counter,
    gauge or histogram) and a read that runs on every scrape.  Series
    sharing a name form a {e family} of one kind.  Both views leave out
    a series with nothing to show (an empty histogram, a gauge whose
    read returns [None], a gated {!Counter} that never fired) and a
    family with no series left.

    {!Registry.global} holds the gated {!Counter} and {!Histogram}
    instruments; any other owner (the serve daemon) makes its own with
    {!Registry.create}. *)
module Registry : sig
  type t

  val create : unit -> t
  val global : t

  val counter :
    t -> ?labels:(string * string) list -> help:string -> string ->
    (unit -> int) -> unit
  (** Register a monotone count.
      @raise Invalid_argument if the name and labels are already
      registered, or the name has another kind (likewise below). *)

  val gauge :
    t -> ?labels:(string * string) list -> help:string -> string ->
    (unit -> int) -> unit

  val gauge_float :
    t -> ?labels:(string * string) list -> help:string -> string ->
    (unit -> float option) -> unit

  val histogram :
    t -> ?labels:(string * string) list -> help:string -> string ->
    Hist.t -> unit
  (** Register a histogram the owner observes directly: recording
      never goes through the registry. *)

  val to_json : t -> (string * Common.Json.t) list
  (** One field per family, named like the series.  An unlabelled
      series is its value: an int, a float, or a histogram object with
      [count], [sum], [max], [mean], [p50]/[p90]/[p99]/[p999] and its
      non-empty [buckets] ([lo], [hi], [count]).  A labelled family is
      a list of objects, each its labels as string fields plus [value]
      or the histogram fields. *)

  val to_prom : prefix:string -> t -> string
  (** The Prometheus text exposition: per metric one [# HELP] and one
      [# TYPE] line, then its samples.  A family's metric is
      [prefix ^ name]; counters add [_total]; histograms become
      quantile gauges with [_count] and [_sum] counter companions.
      Label values are escaped once: backslash, double quote and
      newline. *)
end

(** Named gated counters (e.g. spmv calls), registered in
    {!Registry.global}.  [make] finds or registers by name (idempotent);
    increments are atomic and no-ops while disabled. *)
module Counter : sig
  type t

  val make : string -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

(** Named gated histograms (probes per insertion, coalescence times,
    spmv row cost, load watermarks), registered in {!Registry.global}.
    [make] finds or registers by name (idempotent); observation is a
    no-op while disabled. *)
module Histogram : sig
  type t

  val make : string -> t
  val observe : t -> int -> unit
  val snapshot : t -> Hist.snapshot
end

val counters : unit -> (string * int) list
(** Global counters that recorded something, sorted by name: a flat
    view of {!Registry.global} for looking one counter up by name. *)

(** {1 Spans} *)

type arg = Int of int | Float of float | Str of string

type span
(** A span in flight.  While disabled this is a static constant: the
    begin/end pair costs two branches and allocates nothing. *)

val null_span : span

val begin_span : ?args:(string * arg) list -> string -> span
val end_span : ?args:(string * arg) list -> span -> unit
(** End-side [args] (results: a mixing time, a TV distance) are appended
    to the begin-side ones. *)

val with_span : ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span (closed also on exception). *)

val instant : ?args:(string * arg) list -> string -> unit
(** A zero-duration marker event. *)

val counter_sample : string -> int -> unit
(** A point on a named timeline (trace-event phase ["C"]), e.g. the load
    watermark over time. *)

(** {1 Tasks — deterministic parallel merge} *)

val task_base : count:int -> int
(** Reserve [count] consecutive track ids.  Call on the main domain
    before a fan-out; give task [i] the track [base + i] via
    {!in_task}.  Allocation order is deterministic as long as the calls
    themselves are. *)

val in_task : int -> (unit -> 'a) -> 'a
(** Run the thunk with the current domain's buffer retargeted to the
    given track, with a fresh span sequence; restores the previous
    track/sequence after (also on exception).  No-op indirection while
    disabled. *)

(** {1 Export} *)

type phase = Complete | Instant | Counter_sample

type event = {
  name : string;
  ph : phase;
  track : int;
  seq : int;
  ts_ns : int64;
  dur_ns : int64;  (** 0 unless [Complete]. *)
  args : (string * arg) list;
}

val events : unit -> event list
(** All buffered events merged across domains, sorted by (track, seq). *)

val trace_json : unit -> string
(** The merged events as Chrome/Perfetto trace-event JSON (object form,
    ["traceEvents"] array; [ts]/[dur] in microseconds, [pid] constant 1,
    [tid] = track).  Open in https://ui.perfetto.dev or
    chrome://tracing. *)

val write_trace : path:string -> unit
(** Write {!trace_json} to a file. *)
