(** Always-on telemetry for the serve daemon.

    A bank of raw {!Obs.Hist} instruments, atomic, domain-safe and
    deliberately {e not} gated on [Obs.enabled ()]: the daemon measures
    its own latency whether or not a trace is being recorded.  Stages
    that follow each other share a boundary: one {!Obs.Clock.now_int}
    reading ends a stage and starts the next, so a request's decode,
    apply and reply stages cost about one reading each.  Durations are
    nanoseconds, differences of two such readings.

    {!create} also makes the daemon's own {!Obs.Registry} and registers
    the bank in it; the cluster, the store and the server register
    their gauges and counters next to the values they read.  The
    [stats] op renders the registry. *)

type t

val create : shards:int -> t
(** A fresh bank and registry for a cluster of [shards] shards (the
    per-shard histograms are indexed by shard id). *)

val registry : t -> Obs.Registry.t

(** {2 Op taxonomy}

    Stage and latency histograms are keyed by a small op index covering
    the wire vocabulary (events, [ping], [stats]) plus a pseudo-op for
    unparseable requests. *)

val op_of_event : Engine.Event.t -> int
val op_ping : int
val op_stats : int
val op_error : int
val op_name : int -> string

(** {2 Recording} *)

type stage =
  | Decode
      (** One request line: the scan for its newline and its decode,
          from the previous line's end (or the read that brought it). *)
  | Route  (** Router draw + queue push of one mutation (per event). *)
  | Apply
      (** Shard state-machine application of one mutation, or the global
          answer of one query (per event). *)
  | Reply  (** Reply formatting into the client buffer (per request). *)

val observe_stage : t -> stage -> op:int -> int -> unit
(** Record one stage duration in nanoseconds for op index [op]. *)

val observe_latency : t -> op:int -> int -> unit
(** End-to-end service time of one request: decode start to reply
    buffered. *)

val observe_batch : t -> int -> unit
(** Events in one applied round. *)

val observe_round : t -> int -> unit
(** Duration of one round (drain to replies buffered). *)

val observe_drain : t -> shard:int -> depth:int -> int -> unit
(** One drain pass over a shard's queue: its depth and duration. *)
