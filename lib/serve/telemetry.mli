(** Always-on telemetry for the serve daemon.

    A bank of raw {!Obs.Hist} instruments, atomic, domain-safe and
    deliberately {e not} gated on [Obs.enabled ()]: the daemon measures
    its own latency whether or not a trace is being recorded.  Each
    timed {!stage} costs two monotonic-clock reads.

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
