(** Durability for the allocation service: snapshots plus an
    append-only event journal.

    Both files open with a versioned magic string
    ([repro.serve-snapshot/5] / [repro.serve-journal/4]) and a service
    {!fingerprint}, encoded with {!Common.Codec}.  Schemas /5 and /4
    carry no representation backend (every shard is array-backed), and
    the snapshot holds no per-level bucket orders and no router ball
    counts (the router reads each restored shard's own); older files
    fail on their magic.  Snapshots are written
    to a temporary sibling and renamed into place; journal records end
    with a trailer written last, so a kill mid-append leaves a torn tail
    that {!replay} stops at ({!Writer.open_at} truncates it).  Records
    carry every routed mutation — including rejected ones, which consume
    no randomness — so restoring a snapshot cut at a record boundary and
    applying each record with [seq >= snapshot.seq] replays the service
    bit-identically ({!Serve.Store} implements that loop). *)

type fingerprint = {
  n : int;
  m : int;
  shards : int;
  seed : int;
  process : string;  (** {!Serve.Process.name} — the hosted family. *)
  scenario : string;  (** {!Core.Scenario.name}. *)
  rule : string;  (** {!Core.Scheduling_rule.name}. *)
}

val fingerprint_of_config : Cluster.config -> fingerprint

(** {2 Snapshots} *)

val save_snapshot : path:string -> fingerprint -> Cluster.state -> unit
(** Atomic (temporary sibling + rename). *)

val load_snapshot : path:string -> fingerprint -> Cluster.state option
(** [None] when the file does not exist.
    @raise Common.Codec.Error when it does but does not decode (an old
    schema, or damage: a kill never leaves a partial snapshot).
    @raise Failure when it names another service. *)

(** {2 Journal} *)

val replay :
  path:string ->
  fingerprint ->
  f:(seq:int -> Engine.Event.t array -> unit) ->
  int option
(** Check the header against the fingerprint, hand each valid record
    to [f] in order, and return the offset past the last one, where
    {!Writer.open_at} continues.  [None] when the file is missing or a
    strict prefix of this fingerprint's header (empty included), as a
    kill inside {!Writer.create} leaves it: start a fresh journal.
    @raise Common.Codec.Error when the header does not decode.
    @raise Failure when it names another service. *)

val fold :
  path:string ->
  init:'a ->
  f:('a -> seq:int -> Engine.Event.t array -> 'a) ->
  'a
(** Fold over the valid record prefix in order ([f acc ~seq events]),
    whatever fingerprint the header names; a torn tail ends the fold,
    and a missing file or an unreadable header folds nothing. *)

module Writer : sig
  type t

  val create : path:string -> fingerprint -> t
  (** Start a fresh journal, truncating any existing file. *)

  val open_at : path:string -> int -> t
  (** Continue an existing journal at an offset {!replay} returned,
      truncating the torn tail after it. *)

  val append : t -> seq:int -> Engine.Event.t array -> unit
  (** Buffered; [events] must be mutations.
      @raise Invalid_argument on a non-mutation event. *)

  val flush : t -> unit

  val sync : t -> unit
  (** {!flush} plus [fsync] — full durability at the cost of a disk
      round-trip per batch. *)

  val close : t -> unit

  (** {3 Durability gauges} *)

  val bytes : t -> int
  (** Bytes written to the journal so far (buffered output included) —
      the on-disk size once flushed. *)

  val flush_age_s : t -> float
  (** Seconds since the journal last reached the OS. *)

  val sync_age_s : t -> float option
  (** Seconds since the last [fsync]; [None] when the writer has never
      synced (the [--sync] flag is off). *)
end
