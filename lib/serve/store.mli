(** Durable allocation service state: a {!Cluster} plus its snapshot
    and write-ahead journal in one directory.

    Every batch journals its mutations (flushed — optionally fsynced —
    before application), so a kill at {e any} point restores, by
    snapshot load plus journal replay, to a state from which the
    surviving event stream produces byte-identical replies.  Snapshots
    are cut at batch boundaries every [snapshot_every] mutations, after
    which the journal is compacted, bounding restore cost. *)

type t

val open_ :
  ?snapshot_every:int ->
  ?sync:bool ->
  dir:string ->
  Cluster.config ->
  (t, string) result
(** Open (creating [dir] as needed) or restore the service.  A fresh
    directory boots a new {!Cluster.create}; an existing one is
    restored from [snapshot.bin] (if any) and the valid prefix of
    [journal.bin], each read once.  [Error _], with nothing written, on
    a fingerprint mismatch (the directory belongs to a service with
    different parameters), a corrupt replay sequence, or a
    [snapshot.bin] or [journal.bin] header that does not decode (the
    message names the file and byte offset; a journal that is a strict
    prefix of its header, as a kill inside its creation leaves, restarts
    instead).  [sync] makes every batch [fsync] (default: flush only).
    @raise Invalid_argument if [snapshot_every <= 0]. *)

val cluster : t -> Cluster.t

val seq : t -> int
(** Mutations routed over the service's whole history. *)

val set_telemetry : t -> Telemetry.t -> unit
(** {!Cluster.set_telemetry} on the store's cluster, plus the
    durability gauges: journal size ([journal_bytes]), flush and fsync
    ages ([journal_flush_age_seconds]; [journal_sync_age_seconds],
    absent before the first fsync), the last snapshot's sequence and
    age ([snapshot_seq], [snapshot_age_seconds]) and the mutations not
    yet covered by a snapshot ([since_snapshot]). *)

val apply_batch : t -> Engine.Event.t array -> Engine.Event.reply array
(** Journal the batch's mutations, then {!Cluster.apply_batch}. *)

val snapshot_now : t -> unit
(** Cut a snapshot at the current (batch-boundary) state and compact
    the journal. *)

val close : t -> unit
(** Snapshot and release the journal handle.  Idempotent. *)
