(** The serve daemon: a single-threaded select loop over the
    {!Wire} protocol, feeding batches into a {!Cluster} (optionally
    durable via {!Store}) whose shards apply in parallel on a
    {!Parallel.Pool}.

    Each select round decodes the complete request lines of every
    readable client where they lie in that client's input buffer into
    one batch, applies it (in [max_batch]-sized chunks — harmless,
    since cluster application is batch-invariant) and answers each
    client in its own request order.  A line that reaches 64 KiB
    without a newline is answered with a typed error (["ok":false],
    ["reply":"error"]) after the client's earlier replies; the daemon
    then half-closes that connection and discards its input until the
    client hangs up.  SIGTERM/SIGINT
    shut the loop down gracefully: flush, snapshot, unlink the Unix
    socket.  A [kill -9] is recovered on the next start by snapshot
    load plus journal replay.

    Every request is timed through its lifecycle stages into an
    always-on {!Telemetry} bank, adjacent stages sharing one clock
    reading; the [stats] wire op renders the bank's registry (JSON or
    Prometheus text).  With [trace] set, a sampled
    1-in-[trace_sample] request (at most one per round) additionally
    records a [serve.request]/[serve.decode]/[serve.apply]/[serve.reply]
    span tree, exported as a Perfetto trace on graceful shutdown. *)

type config = {
  listen : Wire.address;
  cluster : Cluster.config;
  dir : string option;
      (** State directory for snapshot + journal; [None] runs the
          service ephemeral (no durability). *)
  snapshot_every : int;
  sync : bool;  (** [fsync] the journal every batch. *)
  domains : int;  (** Pool width for shard application (1 = inline). *)
  max_batch : int;
  quiet : bool;
  trace : string option;
      (** Record sampled request spans and write a Perfetto trace here
          on graceful shutdown ([None] = no tracing). *)
  trace_sample : int;
      (** Trace every Nth request, at most one per round ([<= 0]
          disables sampling even when [trace] is set). *)
}

val default_config : listen:Wire.address -> cluster:Cluster.config -> config
(** Ephemeral, single-domain, [max_batch = 8192],
    [snapshot_every = 1_000_000], no tracing ([trace_sample = 64]). *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Serve until SIGTERM/SIGINT.  [on_ready] fires once the socket is
    listening (after the banner).
    @raise Failure when a state directory cannot be restored (it
    belongs to a service with different parameters, or is corrupt
    beyond the torn-tail rule). *)
