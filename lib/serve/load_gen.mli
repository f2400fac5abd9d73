(** Pipelined load driver and one-shot query client for the serve
    daemon. *)

type mix = { insert_pct : int; remove_pct : int; probe_pct : int }
(** Traffic mix in percent; must sum to 100. *)

val default_mix : mix
(** 45 / 45 / 10 insert / remove / probe. *)

type result = {
  ops : int;
  errors : int;  (** Replies with [ok:false] (rejections included). *)
  seconds : float;
  ops_per_sec : float;
  latency : Obs.Hist.snapshot;
      (** Client-observed round-trip nanoseconds per reply, measured
          from the batch write — includes pipeline queueing, so it is
          the end-to-end number a real client would see
          ({!Obs.Hist.percentiles} extracts p50/p90/p99/p999). *)
}

val run :
  connect:Wire.address ->
  ?ops:int ->
  ?batch:int ->
  ?mix:mix ->
  ?seed:int ->
  unit ->
  (result, string) Stdlib.result
(** Drive [ops] seeded pseudo-random requests in pipelined batches of
    [batch] lines, reading the matching replies between writes.
    @raise Invalid_argument on a bad mix, [ops <= 0] or [batch <= 0]. *)

val reply_failed : string -> bool
(** Whether a reply line carries ["ok":false] (a rejection or an
    error), checked in place without allocating. *)

val query :
  connect:Wire.address -> string list -> (string list, string) Stdlib.result
(** Send raw request lines one at a time; returns the reply lines in
    order.  The kill-and-restore smoke diffs these. *)
