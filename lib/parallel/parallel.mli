(** Multicore fan-out over OCaml 5 domains.

    Experiment repetitions are embarrassingly parallel: every repetition
    owns an independent generator obtained by splitting the root one
    {e before} the fan-out, so results are bit-identical regardless of
    the number of domains.  This module is the small scheduling layer the
    measurement harnesses build on. *)

val recommended_domains : unit -> int
(** The runtime's recommended domain count (at least 1). *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ~domains f xs] maps [f] over [xs] using up to [domains]
    additional domains (default {!recommended_domains}).  [f] must not
    share mutable state across elements.  Order is preserved; with
    [domains <= 1] this is [Array.map].
    @raise Invalid_argument if [domains < 1].  Exceptions raised by [f]
    are re-raised in the caller. *)

val init_array : ?domains:int -> int -> (int -> 'b) -> 'b array
(** [init_array ~domains k f] is [map_array ~domains f [|0..k-1|]].
    @raise Invalid_argument if [k < 0]. *)

(** Persistent worker domains for fine-grained data parallelism.

    {!map_array} spawns fresh domains per call — far too expensive for
    jobs issued once per request batch, as the serve cluster's shard
    flush is (a batch costs tens of microseconds; a domain spawn,
    hundreds).  A pool parks its workers on a condition variable
    between jobs so the per-job cost is one broadcast and one
    barrier. *)
module Pool : sig
  type t

  val create : ?domains:int -> unit -> t
  (** [create ~domains ()] spawns [domains - 1] worker domains (default
      {!recommended_domains}); slice 0 of every job runs on the calling
      domain.  @raise Invalid_argument if [domains < 1]. *)

  val size : t -> int
  (** Total parallelism of the pool, counting the caller. *)

  val run : t -> (int -> int -> unit) -> unit
  (** [run t f] executes [f w size] for every [w] in [0..size-1]
      concurrently and returns when all have finished.  [f] must write
      only to worker-disjoint state.  A pool of size 1 runs [f 0 1]
      inline.  An exception from any slice is re-raised in the caller
      (the caller's own slice wins when several fail); the pool remains
      usable afterwards.
      @raise Invalid_argument if the pool is shut down or already
      running a job. *)

  val shutdown : t -> unit
  (** Stop and join the workers.  Idempotent. *)

  val with_pool : ?domains:int -> (t -> 'a) -> 'a
  (** [with_pool f] runs [f] on a fresh pool and shuts it down on exit,
      normal or exceptional. *)
end
