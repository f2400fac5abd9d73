(** Identity-based balls-into-bins system.

    While the Markov-chain analysis works on normalized load vectors, the
    {e application} view (Section 1.1: jobs on servers) keeps bin
    identities.  This module is the O(1)-per-operation concrete system
    used by the recovery and max-load experiments: it tracks per-bin
    loads, the ball registry (for scenario-A removal), the non-empty bin
    set (for scenario-B removal) and the maximum load, all incrementally. *)

type t

val create : n:int -> t
(** [n] empty bins. @raise Invalid_argument if [n <= 0]. *)

val of_loads : int array -> t
(** Start from explicit per-bin loads.
    @raise Invalid_argument on an empty array or negative load. *)

val copy : t -> t
(** A fresh system with the same per-bin loads.  Internal orders
    (registry, slot stacks) are canonicalized, not replicated — use
    {!snapshot}/{!of_snapshot} for replay-exact duplication. *)

val n : t -> int
val num_balls : t -> int
val load : t -> int -> int
(** @raise Invalid_argument on a bad bin id. *)

val max_load : t -> int
(** O(1). 0 when empty. *)

val num_nonempty : t -> int

val add_ball : t -> int -> unit
(** @raise Invalid_argument on a bad bin id. *)

val remove_ball_uniform : Prng.Rng.t -> t -> int
(** Scenario-A removal: delete a ball chosen i.u.r. among all balls;
    returns the bin it came from.
    @raise Invalid_argument when there are no balls. *)

val remove_from_random_nonempty : Prng.Rng.t -> t -> int
(** Scenario-B removal: delete one ball from a non-empty bin chosen
    i.u.r.; returns the bin.
    @raise Invalid_argument when there are no balls. *)

val move_ball : t -> src:int -> dst:int -> unit
(** Relocate one ball from [src] to [dst].
    @raise Invalid_argument on bad ids or an empty [src]. *)

val insert_with_rule : Scheduling_rule.t -> Prng.Rng.t -> t -> int * int
(** [insert_with_rule rule g bins] places one new ball by probing bins
    i.u.r. per the rule (least-loaded-so-far wins, ADAP keeps probing
    while its threshold demands).  Returns [(bin, probes_used)]. *)

val reset_loads : t -> int array -> unit
(** Overwrite the state with the given per-bin loads, in place (O(m)) —
    the reset primitive of the simulation engine.
    @raise Invalid_argument on a dimension mismatch or negative load. *)

val loads : t -> int array
(** Snapshot of per-bin loads. *)

val to_load_vector : t -> Loadvec.Load_vector.t

(** {2 Registry snapshots}

    Both removal scenarios sample internal {e orders} — the ball
    registry (scenario A), the non-empty list and per-bin slot stacks
    (scenario B) — so two systems with equal load vectors need not
    replay identically under the same random stream.  A snapshot
    captures every order; {!of_snapshot} rebuilds a system that is
    bit-identical to the original under all subsequent operations.
    This is what makes checkpoint/restore of a live system exact
    (see {!Serve.Shard.state}). *)

type snapshot = {
  sn_n : int;  (** Bin count. *)
  sn_balls : int array;  (** Registry slot -> bin id, in slot order. *)
  sn_slot_order : int array;
      (** Every slot exactly once, listed in each bin's internal stack
          order (bins concatenated in id order). *)
  sn_nonempty : int array;  (** The non-empty bins, in internal order. *)
}

val snapshot : t -> snapshot

val of_snapshot : snapshot -> t
(** @raise Invalid_argument on a malformed snapshot (bad bin ids,
    [sn_slot_order] not a permutation, or an [sn_nonempty] list that
    does not match the occupied bins). *)
