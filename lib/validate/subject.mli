(** Conformance subjects: a simulator paired with its exact chain.

    A subject packages everything one conformance run needs about a
    process: the enumerated state space, the exact one-step law on it,
    a factory for fresh independent simulators observing states in that
    space, a (typically adversarial) start state, and — where the paper
    states one — the closed-form mixing/recovery-time bound its measured
    TV decay is checked against.  The state type is existentially packed
    so heterogeneous catalogs (load vectors, class-count vectors,
    per-bin arrays) run through one harness. *)

type 'state spec = {
  name : string;
  family : string;
  (** ["balls"], ["rbb"], ["edge"], ["open"] or ["relocation"]. *)
  states : 'state array;
  transitions : 'state -> ('state * float) list;
  fresh_sim : unit -> 'state Engine.Sim.t;
  (** Each call returns an independent simulator (fresh buffers), safe
      to use concurrently with other fresh instances. *)
  start : 'state;
  bound : (string * float) option;
  (** Paper bound on τ(¼) from [start], as (label, steps). *)
  block_rows : int option;
  (** Opt-in blocked-chain granularity: when set, the conformance run
      builds the subject's exact chain with this many rows per
      {!Markov.Blocked_csr} block (exercising the multi-block kernels);
      when [None] the builder's default applies. *)
}

type t = P : 'state spec -> t

val name : t -> string
val family : t -> string
val state_count : t -> int

(** {1 Constructors} *)

val balls :
  ?block_rows:int ->
  ?repr:Core.Repr.t ->
  Core.Scenario.t -> Core.Scheduling_rule.t -> n:int -> m:int -> t
(** A closed dynamic allocation process over Ω_m (state space
    {!Markov.Partition_space.enumerate}), starting from all-in-one-bin.
    Scenario A carries the Theorem 1 bound; scenario B with an ABKU rule
    the Claim 5.3 bound.  [repr] (default {!Core.Repr.Array_backed})
    selects the simulator's state backend through
    {!Core.Dynamic_process.sim_repr}; the exact law is the same for
    every backend, so a non-array subject is precisely the
    equality-in-law check the non-draw-order-preserving backends are
    held to. *)

(** {1 Catalogs} *)

val quick_catalog : unit -> t list
(** Cheap subjects for CI and [--quick] runs: two balls-into-bins, one
    edge orientation, two round-synchronous RBB processes and the
    served Id-ABKU\[2\] machine. *)

val full_catalog : unit -> t list
(** The full conformance matrix: Id/Ib × ABKU/ADAP closed processes,
    the edge class chain, a capacity-bounded open system, a relocation
    process, the RBB round family, and the machines a serve shard hosts
    ({!Core.System.sim} for Id- and Ib-ABKU\[2\], {!Rbb.service_sim}
    for RBB-d2), named with a ["(served)"] suffix and stepped through
    {!Engine.Sim.apply} — 17 subjects on small (n, m). *)
