(** The one way to go from a transition function to an analysed chain.

    Every exact pipeline in the repository does the same three things:
    obtain the state space (either a closed-form enumeration such as
    {!Partition_space.enumerate}, or the set reachable from a root
    state), build the {!Exact.t}, and compute its mixing time.  This
    module packages that build→mix sequence once, with wall-clock
    timings for each half so benches can report cost per grid cell
    (e.g. through [Engine.Metrics.add_phase]).

    Builds {e stream}: transition rows are emitted in discovery order
    straight into a {!Blocked_csr} store — for a reachable space, the
    BFS frontier property (a state's row is fully determined when it is
    dequeued) means discovery and row emission are one pass.  With
    [~spill] the store pages completed shards to disk, so builds whose
    transition structure exceeds RAM still finish.  State interning goes
    through {!State_index} with an explicit [hash]/[equal] when the
    caller has one (falling back to structural hashing). *)

type 'state source

val enumerated : 'state array -> 'state source
(** A state space given explicitly; must list each state once. *)

val reachable : root:'state -> 'state source
(** The states reachable from [root] under the transition function,
    discovered by breadth-first search. *)

val reachable_states :
  ?hash:('state -> int) ->
  ?equal:('state -> 'state -> bool) ->
  root:'state ->
  transitions:('state -> ('state * float) list) ->
  unit ->
  'state array
(** The BFS closure itself, in discovery order — [root] first.  States
    are interned through a {!State_index} keyed by [hash]/[equal]
    (default: structural). *)

val states_of :
  ?hash:('state -> int) ->
  ?equal:('state -> 'state -> bool) ->
  'state source ->
  transitions:('state -> ('state * float) list) ->
  'state array
(** The state array a source denotes (runs the BFS for {!reachable}). *)

val build :
  ?block_rows:int ->
  ?spill:string ->
  ?hash:('state -> int) ->
  ?equal:('state -> 'state -> bool) ->
  'state source ->
  transitions:('state -> ('state * float) list) ->
  'state Exact.t
(** Resolve the source and build the chain, streaming rows into a
    {!Blocked_csr} store ([block_rows] rows per shard, default 4096;
    [spill] pages completed shards to a disk block file).  This is the
    only validating constructor of an {!Exact.t}.  An enumerated source
    must list each state exactly once; [transitions s] must list
    successor states (members of the space) with probabilities summing
    to 1; duplicate successors are merged.
    @raise Invalid_argument if the enumeration is empty or repeats a
    state, if a successor is outside the space, if a probability is
    negative, or if a row's total deviates from 1 by more than 1e-9. *)

type 'state analysis = {
  chain : 'state Exact.t;
  state_count : int;  (** [Exact.size chain]. *)
  nnz : int;  (** Non-zeros in the transition matrix. *)
  tau : int;  (** [Exact.mixing_time] of the chain. *)
  build_seconds : float;  (** Wall-clock for enumeration + build. *)
  mix_seconds : float;  (** Wall-clock for the mixing-time search. *)
}

val build_mix :
  ?eps:float ->
  ?max_t:int ->
  ?domains:int ->
  ?block_rows:int ->
  ?spill:string ->
  ?hash:('state -> int) ->
  ?equal:('state -> 'state -> bool) ->
  ?starts:'state array ->
  ?checkpoint:Exact_checkpoint.sink ->
  'state source ->
  transitions:('state -> ('state * float) list) ->
  'state analysis
(** Build the chain and compute its exact mixing time (defaults as
    {!Exact.mixing_time}).  [starts] restricts the mixing search to the
    given states (members of the space); [checkpoint] makes the mixing
    phase resumable through the sink, as {!Exact.mixing_time}.
    @raise Invalid_argument as {!build}, or if a designated start is
    outside the space.
    @raise Failure as {!Exact.mixing_time}. *)
