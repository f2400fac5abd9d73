(** Event-driven in-place state machines.

    A sim is a process whose state lives in preallocated buffers owned
    by the adapter that built it.  Its primary interface is {!apply}: a
    state machine consuming the typed vocabulary of {!Event} — [Step]
    mutates that state without allocating, [Probe] reads a cheap scalar
    observable of it (the maximum load for allocation processes, the
    coalescence indicator for coupled pairs — 0 once the copies meet, 1
    before — the unfairness for edge orientations), [Watermark] reads the highest probe level seen, and
    machines built with an [extend] handler (allocation systems) also
    answer [Insert]/[Remove]/[Occupancy].  {!observe} snapshots the full
    state as an immutable value and {!reset} restores a snapshot — so
    one sim can be reused across repetitions.

    A process exposes a [sim] constructor returning this type only where
    a driver runs it: {!Core.Dynamic_process.sim} and [sim_repr],
    {!Core.System.sim}, {!Core.Open_process.sim}, {!Core.Relocation.sim},
    {!Coupling.Coupled_chain.sim}, {!Edgeorient.Orientation.sim}, and
    [Rbb]'s [sim_repr] and [service_sim].  Static, parallel, weighted and
    Go-Left allocation are plain functions their experiments call
    directly.  The rep-loop drivers below are
    [Step]-event streams over {!apply} — bit-identical to the historical
    step loops.  They are the only driver loops in the repository:
    a process's [chain] function is just the functional one-step view
    for exact-analysis-style immutable states.  The serve
    layer ({!Serve}) drives the same machines with the full vocabulary
    behind a socket front end. *)

type 'obs t

val make :
  ?metrics:Metrics.t ->
  ?watermark:bool ->
  ?extend:(Prng.Rng.t -> Event.t -> Event.reply) ->
  step:(Prng.Rng.t -> unit) ->
  observe:(unit -> 'obs) ->
  reset:('obs -> unit) ->
  probe:(unit -> int) ->
  unit ->
  'obs t
(** Wraps [step] so that the step counter — and, unless
    [watermark = false], the {!probe} watermark — are maintained
    automatically.  Adapters whose probe is not O(1) pass
    [~watermark:false].  A fresh {!Metrics.t} is created when none is
    given.

    [extend] handles the machine-specific events ([Insert], [Remove],
    [Occupancy]); without it {!apply} answers them [Rejected].  An
    [extend] handler is responsible for its own metrics (probes, draws,
    watermark) — the automatic maintenance above covers only [Step]. *)

val apply : 'obs t -> Prng.Rng.t -> Event.t -> Event.reply
(** The state machine: one event in, one reply out.  [Step] replies
    [Ack] without allocating; [Probe]/[Watermark] reply [Level]. *)

val metrics : _ t -> Metrics.t
val step : _ t -> Prng.Rng.t -> unit
(** [step s g] = [apply s g Event.Step], historical spelling. *)

val observe : 'obs t -> 'obs
val reset : 'obs t -> 'obs -> unit
val probe : _ t -> int

val iterate : _ t -> Prng.Rng.t -> int -> unit
(** [iterate s g t] applies [t] [Step] events in place.
    @raise Invalid_argument if [t < 0]. *)

val first_hit : _ t -> Prng.Rng.t -> pred:(int -> bool) -> limit:int -> int option
(** [first_hit s g ~pred ~limit] is [Some t] for the smallest
    [0 <= t <= limit] such that the probe after [t] steps satisfies
    [pred] ([t = 0] checks the initial state), [None] if the predicate
    never holds within [limit] steps.
    @raise Invalid_argument if [limit < 0]. *)

val sample_every :
  _ t -> Prng.Rng.t -> burn_in:int -> every:int -> samples:int ->
  (unit -> 'a) -> 'a list
(** [sample_every s g ~burn_in ~every ~samples obs] runs [burn_in]
    steps, then records [obs ()] every [every] steps until [samples]
    observations are collected.  [obs] closes over the sim (typically
    {!probe} or an adapter-specific accessor). *)
