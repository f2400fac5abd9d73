(** Always-on simulation counters.

    Every {!Sim.t} owns a value of this type; adapters thread the cheap
    counters (steps, probes, RNG draws, max-load watermark) through their
    step functions, and {!Runner} accumulates wall-clock per phase, so
    that any measurement can report probes/step and steps/sec next to its
    table.

    A [t] is a single-domain accumulator: it must not be shared across
    domains.  {!Runner} gives every repetition its own and {!merge}s the
    resulting {!snapshot}s after the join, which keeps parallel runs
    deterministic (timing phases excepted — wall-clock is inherently
    noisy; all integer counters are bit-stable). *)

type t
(** Mutable accumulator. *)

type snapshot = {
  steps : int;  (** Transitions taken. *)
  probes : int;  (** Insertion probes issued (where the adapter reports them). *)
  rng_draws : int;
      (** Primitive generator draws, as reported by the adapters (a close
          lower bound: rejection sampling inside {!Prng.Rng} is not
          visible to them). *)
  watermark : int;
      (** Highest value of the sim's cheap observable seen after any step
          (the max-load watermark for allocation processes); [min_int]
          when never observed. *)
  phases : (string * float) list;
      (** Accumulated wall-clock seconds per named phase, sorted by
          name. *)
}

val create : unit -> t

val add_step : t -> unit
(** Count one transition.  {!Sim.make} calls this; adapters normally do
    not. *)

val steps : t -> int
(** Transitions counted so far (cheap; {!Sim} uses it to sample trace
    events without snapshotting). *)

val add_probes : t -> int -> unit
(** Also feeds the ["engine.probes_per_insertion"] telemetry histogram
    when {!Obs.enabled}.
    @raise Invalid_argument on a negative count. *)

val add_draws : t -> int -> unit
(** @raise Invalid_argument on a negative count. *)

val watermark : t -> int -> unit
(** Raise the watermark to the given level if it exceeds the current
    one. *)

val watermark_level : t -> int
(** Current watermark ([min_int] when never observed); cheap — the
    [Watermark] query of {!Sim.apply} reads it per event. *)

val add_phase : t -> string -> float -> unit
(** Add seconds to a named phase directly. *)

val time : t -> string -> (unit -> 'a) -> 'a
(** [time m phase f] runs [f] and adds its duration to [phase] (also on
    exception).  Durations come from the monotonic {!Obs.Clock} and are
    clamped at zero; when tracing is enabled the phase is also recorded
    as an {!Obs} span of the same name. *)

val snapshot : t -> snapshot

val zero : snapshot
(** The empty snapshot: identity for {!merge}. *)

val merge : snapshot -> snapshot -> snapshot
(** Component-wise sum (max for the watermark, per-phase sum for the
    timers) — aggregation across repetitions. *)

val to_table : ?title:string -> snapshot -> Stats.Table.t
(** Counters plus the derived probes/step, draws/step and steps/sec rows
    (the latter from the ["run"] phase when present, else the phase
    total). *)

val set_dump : bool -> unit
(** Turn counter-table dumping on or off.  The experiment harness sets
    this from [Experiment.Config.metrics_dump] ([--metrics] or
    [BENCH_METRICS]); the engine reads no environment itself. *)

val dump_enabled : unit -> bool
(** Whether {!dump} prints (default [false]; see {!set_dump}). *)

val dump : ?label:string -> snapshot -> unit
(** Print {!to_table} to stdout when {!dump_enabled}; otherwise free. *)
