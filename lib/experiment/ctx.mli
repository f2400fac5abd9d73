(** Per-experiment execution context.

    An experiment's [run] function receives one of these and uses it for
    everything the old hand-rolled modules duplicated: quick/full grid
    resolution, per-experiment RNG streams, table construction, exponent
    fits, and output.  Tables print byte-identically to the historical
    [bench/exp_util.ml] pipeline; rows may additionally carry typed
    values and engine metrics, which flow into the JSON sink
    ([BENCH_RESULTS.json]) and make the run machine-readable. *)

type t

type tbl
(** A result table being assembled: the aligned text table plus the
    structured row records behind it. *)

val make :
  config:Config.t ->
  id:string ->
  claim:string ->
  tags:string list ->
  grid:Grid.t option ->
  t
(** Normally called by {!Driver}, not by experiments. *)

(** {1 Configuration access} *)

val full : t -> bool
val domains : t -> int
val seed : t -> int

val rng : t -> experiment:int -> Prng.Rng.t
(** An independent stream per sub-experiment key (see
    {!Config.rng_for}). *)

val reps : t -> int
(** The spec grid's replication count in the current mode.
    @raise Invalid_argument if the spec grid declares none. *)

val scale : t -> quick:'a -> full:'a -> 'a
(** Pick a mode-dependent parameter that is not part of the grid. *)

val checkpoint_path : t -> name:string -> string option
(** A snapshot file for one unit of work (e.g. one grid cell), under the
    configured checkpoint directory — [None] when checkpointing is off.
    Unless the run is resuming ({!Config.t.resume}), any stale file from
    a previous run is deleted first, so a snapshot is only ever read by
    an explicit [--resume]. *)

val iter_cells : t -> (int -> unit) -> unit
(** Run the body once per grid size, in order — the instrumented
    equivalent of [List.iter body (sizes t)].  Each cell runs under an
    ["experiment.cell"] trace span, and full-mode interactive runs (both
    stdout and stderr on a TTY) get a per-cell progress heartbeat on
    stderr, e.g. [[e07 3/12 cells, 42s elapsed]].  Redirected output —
    including the golden-diffed default mode — sees no extra bytes.
    @raise Invalid_argument if the spec declares no grid. *)

(** {1 Result tables} *)

val table : t -> title:string -> columns:string list -> tbl

val row :
  ?values:(string * float) list ->
  ?metrics:Engine.Metrics.snapshot ->
  tbl ->
  string list ->
  unit
(** Append a display row; [values] are the typed numbers behind the
    formatted cells and [metrics] the engine counters of the cell's
    measurement, both surfaced only in the JSON sink.
    @raise Invalid_argument if the cell arity differs from [columns]. *)

val note : tbl -> string -> unit

val note_exponent :
  tbl ->
  points:(float * float) list ->
  log_exponent:float ->
  expected:string ->
  what:string ->
  unit
(** Fit a power law to (size, median) points, optionally dividing out a
    [ln^log_exponent] factor first; attaches the historical note text
    and records the fit for the JSON sink. *)

val emit : t -> tbl -> unit
(** Print the table and hand it to the configured file sinks.  Call
    exactly once per table, after its last row/note. *)

val set_extra : t -> string -> Json.t -> unit
(** Attach a JSON document to the experiment's entry in the results
    sink, under ["extra"][key] — e.g. e23 attaches its full conformance
    report.  Setting a key again replaces it.  Stdout is untouched. *)

(** {1 Cell formatting helpers} *)

val cell_measurement : Engine.Runner.measurement -> string
(** ["median [q10, q90]"], or ["(all runs hit limit)"]. *)

val ratio_cell : float -> float -> string
(** [measured /. predicted] to three decimals, ["-"] when undefined. *)

val measurement_values : Engine.Runner.measurement -> (string * float) list
(** The typed view of a measurement for {!row}'s [values]: median, mean,
    q10, q90, failures, runs. *)

(** {1 JSON view (used by {!Driver})} *)

val to_json : t -> wall_seconds:float -> Json.t
