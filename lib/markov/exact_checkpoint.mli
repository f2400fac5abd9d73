(** Versioned snapshots of long exact-analysis runs (schema
    ["repro.exact-checkpoint/3"]).

    A snapshot captures everything a killed power iteration or mixing
    search needs to resume: the in-progress iteration vector, the
    stationary distribution once found, the completed per-start
    crossings, and the live batch of starts with their distributions at
    the time reached.  No RNG state is involved, and a start's
    distribution at time [t] is the same bits whichever batch evolved
    it, so a resumed run reproduces the uninterrupted answer bit-for-bit
    (see the qcheck property in [test/test_properties.ml]).

    Files are encoded with {!Common.Codec} and written atomically
    (temporary sibling + rename); loading treats a missing, truncated or
    foreign file — including one of the older schemas ["/1"] and ["/2"]
    — as "no checkpoint". *)

type inflight = {
  t : int;  (** Time the live batch has reached. *)
  starts : int array;  (** State indices still above ε at [t]. *)
  dists : float array array;  (** Their distributions at [t], in order. *)
}

type stationary = {
  tol : float;
  iter : int;
  prev_r : float;
  dist : float array;
}
(** Power iteration in progress. *)

type mixing = {
  eps : float;
  pi_tol : float;  (** Tolerance [pi] was solved to. *)
  pi : float array;
  completed : (int * int) list;  (** Finished [(start, τ_start)] pairs. *)
  inflight : inflight option;
}
(** π found; per-start sweeps in progress. *)

type phase = Stationary of stationary | Mixing of mixing

type snapshot = {
  states : int;
  nnz : int;
  digest : int;
      (** Fingerprint, with [states] and [nnz]: the
          {!Blocked_csr.digest} of the matrix the snapshot was taken on.
          A snapshot of any other chain — including one of the same
          shape, as Id and Ib, or ABKU\[2\] and ABKU\[3\], share on
          one Ω_m — is refused at resume. *)
  phase : phase;
}

val save_file : string -> snapshot -> unit
(** Atomic write: encode to [path ^ ".tmp"], then rename. *)

val load_file : string -> snapshot option
(** [None] if the file is missing, or {!decode} refuses it. *)

val decode : string -> snapshot
(** @raise Common.Codec.Error on bytes that are not a whole checkpoint
    of this schema. *)

(** {1 Sinks}

    The analysis code stores through an abstract sink, so tests can
    inject in-memory sinks that count stores or raise to simulate a
    kill at an exact point. *)

type sink

val sink :
  ?min_interval:float ->
  store:(snapshot -> unit) ->
  fetch:(unit -> snapshot option) ->
  unit ->
  sink
(** A custom sink.  [min_interval] (seconds, default 0) throttles
    {!offer}. *)

val file_sink : ?min_interval:float -> string -> sink
(** Persist to one file (default [min_interval = 15.]). *)

val memory_sink : ?min_interval:float -> unit -> sink * snapshot option ref
(** An in-memory sink and the cell it stores to, for tests. *)

val commit : sink -> snapshot -> unit
(** Store unconditionally (phase transitions, completed units of
    work). *)

val offer : sink -> (unit -> snapshot) -> unit
(** Store unless one happened within the last [min_interval] seconds.
    The thunk runs only when the store does, so snapshot construction
    (vector copies) is skipped while throttled. *)

val resume : sink -> snapshot option
(** The sink's current snapshot, if any. *)
