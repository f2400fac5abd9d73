(** The conformance harness: run every check a subject supports.

    For each {!Subject.t} the harness builds the exact chain
    ({!Markov.Exact_builder}) over the subject's state space and runs:

    - {b one-step} checks: from a deterministic selection of start
      states (always including the subject's start and the state whose
      exact row has the most successors), single simulator steps are
      collected and their frequencies sequentially tested against the
      exact transition row;
    - a {b stationary} check: long trajectories are thinned at the exact
      τ(0.01) spacing (so consecutive observations are nearly
      independent) and the occupancy frequencies are tested against the
      exact stationary distribution π;
    - a {b tv-decay} check (subjects carrying a paper bound): the
      bias-corrected TV distance to π of the empirical state law at
      geometrically spaced times is measured from the adversarial start,
      and the distance at the bound time must be compatible with
      τ(¼) ≤ bound — an observed distance whose bootstrap lower
      confidence limit stays above ¼ after bias adjustment refutes the
      bound ({e Fail}); a corrected distance below ¼ certifies it
      ({e Pass}).

    All sampling fans out through {!Space.collect}, so reports are
    deterministic in (seed, quick, alpha) for any domain count. *)

type check = {
  check : string;  (** E.g. ["one-step x17"], ["stationary"], ["tv-decay"]. *)
  verdict : Sequential.verdict;
  samples : int;
  detail : string;  (** One human-readable line. *)
  stats : (string * float) list;  (** Numbers behind the verdict. *)
  outcome : Sequential.outcome option;  (** For sequential checks. *)
}

type subject_report = {
  subject : string;
  family : string;
  state_count : int;
  checks : check list;
  verdict : Sequential.verdict;  (** Worst check verdict. *)
  samples : int;  (** Total observations across checks. *)
}

type report = {
  alpha : float;
  seed : int;
  quick : bool;
  subjects : subject_report list;
  verdict : Sequential.verdict;  (** Worst subject verdict. *)
}

val run_subject :
  ?domains:int ->
  quick:bool ->
  alpha:float ->
  rng:Prng.Rng.t ->
  Subject.t ->
  subject_report
(** Every check uses its own false-FAIL budget [alpha]. *)

val run :
  ?domains:int ->
  ?quick:bool ->
  ?alpha:float ->
  seed:int ->
  Subject.t list ->
  report
(** Defaults: [quick = false], [alpha = 0.01].  Each subject gets an
    independent RNG stream split from the seed. *)
