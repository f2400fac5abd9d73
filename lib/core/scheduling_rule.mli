(** Static scheduling rules: ABKU[d] and ADAP(x) (paper, Section 2).

    A rule decides where a new ball goes.  On a {e normalized} load
    vector, both rules are instances of the right-oriented random function
    [D] of formula (1): given the probe sequence [b], they pick the rank
    [p(b)_j] with [j = min{t : x_{load(p(b)_t)} ≤ t}].  Lemma 3.4 proves
    this [D] right-oriented with [Φ] the identity, which is what makes
    sharing the probe sequence between coupled copies contractive
    (Lemma 3.3). *)

type t =
  | Abku of int  (** ABKU[d]: probe [d] bins i.u.r., use the least full. *)
  | Adap of Adaptive.t
      (** ADAP(x): keep probing while the best bin so far looks too full. *)

val abku : int -> t
(** @raise Invalid_argument if [d < 1]. *)

val adap : Adaptive.t -> t
val name : t -> string

val probe_cap : int
(** Safety bound on probes per insertion. *)

exception Probe_cap_exceeded of { n : int; x : string; cap : int }
(** Raised when an insertion issues more than [cap = probe_cap] probes
    over [n] bins under the threshold sequence named [x] — a sequence
    whose thresholds exceed the cap can demand more probes than any
    state can release, which would otherwise loop for a very long time.
    Raised by {!choose_rank}, {!rank_distribution}, {!expected_probes},
    {!Bins.insert_with_rule} and the direct stepper in
    {!Dynamic_process}. *)

val probe_cap_exceeded : t -> n:int -> 'a
(** Raise {!Probe_cap_exceeded} for the given rule on [n] bins. *)

val choose_rank : t -> loads:int array -> probe:Probe.t -> int * int
(** [choose_rank rule ~loads ~probe] evaluates [D(v, b)] on the normalized
    vector [loads] (sorted non-increasingly) reading ranks from [probe].
    Returns [(rank, probes_used)]. *)

(** Branch-free ABKU\[d\] insertion sampling.  On a normalized vector
    the inserted rank is the maximum of [d] uniform ranks; grouped by
    load level its CDF at the class boundaries is [B(l) = (g(l)/n)^d]
    with [g(l)] the number of bins of load at least [l].  The table
    precomputes [B] and keeps it current under the elementary moves of
    the dynamic processes — each move changes a single [g] entry, so
    maintenance is O(1) — turning a d-probe insertion into one float
    draw plus a short ascending scan.  This is the sampler behind the
    [counts-sampled] backend of {!Repr}; it spends its randomness
    differently from the probe-by-probe oracle, so it is equal in law
    but not in trace. *)
module Abku_table : sig
  type table

  val create : d:int -> n:int -> max_level:int -> count:(int -> int) -> table
  (** Build from level counts: [count l] must return the number of bins
      carrying exactly [l] balls, for [0 <= l <= max_level].
      @raise Invalid_argument if [d < 1] or [n <= 0]. *)

  val refill : table -> max_level:int -> count:(int -> int) -> unit
  (** [refill t ~max_level ~count] rebuilds [t] in place from new level
      counts, as {!create} would with the same [d] and [n], reusing its
      buffers. *)

  val on_gain : table -> int -> unit
  (** [on_gain t l]: a bin rose from level [l - 1] to [l]. *)

  val on_loss : table -> int -> unit
  (** [on_loss t l]: a bin fell from level [l] to [l - 1].
      @raise Invalid_argument if no bin sits at level [l]. *)

  val draw_level : table -> Prng.Rng.t -> int
  (** Sample the level of the bin that receives the ball (its load
      {e before} the insertion), using one float draw. *)

  val level_distribution : table -> float array
  (** Exact law of {!draw_level}: entry [l] is the probability the ball
      lands in a bin of current load [l].  Sums to 1; used by the
      conformance tests to check the table against
      {!rank_distribution}. *)
end

val rank_distribution : t -> loads:int array -> float array
(** The exact law of [choose_rank]'s rank on the given normalized vector:
    entry [j] is the probability the new ball lands at rank [j].  Closed
    form for ABKU; dynamic program over probe counts for ADAP.  Used to
    build exact transition matrices. *)

val expected_probes : t -> loads:int array -> float
(** Expected number of probes per insertion on the given vector (exact,
    same dynamic program). *)
