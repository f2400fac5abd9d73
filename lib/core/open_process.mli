(** Open systems (paper, Section 7).

    The ball population varies over time.  The paper's example: start from
    any state and, at each step, with probability ½ remove a ball chosen
    i.u.r. (if any) and with probability ½ insert a new ball.  The
    insertion rule is configurable: the paper's example inserts into a
    bin chosen i.u.r. (ABKU[1]); any rule is accepted.

    Couplings for open systems share the insert/remove coin as well, so
    two copies always hold populations drifting together once their ball
    counts agree. *)

type t

val make :
  ?insert_probability:float -> ?capacity:int -> Scheduling_rule.t -> n:int -> t
(** [capacity] bounds the ball population (the paper's first class of
    open systems, Section 7): an insertion that would exceed it is
    skipped.  Unbounded when omitted.
    @raise Invalid_argument if [n <= 0], the probability is outside
    (0, 1), or [capacity < 1]. *)

val name : t -> string

val coupled :
  t -> Loadvec.Mutable_vector.t Coupling.Coupled_chain.t
(** Identity coupling on normalized states: shared coin, shared removal
    variate, shared probe sequence.  The distance is ½‖·‖₁ {e after
    padding}: states may have different totals, so the reported distance
    is ⌈½ ‖v − u‖₁⌉. *)

val step_normalized : t -> Prng.Rng.t -> Loadvec.Mutable_vector.t -> int
(** One step on a normalized state (removal is scenario-A style: a
    uniform random ball); returns the number of probes it consumed. *)

val sim :
  ?metrics:Engine.Metrics.t ->
  t ->
  Loadvec.Mutable_vector.t ->
  Loadvec.Load_vector.t Engine.Sim.t
(** {!step_normalized} as an in-place engine stepper on the given state
    buffer (adopted and mutated).
    @raise Invalid_argument on a dimension mismatch. *)

val exact_transitions :
  t -> Loadvec.Load_vector.t -> (Loadvec.Load_vector.t * float) list
(** Exact one-step law of {!step_normalized} from a normalized state:
    with probability [insert_probability] an insertion (a no-op at
    capacity), otherwise a scenario-A removal (a no-op on the empty
    state).  Probabilities sum to 1; duplicate successors may appear and
    are merged by {!Markov.Exact_builder.build}.  With a capacity the
    state space — all vectors with at most [capacity] balls — is finite,
    so the open system becomes exactly analysable (paper, Section 7).
    @raise Invalid_argument on a dimension mismatch or a state above
    capacity. *)
