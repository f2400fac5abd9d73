(** Selectable state-representation backends for the stepper hot paths.

    The RNG-draw-order contract (DESIGN.md, "The representation
    layer"): a backend either consumes the generator in exactly the
    order the array oracle does — in which case its trajectories must
    be bit-identical to the oracle's — or it redistributes draws (the
    cutoff-table sampler uses one float where ABKU\[d\] uses [d] ints)
    and is instead held to equality in law through
    {!Validate.Conformance}. *)

type t =
  | Array_backed
      (** Sorted load array ({!Loadvec.Mutable_vector} /
          {!Bins}) — the oracle all other backends are checked
          against, and the default everywhere. *)
  | Count_backed
      (** {!Loadvec.Count_vector} multiset state; consumes the same
          draws as the array path, so traces are bit-identical. *)
  | Count_sampled
      (** Count-vector state with branch-free ABKU\[d\] insertion from
          an incrementally maintained cutoff table
          ({!Scheduling_rule.Abku_table}): one float draw per
          insertion.  Equal in law, not in trace; ADAP rules fall back
          to [Count_backed] (their probe loop is inherently
          sequential). *)

val all : t list

val name : t -> string
(** ["array"], ["counts"], ["counts-sampled"] — the spelling accepted
    by [--repr] flags and the [BENCH_REPR] environment variable. *)

val of_string : string -> (t, string) result
val help : string
