(** The process family a cluster's shards host.

    [Sequential] shards run the paper's remove-then-insert
    {!Core.System} machine ([Step]/[Insert]/[Remove]); [Rbb] shards run
    the round-synchronous repeated balls-into-bins machine of
    {!Rbb.service_sim} ([Round]/[Insert] — rounds conserve balls, so
    there is no removal law).  The family is part of the durability
    fingerprint ({!Serve.Journal}): journals do not replay across
    families. *)

type t = Sequential | Rbb

val name : t -> string
(** ["seq"] or ["rbb"]. *)

val of_string : string -> (t, string) result
val help : string
