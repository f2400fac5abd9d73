(** Multicore fan-out over OCaml 5 domains.

    Experiment repetitions are embarrassingly parallel: every repetition
    owns an independent generator obtained by splitting the root one
    {e before} the fan-out, so results are bit-identical regardless of
    the number of domains.  This module is the small scheduling layer the
    measurement harnesses build on. *)

val recommended_domains : unit -> int
(** The runtime's recommended domain count (at least 1). *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map_array ~domains f xs] maps [f] over [xs] using up to [domains]
    additional domains (default {!recommended_domains}).  [f] must not
    share mutable state across elements.  Order is preserved; with
    [domains <= 1] this is [Array.map].
    @raise Invalid_argument if [domains < 1].  Exceptions raised by [f]
    are re-raised in the caller. *)
