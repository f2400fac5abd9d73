(** Xoshiro256++ pseudo-random number generator.

    The workhorse generator of the library: fast, high quality, with a
    period of 2^256 - 1.  Reference: Blackman & Vigna, "Scrambled linear
    pseudorandom number generators", ACM TOMS 2021. *)

type t
(** Mutable generator state (256 bits), stored unboxed, so that
    {!next_int} and {!next_top53} allocate nothing. *)

val of_seed : int64 -> t
(** [of_seed seed] initialises the state from [seed] via SplitMix64, as
    recommended by the authors. *)

val of_splitmix : Splitmix64.t -> t
(** [of_splitmix sm] draws the four state words from [sm], advancing it. *)

val copy : t -> t
(** [copy g] is an independent copy of the current state of [g]; both
    copies subsequently produce the same stream.  Used to implement shared
    randomness in couplings. *)

val next : t -> int64
(** [next g] advances [g] and returns the next 64 pseudo-random bits. *)

val next_int : t -> int
(** [next_int g] advances [g] like {!next} and returns the low 63 bits of
    the same output, [Int64.to_int (next g)], without boxing it. *)

val next_top53 : t -> int
(** [next_top53 g] advances [g] like {!next} and returns the top 53 bits
    of the same output, a value below [2^53]. *)

val jump : t -> unit
(** [jump g] advances [g] by 2^128 steps, for independent substreams. *)

val state : t -> int64 array
(** The four state words, for service snapshots. *)

val of_state : int64 array -> t
(** Rebuild a generator from {!state}'s four words.
    @raise Invalid_argument on a wrong length or the all-zero state. *)
