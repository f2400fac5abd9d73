(** User-facing random number interface.

    All simulations in this library draw randomness exclusively through
    this module, so every experiment is reproducible from a seed, and
    couplings can share randomness by {!copy}-ing a generator. *)

type t
(** Mutable generator. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] returns a deterministic generator.  The default seed
    is 0x5EED. *)

val copy : t -> t
(** [copy g] copies the current state; the copy replays the same
    stream.  This is the primitive used to build identity couplings.
    It also advances [g]'s splitter (the copy gets a split of it), so a
    later [split g] returns a different stream than it would have
    without the copy. *)

val split : t -> t
(** [split g] derives a statistically independent generator from [g],
    advancing [g].  Used to give independent streams to repetitions. *)

val bits64 : t -> int64
(** [bits64 g] returns 64 uniform pseudo-random bits. *)

val int : t -> int -> int
(** [int g bound] is uniform on [0, bound).  Unbiased (rejection sampling).
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform on the inclusive range [lo, hi].
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float
(** [float g] is uniform on [0, 1) with 53 random bits. *)

val bool : t -> bool
(** [bool g] is a fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p].
    @raise Invalid_argument unless [0 <= p <= 1]. *)

val geometric : t -> float -> int
(** [geometric g p] is the number of failures before the first success in
    Bernoulli(p) trials (support 0, 1, 2, ...).
    @raise Invalid_argument unless [0 < p <= 1]. *)

val pair_distinct : t -> int -> int * int
(** [pair_distinct g n] returns an unordered pair [(i, j)] with
    [0 <= i < j < n], uniform over all [n*(n-1)/2] pairs.
    @raise Invalid_argument if [n < 2]. *)

val save : t -> int64 array
(** The full generator state as five words (four xoshiro256++ state
    words plus the splitmix64 word).  {!restore} rebuilds a generator
    that replays exactly the stream this one would have produced — the
    primitive behind service snapshots ({!Serve.Journal}). *)

val restore : int64 array -> t
(** Inverse of {!save}.
    @raise Invalid_argument on a malformed state vector. *)
