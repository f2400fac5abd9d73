(** Parallel balanced allocation — the collision protocol of Stemann
    (SPAA 1996) in the style also analysed by Adler, Chakrabarti,
    Mitzenmacher & Rasmussen, both cited in the paper's opening.

    All [m] balls are placed {e in parallel rounds} instead of
    sequentially: each ball commits to [d] candidate bins up front; in
    round [r] every unplaced ball requests all its candidates, and a bin
    that gathered at most [threshold r] requests (counting balls already
    committed to it) accepts them all.  After the round budget is
    exhausted, stragglers fall back to sequential greedy placement into
    their least-loaded candidate.

    With [r] rounds the achievable maximum load is
    [O((ln n / ln ln n)^{1/r})] — a few rounds already collapse the
    sequential d = 1 maximum, which experiment E17 reproduces. *)

type result = {
  loads : int array;
  max_load : int;
  rounds_used : int;
  fallback_balls : int;  (** balls placed by the sequential fallback *)
}

val run :
  Prng.Rng.t ->
  n:int ->
  m:int ->
  d:int ->
  rounds:int ->
  ?threshold:(int -> int) ->
  unit ->
  result
(** [run g ~n ~m ~d ~rounds ()] executes the protocol.  The default
    threshold for round [r] (1-based) is [r].
    @raise Invalid_argument if [n <= 0], [m < 0], [d < 1] or
    [rounds < 0]. *)
