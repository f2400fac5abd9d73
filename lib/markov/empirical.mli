(** Empirical total-variation estimation.

    Exact TV distances need the full transition matrix; at realistic sizes
    we instead estimate the TV distance between the laws of an integer
    {e observable} (e.g. the maximum load) from repeated simulation.  By
    the data-processing inequality this lower-bounds the state-space TV
    distance, so a slow empirical decay certifies slow mixing, and the
    time at which it vanishes tracks the recovery time. *)

val tv_between_samples : int array -> int array -> float
(** TV distance between the empirical distributions of two samples of a
    non-negative integer observable.
    @raise Invalid_argument if either sample is empty or has a negative
    entry. *)

val observable_tv :
  step:(Prng.Rng.t -> 'state -> 'state) ->
  rng:Prng.Rng.t ->
  x0:(unit -> 'state) ->
  y0:(unit -> 'state) ->
  t:int ->
  reps:int ->
  observable:('state -> int) ->
  float
(** [observable_tv ~step ~rng ~x0 ~y0 ~t ~reps ~observable] estimates
    [‖L(f(X_t) | X_0 = x0 ()) − L(f(Y_t) | Y_0 = y0 ())‖] from [reps]
    independent runs of the chain whose one transition is [step] (a
    process's [chain] function).  The initial states are thunks so that
    chains over mutable state get a fresh copy per run.
    @raise Invalid_argument if [reps <= 0] or [t < 0]. *)

val decay_profile :
  step:(Prng.Rng.t -> 'state -> 'state) ->
  rng:Prng.Rng.t ->
  x0:(unit -> 'state) ->
  y0:(unit -> 'state) ->
  times:int list ->
  reps:int ->
  observable:('state -> int) ->
  (int * float) list
(** [(t, estimated TV)] for each requested time, fresh runs per time
    point (no reuse, so estimates are independent). *)
