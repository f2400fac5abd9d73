type t = { gen : Xoshiro.t; sm : Splitmix64.t }

let create ?(seed = 0x5EED) () =
  let sm = Splitmix64.create (Int64.of_int seed) in
  { gen = Xoshiro.of_splitmix sm; sm }

let copy g = { gen = Xoshiro.copy g.gen; sm = Splitmix64.split g.sm }

let split g =
  let sm = Splitmix64.split g.sm in
  { gen = Xoshiro.of_splitmix sm; sm }

let bits64 g = Xoshiro.next g.gen

(* Unbiased bounded sampling: mask a power of two, otherwise reject on
   the low 62 bits (avoiding sign issues).  Both read
   [Xoshiro.next_int], the low 63 bits of one output as a tagged int, so
   a draw boxes no [int64]; [reject] is top level, so it allocates no
   closure. *)
let mask62 = (1 lsl 62) - 1

let rec reject gen bound limit =
  let r = Xoshiro.next_int gen land mask62 in
  if r >= limit then reject gen bound limit else r mod bound

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* power of two: mask *)
    Xoshiro.next_int g.gen land (bound - 1)
  else reject g.gen bound (mask62 - (mask62 mod bound))

let int_in g lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int g (hi - lo + 1)

let float g =
  (* The top 53 bits scaled to [0,1). *)
  float_of_int (Xoshiro.next_top53 g.gen) *. 0x1.0p-53

let bool g = Xoshiro.next_int g.gen land 1 = 1

let bernoulli g p =
  if not (p >= 0. && p <= 1.) then invalid_arg "Rng.bernoulli: p not in [0,1]";
  float g < p

let geometric g p =
  if not (p > 0. && p <= 1.) then invalid_arg "Rng.geometric: p not in (0,1]";
  if p = 1. then 0
  else
    (* Inverse CDF: floor(log(1-u) / log(1-p)). *)
    let u = float g in
    int_of_float (floor (log1p (-.u) /. log1p (-.p)))

let pair_distinct g n =
  if n < 2 then invalid_arg "Rng.pair_distinct: need n >= 2";
  let i = int g n in
  let j0 = int g (n - 1) in
  let j = if j0 >= i then j0 + 1 else j0 in
  if i < j then (i, j) else (j, i)

let save g = Array.append (Xoshiro.state g.gen) [| Splitmix64.state g.sm |]

let restore words =
  if Array.length words <> 5 then invalid_arg "Rng.restore: need 5 words";
  { gen = Xoshiro.of_state (Array.sub words 0 4);
    sm = Splitmix64.create words.(4) }
