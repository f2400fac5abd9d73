module Mv = Loadvec.Mutable_vector

type t = A | B

let name = function A -> "A" | B -> "B"
let process_prefix = function A -> "Id" | B -> "Ib"

(* The inverse CDF of A(v) stops at the first rank whose prefix sum
   exceeds the target u·m.  Every prefix sum is an integer below 2^53
   and u·m >= 0, so [target < acc] iff [floor target < acc], and the
   truncation [int_of_float] is that floor: the scans compare ints. *)
let target_of fn m ~u =
  if m <= 0 then invalid_arg ("Scenario." ^ fn ^ ": no balls");
  int_of_float (u *. float_of_int m)

(* The first rank from [i] on whose prefix sum exceeds [t], or [last];
   [acc] is the prefix sum through rank [i]. *)
let rec scan loads last t i acc =
  if i < last && acc <= t then scan loads last t (i + 1) (acc + loads.(i + 1))
  else i

let uniform_rank s ~u = Stdlib.min (int_of_float (u *. float_of_int s)) (s - 1)

let remove_rank sc v ~u =
  let t = target_of "remove_rank" (Mv.total v) ~u in
  match sc with
  | A ->
      let loads = Mv.unsafe_loads v in
      scan loads (Array.length loads - 1) t 0 loads.(0)
  | B -> uniform_rank (Mv.support v) ~u

(* Both copies' scans in one pass: while neither has stopped, one loop
   walks both load arrays with an accumulator and a target each; the
   copy still short of its target then finishes alone.  That is
   max(r_x, r_y) iterations for ranks r_x, r_y, not r_x + r_y. *)
let remove_pair sc x y ~u =
  let tx = target_of "remove_pair" (Mv.total x) ~u in
  let ty = target_of "remove_pair" (Mv.total y) ~u in
  match sc with
  | A ->
      let lx = Mv.unsafe_loads x and ly = Mv.unsafe_loads y in
      let last = Array.length lx - 1 in
      if Array.length ly - 1 <> last then
        invalid_arg "Scenario.remove_pair: dimension mismatch";
      let i = ref 0 and ax = ref lx.(0) and ay = ref ly.(0) in
      while !i < last && !ax <= tx && !ay <= ty do
        incr i;
        ax := !ax + lx.(!i);
        ay := !ay + ly.(!i)
      done;
      ignore (Mv.decr_at x (scan lx last tx !i !ax));
      ignore (Mv.decr_at y (scan ly last ty !i !ay))
  | B ->
      ignore (Mv.decr_at x (uniform_rank (Mv.support x) ~u));
      ignore (Mv.decr_at y (uniform_rank (Mv.support y) ~u))

(* Count-vector form of [remove_rank]: same single float draw, same
   branch decisions (Cv.level_of_ball replays the scenario-A prefix
   scan over level blocks), returning the load class the removal hits
   instead of a rank — which by Fact 3.2 is all a normalized state
   needs. *)
let remove_level sc cv ~u =
  let module Cv = Loadvec.Count_vector in
  let t = target_of "remove_level" (Cv.total cv) ~u in
  match sc with
  | A -> Cv.level_of_ball cv ~target:t
  | B -> Cv.level_of_rank cv (uniform_rank (Cv.support cv) ~u)

let removal_distribution sc ~loads =
  let n = Array.length loads in
  let m = Array.fold_left ( + ) 0 loads in
  if m <= 0 then invalid_arg "Scenario.removal_distribution: no balls";
  match sc with
  | A -> Array.map (fun l -> float_of_int l /. float_of_int m) loads
  | B ->
      let s = ref 0 in
      Array.iter (fun l -> if l > 0 then incr s) loads;
      let p = 1. /. float_of_int !s in
      Array.init n (fun i -> if loads.(i) > 0 then p else 0.)
