type t = A | B

let name = function A -> "A" | B -> "B"
let process_prefix = function A -> "Id" | B -> "Ib"

let remove_rank sc v ~u =
  let module Mv = Loadvec.Mutable_vector in
  let m = Mv.total v in
  if m <= 0 then invalid_arg "Scenario.remove_rank: no balls";
  match sc with
  | A ->
      (* Inverse CDF of A(v): rank i with probability v_i / m.  The
         partial sums are ints (exact as floats up to 2^53), and the
         scan is a loop, so it allocates neither a closure nor a boxed
         target. *)
      let loads = Mv.unsafe_loads v in
      let target = u *. float_of_int m in
      let last = Array.length loads - 1 in
      let i = ref 0 and acc = ref loads.(0) in
      while !i < last && not (target < float_of_int !acc) do
        incr i;
        acc := !acc + loads.(!i)
      done;
      !i
  | B ->
      let s = Mv.support v in
      Stdlib.min (int_of_float (u *. float_of_int s)) (s - 1)

(* Count-vector form of [remove_rank]: same single float draw, same
   branch decisions (Cv.level_of_ball replays the scenario-A prefix
   scan over level blocks), returning the load class the removal hits
   instead of a rank — which by Fact 3.2 is all a normalized state
   needs. *)
let remove_level sc cv ~u =
  let module Cv = Loadvec.Count_vector in
  let m = Cv.total cv in
  if m <= 0 then invalid_arg "Scenario.remove_level: no balls";
  match sc with
  | A -> Cv.level_of_ball cv ~target:(u *. float_of_int m)
  | B ->
      let s = Cv.support cv in
      Cv.level_of_rank cv (Stdlib.min (int_of_float (u *. float_of_int s)) (s - 1))

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
