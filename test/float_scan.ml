(* The scenario-A inverse-CDF scans as first written: the float target
   u·m against float-converted integer prefix sums.
   [Core.Scenario.remove_rank] and [Loadvec.Count_vector.level_of_ball]
   now compare the integer ⌊u·m⌋ with the prefix sums; these are the
   reference they are tested against. *)

module Mv = Loadvec.Mutable_vector
module Cv = Loadvec.Count_vector

(* [Core.Scenario.remove_rank Core.Scenario.A]. *)
let remove_rank v ~u =
  let m = Mv.total v in
  if m <= 0 then invalid_arg "Scenario.remove_rank: no balls";
  let loads = Mv.unsafe_loads v in
  let target = u *. float_of_int m in
  let last = Array.length loads - 1 in
  let i = ref 0 and acc = ref loads.(0) in
  while !i < last && not (target < float_of_int !acc) do
    incr i;
    acc := !acc + loads.(!i)
  done;
  !i

(* [Core.Scenario.remove_level Core.Scenario.A], through
   [Loadvec.Count_vector.level_of_ball] on the float target. *)
let remove_level cv ~u =
  let m = Cv.total cv in
  if m <= 0 then invalid_arg "Scenario.remove_level: no balls";
  let target = u *. float_of_int m in
  let l = ref (Cv.max_load cv) and acc = ref 0 and found = ref false in
  while (not !found) && !l >= 1 do
    acc := !acc + (!l * Cv.count cv !l);
    if target < float_of_int !acc then found := true else decr l
  done;
  if !found then !l else Stdlib.max 1 (Cv.min_load cv)
