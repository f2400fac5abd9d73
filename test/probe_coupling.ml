(* The monotone coupling's step as first written: both copies insert by
   reading one lazily extended [Core.Probe] sequence through
   [Scheduling_rule.choose_rank].  [Core.Coupled.monotone] now draws each
   probe once and offers it to every copy still probing
   ([Core.Load_state.insert_pair]); this is the reference its draw order
   is tested against. *)

module Mv = Loadvec.Mutable_vector

let insert_shared rule probe v =
  let rank, probes =
    Core.Scheduling_rule.choose_rank rule ~loads:(Mv.unsafe_loads v) ~probe
  in
  ignore (Mv.incr_at v rank);
  probes

(* Returns the probes x's and y's insertions read. *)
let step process g x y =
  let sc = Core.Dynamic_process.scenario process in
  let rule = Core.Dynamic_process.rule process in
  let u = Prng.Rng.float g in
  ignore (Mv.decr_at x (Core.Scenario.remove_rank sc x ~u));
  ignore (Mv.decr_at y (Core.Scenario.remove_rank sc y ~u));
  let probe = Core.Probe.create g ~n:(Core.Dynamic_process.n process) in
  let px = insert_shared rule probe x in
  (px, insert_shared rule probe y)
