(* The monotone coupling's step as first written: both copies insert by
   reading one lazily extended [Core.Probe] sequence through
   [Scheduling_rule.choose_rank].  [Core.Coupled.monotone] now inserts
   through [Load_state.Array] with a generator duplicate instead; this is
   the reference its draw order is tested against. *)

module Mv = Loadvec.Mutable_vector

let insert_shared rule probe v =
  let rank, _probes =
    Core.Scheduling_rule.choose_rank rule ~loads:(Mv.unsafe_loads v) ~probe
  in
  ignore (Mv.incr_at v rank)

let step process g x y =
  let sc = Core.Dynamic_process.scenario process in
  let rule = Core.Dynamic_process.rule process in
  let u = Prng.Rng.float g in
  ignore (Mv.decr_at x (Core.Scenario.remove_rank sc x ~u));
  ignore (Mv.decr_at y (Core.Scenario.remove_rank sc y ~u));
  let probe = Core.Probe.create g ~n:(Core.Dynamic_process.n process) in
  insert_shared rule probe x;
  insert_shared rule probe y
