module Lv = Loadvec.Load_vector

type t = { scenario : Scenario.t; rule : Scheduling_rule.t; n : int }

let make scenario rule ~n =
  if n <= 0 then invalid_arg "Dynamic_process.make: n must be positive";
  { scenario; rule; n }

let scenario t = t.scenario
let rule t = t.rule
let n t = t.n

let name t =
  let prefix = match t.scenario with Scenario.A -> "Id" | Scenario.B -> "Ib" in
  Printf.sprintf "%s-%s" prefix (Scheduling_rule.name t.rule)

(* One removal variate, then the rule's insertion draws — the same order
   on every backend. *)
let step (type s) (module S : Load_state.S with type t = s) t g (v : s) =
  if S.dim v <> t.n then invalid_arg "Dynamic_process.step: dimension mismatch";
  S.remove v t.scenario ~u:(Prng.Rng.float g);
  S.insert v t.rule g

let step_in_place t g v = ignore (step (module Load_state.Array) t g v)

let chain t g lv =
  let v = Loadvec.Mutable_vector.of_load_vector lv in
  step_in_place t g v;
  Loadvec.Mutable_vector.to_load_vector v

(* Probes record the law's count; draws record the generator's real
   consumption: the removal variate plus the insertion's draws. *)
let sim_of (type s) ?metrics (module S : Load_state.S with type t = s) t
    (v : s) =
  if S.dim v <> t.n then invalid_arg "Dynamic_process.sim: dimension mismatch";
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  Engine.Sim.make ~metrics
    ~step:(fun g ->
      let probes = step (module S) t g v in
      Engine.Metrics.add_probes metrics probes;
      Engine.Metrics.add_draws metrics (1 + S.insert_draws ~probes))
    ~observe:(fun () -> S.to_load_vector v)
    ~reset:(fun lv -> S.set_from_load_vector v lv)
    ~probe:(fun () -> S.max_load v)
    ()

let sim ?metrics t v = sim_of ?metrics (module Load_state.Array) t v

let sim_repr ?metrics ?(repr = Repr.Array_backed) t start =
  if Lv.dim start <> t.n then
    invalid_arg "Dynamic_process.sim_repr: dimension mismatch";
  let (module S) = Load_state.of_repr repr t.rule in
  sim_of ?metrics (module S) t (S.of_load_vector start)

let exact_transitions t lv =
  let loads = Lv.to_array lv in
  let removal = Scenario.removal_distribution t.scenario ~loads in
  (* Group removal ranks by load value: within a value class every rank
     yields the same normalized successor (Fact 3.2). *)
  let out = ref [] in
  let nranks = Array.length loads in
  let i = ref 0 in
  while !i < nranks do
    let v_i = loads.(!i) in
    let j = ref !i in
    let p_class = ref 0. in
    while !j < nranks && loads.(!j) = v_i do
      p_class := !p_class +. removal.(!j);
      incr j
    done;
    if !p_class > 0. then begin
      let after_removal = Lv.ominus lv !i in
      let loads' = Lv.to_array after_removal in
      let insertion = Scheduling_rule.rank_distribution t.rule ~loads:loads' in
      Array.iteri
        (fun r p_ins ->
          if p_ins > 0. then
            out := (Lv.oplus after_removal r, !p_class *. p_ins) :: !out)
        insertion
    end;
    i := !j
  done;
  !out
