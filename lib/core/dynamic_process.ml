module Lv = Loadvec.Load_vector

type t = { scenario : Scenario.t; rule : Scheduling_rule.t; n : int }

let make scenario rule ~n =
  if n <= 0 then invalid_arg "Dynamic_process.make: n must be positive";
  { scenario; rule; n }

let scenario t = t.scenario
let rule t = t.rule
let n t = t.n

let name t =
  Printf.sprintf "%s-%s"
    (Scenario.process_prefix t.scenario)
    (Scheduling_rule.name t.rule)

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

(* The end (exclusive) of the load class starting at rank [i]. *)
let class_end loads i =
  let v = loads.(i) and j = ref (i + 1) in
  while !j < Array.length loads && loads.(!j) = v do
    incr j
  done;
  !j

(* The mass a per-rank law puts on the ranks [i, j). *)
let class_mass law i j =
  let p = ref 0. in
  for k = i to j - 1 do
    p := !p +. law.(k)
  done;
  !p

(* One successor per (removed class, inserted class): by Fact 3.2 every
   rank of a load class yields the same normalized successor, so the
   removal and the insertion mass are each summed over a class's ranks
   before the successor is built.  Two different class pairs reach
   different states, except that re-inserting into the class the removal
   just lowered gives back [lv] itself. *)
let exact_transitions t =
  (* The ABKU[d] rank law depends on n and d alone; ADAP's on the loads
     left by the removal. *)
  let fixed_law =
    match t.rule with
    | Scheduling_rule.Abku _ ->
        Some
          (Scheduling_rule.rank_distribution t.rule ~loads:(Array.make t.n 0))
    | Scheduling_rule.Adap _ -> None
  in
  fun lv ->
    if Lv.dim lv <> t.n then
      invalid_arg "Dynamic_process.exact_transitions: dimension mismatch";
    let loads = Lv.to_array lv in
    let removal = Scenario.removal_distribution t.scenario ~loads in
    let out = ref [] in
    let i = ref 0 in
    while !i < t.n do
      let j = class_end loads !i in
      let p_removal = class_mass removal !i j in
      if p_removal > 0. then begin
        (* The removal lowers the class's last rank; [loads] holds the
           vector after it until the rank is restored. *)
        let after = Lv.ominus lv !i in
        loads.(j - 1) <- loads.(j - 1) - 1;
        let insertion =
          match fixed_law with
          | Some law -> law
          | None -> Scheduling_rule.rank_distribution t.rule ~loads
        in
        let a = ref 0 in
        while !a < t.n do
          let b = class_end loads !a in
          let p_insertion = class_mass insertion !a b in
          if p_insertion > 0. then begin
            let s' = if !a = j - 1 then lv else Lv.oplus after !a in
            out := (s', p_removal *. p_insertion) :: !out
          end;
          a := b
        done;
        loads.(j - 1) <- loads.(j - 1) + 1
      end;
      i := j
    done;
    !out
