module Mv = Loadvec.Mutable_vector
module Lv = Loadvec.Load_vector
module Cv = Loadvec.Count_vector

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

(* Insertion without probe memoization: draw ranks directly.  Equivalent
   in law to evaluating D(v, b) on a fresh probe sequence. *)
let choose_rank_direct rule g ~loads =
  let n = Array.length loads in
  match rule with
  | Scheduling_rule.Abku d ->
      let best = ref (Prng.Rng.int g n) in
      for _ = 2 to d do
        let b = Prng.Rng.int g n in
        if b > !best then best := b
      done;
      (!best, d)
  | Scheduling_rule.Adap x ->
      let rec go t best =
        if t > Scheduling_rule.probe_cap then
          Scheduling_rule.probe_cap_exceeded rule ~n;
        if Adaptive.threshold x loads.(best) <= t then (best, t)
        else go (t + 1) (Stdlib.max best (Prng.Rng.int g n))
      in
      go 1 (Prng.Rng.int g n)

let step_probes t g v =
  if Mv.dim v <> t.n then invalid_arg "Dynamic_process.step: dimension mismatch";
  let u = Prng.Rng.float g in
  let rank = Scenario.remove_rank t.scenario v ~u in
  ignore (Mv.decr_at v rank);
  let target, probes = choose_rank_direct t.rule g ~loads:(Mv.unsafe_loads v) in
  ignore (Mv.incr_at v target);
  probes

let step_in_place t g v = ignore (step_probes t g v)

(* Count-vector twin of [choose_rank_direct]: identical draw sequence,
   with the rank-to-load lookup done by a level scan instead of an
   array read.  For ADAP the best level is only rescanned when the best
   rank improves. *)
let choose_level_direct rule g cv =
  let n = Cv.dim cv in
  match rule with
  | Scheduling_rule.Abku d ->
      let best = ref (Prng.Rng.int g n) in
      for _ = 2 to d do
        let b = Prng.Rng.int g n in
        if b > !best then best := b
      done;
      (Cv.level_of_rank cv !best, d)
  | Scheduling_rule.Adap x ->
      let rec go t best level =
        if t > Scheduling_rule.probe_cap then
          Scheduling_rule.probe_cap_exceeded rule ~n;
        if Adaptive.threshold x level <= t then (level, t)
        else
          let b = Prng.Rng.int g n in
          if b > best then go (t + 1) b (Cv.level_of_rank cv b)
          else go (t + 1) best level
      in
      let r = Prng.Rng.int g n in
      go 1 r (Cv.level_of_rank cv r)

(* Count-backed step: consumes exactly the draws of [step_probes] (one
   removal float, then the rule's rank ints), so on equal multisets the
   two steppers stay in lockstep forever. *)
let step_counts_probes t g cv =
  if Cv.dim cv <> t.n then
    invalid_arg "Dynamic_process.step_counts: dimension mismatch";
  let u = Prng.Rng.float g in
  let level = Scenario.remove_level t.scenario cv ~u in
  Cv.shift_down cv level;
  let dest, probes = choose_level_direct t.rule g cv in
  Cv.shift_up cv dest;
  probes

let step_counts_in_place t g cv = ignore (step_counts_probes t g cv)

let chain t g lv =
  let v = Mv.of_load_vector lv in
  step_in_place t g v;
  Mv.to_load_vector v

(* One removal variate plus one draw per insertion probe. *)
let sim ?metrics t v =
  if Mv.dim v <> t.n then invalid_arg "Dynamic_process.sim: dimension mismatch";
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  Engine.Sim.make ~metrics
    ~step:(fun g ->
      let probes = step_probes t g v in
      Engine.Metrics.add_probes metrics probes;
      Engine.Metrics.add_draws metrics (1 + probes))
    ~observe:(fun () -> Mv.to_load_vector v)
    ~reset:(fun lv -> Mv.set_from_load_vector v lv)
    ~probe:(fun () -> Mv.max_load v)
    ()

(* {2 Representation-selectable steppers} *)

let sim_counts ?metrics t cv =
  if Cv.dim cv <> t.n then
    invalid_arg "Dynamic_process.sim: dimension mismatch";
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  Engine.Sim.make ~metrics
    ~step:(fun g ->
      let probes = step_counts_probes t g cv in
      Engine.Metrics.add_probes metrics probes;
      Engine.Metrics.add_draws metrics (1 + probes))
    ~observe:(fun () -> Cv.to_load_vector cv)
    ~reset:(fun lv -> Cv.set_from_load_vector cv lv)
    ~probe:(fun () -> Cv.max_load cv)
    ()

(* Cutoff-table backend (ABKU only): the removal draw is unchanged, the
   d probe draws collapse into one float through the incrementally
   maintained CDF table.  Probes are still accounted as d — that is the
   law being simulated — while the draw counter records the real
   consumption (two floats per step). *)
let sim_counts_sampled ?metrics t cv ~d =
  if Cv.dim cv <> t.n then
    invalid_arg "Dynamic_process.sim: dimension mismatch";
  let module Tbl = Scheduling_rule.Abku_table in
  let rebuild () =
    Tbl.create ~d ~n:t.n ~max_level:(Cv.max_load cv) ~count:(Cv.count cv)
  in
  let table = ref (rebuild ()) in
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  Engine.Sim.make ~metrics
    ~step:(fun g ->
      let u = Prng.Rng.float g in
      let level = Scenario.remove_level t.scenario cv ~u in
      Cv.shift_down cv level;
      Tbl.on_loss !table level;
      let dest = Tbl.draw_level !table g in
      Cv.shift_up cv dest;
      Tbl.on_gain !table (dest + 1);
      Engine.Metrics.add_probes metrics d;
      Engine.Metrics.add_draws metrics 2)
    ~observe:(fun () -> Cv.to_load_vector cv)
    ~reset:(fun lv ->
      Cv.set_from_load_vector cv lv;
      table := rebuild ())
    ~probe:(fun () -> Cv.max_load cv)
    ()

let sim_repr ?metrics ?(repr = Repr.Array_backed) t start =
  if Lv.dim start <> t.n then
    invalid_arg "Dynamic_process.sim_repr: dimension mismatch";
  match (repr, t.rule) with
  | Repr.Array_backed, _ -> sim ?metrics t (Mv.of_load_vector start)
  | Repr.Count_backed, _ | Repr.Count_sampled, Scheduling_rule.Adap _ ->
      (* ADAP's probe loop is data-dependent; there is no cutoff table
         to collapse it, so counts-sampled degrades to counts. *)
      sim_counts ?metrics t (Cv.of_load_vector start)
  | Repr.Count_sampled, Scheduling_rule.Abku d ->
      sim_counts_sampled ?metrics t (Cv.of_load_vector start) ~d

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
