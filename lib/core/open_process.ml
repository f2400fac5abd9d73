module Mv = Loadvec.Mutable_vector

type t = {
  insert_probability : float;
  rule : Scheduling_rule.t;
  n : int;
  capacity : int option;
}

let make ?(insert_probability = 0.5) ?capacity rule ~n =
  if n <= 0 then invalid_arg "Open_process.make: n must be positive";
  if not (insert_probability > 0. && insert_probability < 1.) then
    invalid_arg "Open_process.make: probability must be in (0,1)";
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Open_process.make: capacity must be >= 1"
  | _ -> ());
  { insert_probability; rule; n; capacity }

let name t =
  Printf.sprintf "Open(p=%.2f, %s%s)" t.insert_probability
    (Scheduling_rule.name t.rule)
    (match t.capacity with
    | None -> ""
    | Some c -> Printf.sprintf ", cap=%d" c)

let below_capacity t current =
  match t.capacity with None -> true | Some c -> current < c

(* One normalized step driven by explicit variates so the coupling can
   share them: [coin] decides insert/remove, [u] drives the removal
   inverse CDF, [probe] drives the insertion. *)
let step_with t v ~coin ~u ~probe =
  if coin < t.insert_probability then begin
    if below_capacity t (Mv.total v) then begin
      let rank, _ =
        Scheduling_rule.choose_rank t.rule ~loads:(Mv.unsafe_loads v) ~probe
      in
      ignore (Mv.incr_at v rank)
    end
  end
  else if Mv.total v > 0 then
    ignore (Mv.decr_at v (Scenario.remove_rank Scenario.A v ~u))

let step_normalized t g v =
  let coin = Prng.Rng.float g in
  let u = Prng.Rng.float g in
  let probe = Probe.create g ~n:t.n in
  step_with t v ~coin ~u ~probe;
  Probe.consumed probe

(* Two variates (coin, removal) plus one draw per consumed probe. *)
let sim ?metrics t v =
  if Mv.dim v <> t.n then invalid_arg "Open_process.sim: dimension mismatch";
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  Engine.Sim.make ~metrics
    ~step:(fun g ->
      let probes = step_normalized t g v in
      Engine.Metrics.add_probes metrics probes;
      Engine.Metrics.add_draws metrics (2 + probes))
    ~observe:(fun () -> Mv.to_load_vector v)
    ~reset:(fun lv -> Mv.set_from_load_vector v lv)
    ~probe:(fun () -> Mv.max_load v)
    ()

let exact_transitions t lv =
  let module Lv = Loadvec.Load_vector in
  if Lv.dim lv <> t.n then
    invalid_arg "Open_process.exact_transitions: dimension mismatch";
  (match t.capacity with
  | Some c when Lv.total lv > c ->
      invalid_arg "Open_process.exact_transitions: state above capacity"
  | _ -> ());
  let p = t.insert_probability in
  let loads = Lv.to_array lv in
  let insert_part =
    if below_capacity t (Lv.total lv) then
      Scheduling_rule.rank_distribution t.rule ~loads
      |> Array.to_seqi
      |> Seq.filter_map (fun (r, pr) ->
             if pr > 0. then Some (Lv.oplus lv r, p *. pr) else None)
      |> List.of_seq
    else [ (lv, p) ]
  in
  let remove_part =
    if Lv.total lv > 0 then
      Scenario.removal_distribution Scenario.A ~loads
      |> Array.to_seqi
      |> Seq.filter_map (fun (r, pr) ->
             if pr > 0. then Some (Lv.ominus lv r, (1. -. p) *. pr) else None)
      |> List.of_seq
    else [ (lv, 1. -. p) ]
  in
  insert_part @ remove_part

let coupled t =
  let step g x y =
    let coin = Prng.Rng.float g in
    let u = Prng.Rng.float g in
    let probe = Probe.create g ~n:t.n in
    step_with t x ~coin ~u ~probe;
    step_with t y ~coin ~u ~probe;
    (x, y)
  in
  Coupling.Coupled_chain.make ~step ~equal:Mv.equal ~distance:(fun a b ->
      (Mv.l1_distance a b + 1) / 2)
