type t = {
  scenario : Scenario.t;
  rule : Scheduling_rule.t;
  relocations : int;
  n : int;
}

let make scenario rule ~relocations ~n =
  if relocations < 0 then invalid_arg "Relocation.make: negative relocations";
  if n <= 0 then invalid_arg "Relocation.make: n must be positive";
  { scenario; rule; relocations; n }

let name t =
  Printf.sprintf "%s-%s+reloc%d"
    (Scenario.process_prefix t.scenario)
    (Scheduling_rule.name t.rule) t.relocations

let relocation_attempts t = t.relocations

(* Find some bin with the current maximum load: scan is O(n) but the
   relocation count is small and experiments use moderate n. *)
let fullest_bin bins =
  let target = Bins.max_load bins in
  let rec scan b =
    if Bins.load bins b = target then b else scan (b + 1)
  in
  scan 0

(* Returns the number of probes it consumed, so the engine adapter can
   meter relocation traffic alongside insertion traffic. *)
let relocate_once t g bins =
  if Bins.max_load bins > 0 then begin
    let from_bin = fullest_bin bins in
    (* Probe for a destination per the rule without committing. *)
    let d = match t.rule with Scheduling_rule.Abku d -> d | Adap _ -> 2 in
    let best = ref (Prng.Rng.int g t.n) in
    for _ = 2 to d do
      let b = Prng.Rng.int g t.n in
      if Bins.load bins b < Bins.load bins !best then best := b
    done;
    (* Commit only strictly improving moves, so relocation never makes
       the state worse. *)
    if Bins.load bins !best + 1 < Bins.load bins from_bin then
      Bins.move_ball bins ~src:from_bin ~dst:!best;
    d
  end
  else 0

let step_counted t g bins =
  (match t.scenario with
  | Scenario.A -> ignore (Bins.remove_ball_uniform g bins)
  | Scenario.B -> ignore (Bins.remove_from_random_nonempty g bins));
  let _, insert_probes = Bins.insert_with_rule t.rule g bins in
  let reloc_probes = ref 0 in
  for _ = 1 to t.relocations do
    reloc_probes := !reloc_probes + relocate_once t g bins
  done;
  insert_probes + !reloc_probes

let step t g bins = ignore (step_counted t g bins)

(* ---- exact one-step law (per-bin load arrays) ---------------------- *)

(* The enumerations below mirror the steppers above branch for branch:
   Bins.insert_with_rule's and relocate_once's first-strict-minimum probe
   tie-breaking, and relocate_once's lowest-index fullest source. *)

let merge_outcomes outcomes =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, p) ->
      let prev = Option.value (Hashtbl.find_opt tbl s) ~default:0. in
      Hashtbl.replace tbl s (prev +. p))
    outcomes;
  Hashtbl.fold (fun s p acc -> (s, p) :: acc) tbl []

let apply_stage dist f =
  List.concat_map (fun (s, p) -> List.map (fun (s', q) -> (s', p *. q)) (f s)) dist
  |> merge_outcomes

(* Probability each bin is the probe winner after [d] i.u.r. probes,
   a later probe displacing the current best only on a strictly smaller
   load — exactly [Bins.insert_with_rule (Abku d)]. *)
let abku_choice_distribution ~d loads =
  let n = Array.length loads in
  let dist = Array.make n 0. in
  let inv_n = 1. /. float_of_int n in
  let rec go probes best p =
    if probes = d then dist.(best) <- dist.(best) +. p
    else
      for b = 0 to n - 1 do
        go (probes + 1) (if loads.(b) < loads.(best) then b else best) (p *. inv_n)
      done
  in
  for b0 = 0 to n - 1 do
    go 1 b0 inv_n
  done;
  dist

let array_update loads b delta =
  let s = Array.copy loads in
  s.(b) <- s.(b) + delta;
  s

let removal_outcomes scenario loads =
  let m = Array.fold_left ( + ) 0 loads in
  match scenario with
  | Scenario.A ->
      let inv_m = 1. /. float_of_int m in
      List.filter_map
        (fun b ->
          if loads.(b) = 0 then None
          else Some (array_update loads b (-1), float_of_int loads.(b) *. inv_m))
        (List.init (Array.length loads) Fun.id)
  | Scenario.B ->
      let nonempty = Array.fold_left (fun acc l -> if l > 0 then acc + 1 else acc) 0 loads in
      let p = 1. /. float_of_int nonempty in
      List.filter_map
        (fun b -> if loads.(b) = 0 then None else Some (array_update loads b (-1), p))
        (List.init (Array.length loads) Fun.id)

let insertion_outcomes ~d loads =
  abku_choice_distribution ~d loads
  |> Array.to_seqi
  |> Seq.filter_map (fun (b, p) ->
         if p > 0. then Some (array_update loads b 1, p) else None)
  |> List.of_seq

let relocation_outcomes ~d loads =
  let max_load = Array.fold_left Stdlib.max 0 loads in
  if max_load = 0 then [ (loads, 1.) ]
  else begin
    (* relocate_once's [fullest_bin]: lowest index at the maximum. *)
    let from_bin =
      let rec scan b = if loads.(b) = max_load then b else scan (b + 1) in
      scan 0
    in
    abku_choice_distribution ~d loads
    |> Array.to_seqi
    |> Seq.filter_map (fun (b, p) ->
           if p <= 0. then None
           else if loads.(b) + 1 < loads.(from_bin) then
             (* Commit: move one ball from the fullest bin to [b]. *)
             let s = Array.copy loads in
             s.(from_bin) <- s.(from_bin) - 1;
             s.(b) <- s.(b) + 1;
             Some (s, p)
           else Some (loads, p))
    |> List.of_seq
    |> merge_outcomes
  end

let exact_transitions t loads0 =
  let d =
    match t.rule with
    | Scheduling_rule.Abku d -> d
    | Adap _ ->
        invalid_arg
          "Relocation.exact_transitions: ADAP probe tuples are unbounded"
  in
  if Array.length loads0 <> t.n then
    invalid_arg "Relocation.exact_transitions: dimension mismatch";
  Array.iter
    (fun l ->
      if l < 0 then invalid_arg "Relocation.exact_transitions: negative load")
    loads0;
  if Array.for_all (( = ) 0) loads0 then
    invalid_arg "Relocation.exact_transitions: no balls";
  let dist = removal_outcomes t.scenario loads0 in
  let dist = apply_stage dist (insertion_outcomes ~d) in
  let rec relocate k dist =
    if k = 0 then dist else relocate (k - 1) (apply_stage dist (relocation_outcomes ~d))
  in
  relocate t.relocations dist

let sim ?metrics t bins =
  if Bins.n bins <> t.n then invalid_arg "Relocation.sim: size mismatch";
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  Engine.Sim.make ~metrics
    ~step:(fun g ->
      let probes = step_counted t g bins in
      Engine.Metrics.add_probes metrics probes;
      Engine.Metrics.add_draws metrics (1 + probes))
    ~observe:(fun () -> Bins.loads bins)
    ~reset:(fun loads -> Bins.reset_loads bins loads)
    ~probe:(fun () -> Bins.max_load bins)
    ()
