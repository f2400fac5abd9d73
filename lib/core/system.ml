type t = { scenario : Scenario.t; rule : Scheduling_rule.t; bins : Bins.t }

let create ?(repr = Repr.Array_backed) scenario rule bins =
  if Bins.num_balls bins = 0 then invalid_arg "System.create: no balls";
  (* Bins is already count-indexed, so [Count_backed] changes nothing
     here; only [Count_sampled] switches the insertion machinery (and
     only ABKU has a sampled form — ADAP's threshold is adaptive). *)
  (match (repr, rule) with
  | Repr.Count_sampled, Scheduling_rule.Abku d ->
      Bins.enable_sampled_insertion bins ~d
  | _ -> ());
  { scenario; rule; bins }

let bins t = t.bins
let sampled t = Bins.sampled_insertion t.bins <> None

let insert g t =
  if sampled t then Bins.insert_sampled g t.bins
  else Bins.insert_with_rule t.rule g t.bins

let step_probes g t =
  (match t.scenario with
  | Scenario.A -> ignore (Bins.remove_ball_uniform g t.bins)
  | Scenario.B -> ignore (Bins.remove_from_random_nonempty g t.bins));
  let _, probes = insert g t in
  probes

let step g t = ignore (step_probes g t)

let run g t ~steps =
  if steps < 0 then invalid_arg "System.run: negative steps";
  for _ = 1 to steps do
    step g t
  done

let max_load t = Bins.max_load t.bins

(* Scenario A draws one registry slot, scenario B one non-empty bin;
   the insertion draws one bin per probe.  The [extend] handler below
   makes the sim a full event machine: the serve layer drives the same
   system through half-transitions ([Insert]/[Remove]) and queries,
   while the rep loops keep feeding it composite [Step]s.  Mutations
   against an empty system come back [Rejected] instead of raising —
   and consume no randomness — so a service batch survives them and
   journal replay stays exact. *)
let sim ?metrics t =
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  let extend g = function
    | Engine.Event.Insert _ ->
        let was_sampled = sampled t in
        let bin, probes = insert g t in
        Engine.Metrics.add_probes metrics probes;
        (* Sampled insertion consumes one float + one int, whatever the
           rule's probe count [d] (the law it reports as probes). *)
        Engine.Metrics.add_draws metrics (if was_sampled then 2 else probes);
        Engine.Metrics.watermark metrics (Bins.max_load t.bins);
        Engine.Event.Placed bin
    | Engine.Event.Remove ->
        if Bins.num_balls t.bins = 0 then Engine.Event.Rejected "empty"
        else begin
          let bin =
            match t.scenario with
            | Scenario.A -> Bins.remove_ball_uniform g t.bins
            | Scenario.B -> Bins.remove_from_random_nonempty g t.bins
          in
          Engine.Metrics.add_draws metrics 1;
          Engine.Event.Removed bin
        end
    | Engine.Event.Occupancy -> Engine.Event.Loads (Bins.loads t.bins)
    | ev -> Engine.Event.Rejected (Engine.Event.name ev ^ " unsupported")
  in
  Engine.Sim.make ~metrics ~extend
    ~step:(fun g ->
      let probes = step_probes g t in
      Engine.Metrics.add_probes metrics probes;
      Engine.Metrics.add_draws metrics (1 + if sampled t then 2 else probes))
    ~observe:(fun () -> Bins.loads t.bins)
    ~reset:(fun loads -> Bins.reset_loads t.bins loads)
    ~probe:(fun () -> Bins.max_load t.bins)
    ()

let run_until g t ~pred ~limit =
  if limit < 0 then invalid_arg "System.run_until: negative limit";
  let rec go k =
    if pred t then Some k
    else if k >= limit then None
    else begin
      step g t;
      go (k + 1)
    end
  in
  go 0
