(* A sim is an event-driven state machine over preallocated buffers: the
   primary interface is [apply : rng -> Event.t -> Event.reply], and the
   historical step/probe entry points are the [Step]/[Probe] projections
   of it.  [make] wraps the adapter's raw step exactly as before (step
   counter, watermark, sampled trace events), so the rep loops — now
   phrased as streams of [Step] events — are bit-identical to the
   pre-event engine. *)

type 'obs t = {
  step : Prng.Rng.t -> unit;  (* the wrapped [Step] transition *)
  extend : (Prng.Rng.t -> Event.t -> Event.reply) option;
  observe : unit -> 'obs;
  reset : 'obs -> unit;
  probe : unit -> int;
  metrics : Metrics.t;
}

(* Sampled trace events: every [sample_mask + 1]-th step of a traced
   run emits one "sim.step" span plus a point on the "sim.watermark"
   timeline and a histogram observation of the cheap observable.  The
   sampling test costs one extra branch on the Obs flag per step when
   tracing is off. *)
let sample_mask = 1023
let watermark_hist = Obs.Histogram.make "sim.watermark"

let traced_step metrics probe step g =
  let sp = Obs.begin_span "sim.step" in
  step g;
  Metrics.add_step metrics;
  let level = probe () in
  Metrics.watermark metrics level;
  Obs.end_span ~args:[ ("step", Obs.Int (Metrics.steps metrics)) ] sp;
  Obs.counter_sample "sim.watermark" level;
  Obs.Histogram.observe watermark_hist level

let make ?metrics ?(watermark = true) ?extend ~step ~observe ~reset ~probe () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let step =
    if watermark then (fun g ->
      if Obs.enabled () && Metrics.steps metrics land sample_mask = 0 then
        traced_step metrics probe step g
      else begin
        step g;
        Metrics.add_step metrics;
        Metrics.watermark metrics (probe ())
      end)
    else (fun g ->
      step g;
      Metrics.add_step metrics)
  in
  { step; extend; observe; reset; probe; metrics }

let metrics s = s.metrics

(* The state machine.  [Step]/[Probe]/[Watermark] are generic; the
   remaining vocabulary is machine-specific and goes through [extend]
   when the adapter provided one. *)
let apply s g ev =
  match ev with
  | Event.Step ->
      s.step g;
      Event.Ack
  | Event.Probe -> Event.Level (s.probe ())
  | Event.Watermark -> Event.Level (Metrics.watermark_level s.metrics)
  | Event.Round | Event.Insert _ | Event.Remove | Event.Occupancy -> (
      match s.extend with
      | Some handle -> handle g ev
      | None -> Event.Rejected (Event.name ev ^ " unsupported"))

let step s g = s.step g
let observe s = s.observe ()
let reset s obs = s.reset obs
let probe s = s.probe ()

(* The rep-loop drivers below are [Step]-event streams over [apply];
   [Step] replies are the immediate constructor [Ack], so the loops
   still allocate nothing. *)

let iterate s g t =
  if t < 0 then invalid_arg "Sim.iterate: negative step count";
  for _ = 1 to t do
    ignore (apply s g Event.Step)
  done

let first_hit s g ~pred ~limit =
  if limit < 0 then invalid_arg "Sim.first_hit: negative limit";
  let rec go t =
    if pred (s.probe ()) then Some t
    else if t >= limit then None
    else begin
      ignore (apply s g Event.Step);
      go (t + 1)
    end
  in
  go 0

let sample_every s g ~burn_in ~every ~samples obs =
  if burn_in < 0 || every <= 0 || samples < 0 then
    invalid_arg "Sim.sample_every: bad parameters";
  iterate s g burn_in;
  let out = ref [] in
  for _ = 1 to samples do
    iterate s g every;
    out := obs () :: !out
  done;
  List.rev !out
