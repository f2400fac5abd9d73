(* Always-on telemetry for the serve daemon: raw {!Obs.Hist} values,
   atomic, domain-safe and deliberately NOT gated on [Obs.enabled].
   The recording paths observe pre-resolved handles; the registry only
   reads them on a scrape.

   [stages.(stage).(op)] holds the nanoseconds of one lifecycle stage
   of one request: decode and reply are timed per request in the
   server's select loop, route and shard-apply per mutation inside
   {!Serve.Cluster}.  Adjacent stages share a boundary: one
   [Obs.Clock.now_int] reading ends a stage and starts the next, and
   every duration is the difference of two such readings.
   [latency.(op)] runs from the start of a request's decode stage to
   the end of its reply stage, queueing behind the batch included. *)

module Hist = Obs.Hist
module Registry = Obs.Registry

(* {2 Op taxonomy} *)

(* Wire-visible request kinds, including the server-answered ones:
   stage histograms are keyed by these indices. *)
let op_names =
  [| "step"; "round"; "insert"; "remove"; "probe"; "occupancy"; "watermark";
     "ping"; "stats"; "error" |]

let op_ping = 7
let op_stats = 8
let op_error = 9

let op_of_event = function
  | Engine.Event.Step -> 0
  | Engine.Event.Round -> 1
  | Engine.Event.Insert _ -> 2
  | Engine.Event.Remove -> 3
  | Engine.Event.Probe -> 4
  | Engine.Event.Occupancy -> 5
  | Engine.Event.Watermark -> 6

let op_name i = op_names.(i)

(* {2 Stages} *)

type stage = Decode | Route | Apply | Reply

let stage_names = [| "decode"; "route"; "apply"; "reply" |]

let stage_index = function
  | Decode -> 0
  | Route -> 1
  | Apply -> 2
  | Reply -> 3

type t = {
  registry : Registry.t;
  stages : Hist.t array array;  (* stage x op, nanoseconds *)
  latency : Hist.t array;  (* op, end-to-end nanoseconds *)
  batch_events : Hist.t;  (* events per applied round *)
  round_ns : Hist.t;  (* full round duration *)
  drain_ns : Hist.t array;  (* per shard: one drain pass *)
  drain_depth : Hist.t array;  (* per shard: queue depth at drain *)
}

let hists n = Array.init n (fun _ -> Hist.create ())

let create ~shards =
  if shards <= 0 then invalid_arg "Serve.Telemetry.create: shards";
  let t =
    {
      registry = Registry.create ();
      stages = Array.map (fun _ -> hists (Array.length op_names)) stage_names;
      latency = hists (Array.length op_names);
      batch_events = Hist.create ();
      round_ns = Hist.create ();
      drain_ns = hists shards;
      drain_depth = hists shards;
    }
  in
  let r = t.registry in
  let created_ns = Obs.Clock.now_ns () in
  Registry.gauge_float r "uptime_seconds" ~help:"Seconds since the daemon started"
    (fun () -> Some (Obs.Clock.seconds_since created_ns));
  Registry.histogram r "batch_events" ~help:"Events per applied round"
    t.batch_events;
  Registry.histogram r "round_ns" ~help:"Round duration in nanoseconds"
    t.round_ns;
  Array.iteri
    (fun op h ->
      Registry.histogram r "latency_ns" h
        ~labels:[ ("op", op_names.(op)) ]
        ~help:"End-to-end request latency in nanoseconds")
    t.latency;
  Array.iteri
    (fun op name ->
      Array.iteri
        (fun stage stage_name ->
          Registry.histogram r "stage_ns" t.stages.(stage).(op)
            ~labels:[ ("op", name); ("stage", stage_name) ]
            ~help:"Lifecycle stage duration in nanoseconds")
        stage_names)
    op_names;
  for s = 0 to shards - 1 do
    let labels = [ ("shard", string_of_int s) ] in
    Registry.histogram r "shard_drain_ns" ~labels t.drain_ns.(s)
      ~help:"Shard drain pass duration in nanoseconds";
    Registry.histogram r "shard_drain_depth" ~labels t.drain_depth.(s)
      ~help:"Queue depth at drain time"
  done;
  t

let registry t = t.registry

let observe_stage t stage ~op ns = Hist.observe t.stages.(stage_index stage).(op) ns
let observe_latency t ~op ns = Hist.observe t.latency.(op) ns
let observe_batch t events = Hist.observe t.batch_events events
let observe_round t ns = Hist.observe t.round_ns ns

let observe_drain t ~shard ~depth ns =
  Hist.observe t.drain_ns.(shard) ns;
  Hist.observe t.drain_depth.(shard) depth
