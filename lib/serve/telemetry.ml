(* Always-on telemetry for the serve daemon.

   The instruments are raw {!Obs.Hist} values — atomic, domain-safe,
   and deliberately NOT gated on [Obs.enabled]: the daemon measures its
   own latency whether or not a trace is being recorded.  The global
   Obs flag keeps governing spans and the named-instrument registries,
   so the engine's zero-overhead disabled-path contract is untouched.

   Two axes of histograms:

   - [stages.(stage).(op)] — nanoseconds spent in one lifecycle stage
     (decode, route, shard-apply, reply) of one request, keyed by op
     type.  Decode and reply are timed per request in the server's
     select loop; route and shard-apply are timed per mutation inside
     {!Serve.Cluster} when a telemetry sink is attached.  Budget: each
     stage costs two monotonic-clock reads (~20-25ns each), ~150-200ns
     per fully-staged mutation — about 5-10% of the request cost at the
     ~500k ops/sec mark, which is the price of knowing where the other
     90% goes.

   - [latency.(op)] — end-to-end service nanoseconds per request, from
     the moment its line is parsed to the moment its reply is in the
     client's output buffer (queueing behind the batch included).

   Per-shard distributions ([drain_ns], [drain_depth]) and per-round
   gauge histograms ([batch_events], [round_ns]) feed the same report.
   The report builders ([report_json], [report_prom]) take plain data
   for everything the telemetry bank cannot see itself (cluster
   totals, durability state, connection counts), so this module stays
   below {!Serve.Cluster} in the dependency order. *)

module Hist = Obs.Hist
module Json = Experiment.Json

(* {2 Op taxonomy} *)

(* Wire-visible request kinds, including the server-answered ones:
   stage histograms are keyed by these indices. *)
let op_names =
  [| "step"; "round"; "insert"; "remove"; "probe"; "occupancy"; "watermark";
     "ping"; "stats"; "error" |]

let op_count = Array.length op_names
let op_step = 0
let op_round = 1
let op_insert = 2
let op_remove = 3
let op_probe = 4
let op_occupancy = 5
let op_watermark = 6
let op_ping = 7
let op_stats = 8
let op_error = 9

let op_of_event = function
  | Engine.Event.Step -> op_step
  | Engine.Event.Round -> op_round
  | Engine.Event.Insert _ -> op_insert
  | Engine.Event.Remove -> op_remove
  | Engine.Event.Probe -> op_probe
  | Engine.Event.Occupancy -> op_occupancy
  | Engine.Event.Watermark -> op_watermark

let op_name i = op_names.(i)

(* {2 Stages} *)

type stage = Decode | Route | Apply | Reply

let stage_names = [| "decode"; "route"; "apply"; "reply" |]
let stage_count = Array.length stage_names

let stage_index = function
  | Decode -> 0
  | Route -> 1
  | Apply -> 2
  | Reply -> 3

type t = {
  created_ns : int64;
  stages : Hist.t array array;  (* stage x op, nanoseconds *)
  latency : Hist.t array;  (* op, end-to-end nanoseconds *)
  batch_events : Hist.t;  (* events per applied round *)
  round_ns : Hist.t;  (* full round duration *)
  drain_ns : Hist.t array;  (* per shard: one drain pass *)
  drain_depth : Hist.t array;  (* per shard: queue depth at drain *)
}

let create ~shards =
  if shards <= 0 then invalid_arg "Serve.Telemetry.create: shards";
  {
    created_ns = Obs.Clock.now_ns ();
    stages =
      Array.init stage_count (fun _ ->
          Array.init op_count (fun _ -> Hist.create ()));
    latency = Array.init op_count (fun _ -> Hist.create ());
    batch_events = Hist.create ();
    round_ns = Hist.create ();
    drain_ns = Array.init shards (fun _ -> Hist.create ());
    drain_depth = Array.init shards (fun _ -> Hist.create ());
  }

let uptime_s t = Obs.Clock.seconds_since t.created_ns

let observe_stage t stage ~op ns =
  Hist.observe t.stages.(stage_index stage).(op) (Int64.to_int ns)

let observe_latency t ~op ns = Hist.observe t.latency.(op) (Int64.to_int ns)
let observe_batch t events = Hist.observe t.batch_events events
let observe_round t ns = Hist.observe t.round_ns (Int64.to_int ns)

let observe_drain t ~shard ~depth ns =
  Hist.observe t.drain_ns.(shard) (Int64.to_int ns);
  Hist.observe t.drain_depth.(shard) depth

(* {2 Report inputs} *)

type totals = {
  connections : int;  (* accepted over the lifetime *)
  live : int;  (* currently connected *)
  requests : int;
  events : int;
  errors : int;
  rounds : int;
}

type shard_gauges = {
  shard : int;
  bins : int;
  balls : int;
  shard_max_load : int;
  shard_watermark : int;
  applied : int;  (* mutations applied by this shard *)
  queue_depth : int;  (* pending (unflushed) events right now *)
}

type durability = {
  journal_bytes : int;
  flush_age_s : float;  (* since the journal last flushed *)
  sync_age_s : float option;  (* since the last fsync; None = never *)
  snapshot_seq : int;
  snapshot_age_s : float;
  since_snapshot : int;  (* mutations not yet covered by a snapshot *)
}

type cluster_gauges = {
  seq : int;
  balls_total : int;
  max_load : int;
  watermark : int;
}

(* {2 JSON exposition} *)

let hist_fields (s : Hist.snapshot) =
  let quantiles =
    List.map (fun (k, v) -> (k, Json.Float v)) (Hist.percentiles s)
  in
  [
    ("count", Json.Int s.count);
    ("sum", Json.Int s.sum);
    ("max", Json.Int (if s.count = 0 then 0 else s.max));
    ("mean", Json.Float (if s.count = 0 then 0. else Hist.mean s));
  ]
  @ quantiles

let hist_json s = Json.Obj (hist_fields s)

let stage_json t ~op =
  List.filter_map
    (fun stage ->
      let s = Hist.snapshot t.stages.(stage_index stage).(op) in
      if s.Hist.count = 0 then None
      else Some (stage_names.(stage_index stage), hist_json s))
    [ Decode; Route; Apply; Reply ]

let ops_json t =
  Json.Obj
    (List.filter_map
       (fun op ->
         let lat = Hist.snapshot t.latency.(op) in
         let stages = stage_json t ~op in
         if lat.Hist.count = 0 && stages = [] then None
         else
           Some
             ( op_name op,
               Json.Obj
                 (("latency_ns", hist_json lat)
                 :: List.map (fun (k, v) -> ("stage_ns_" ^ k, v)) stages) ))
       (List.init op_count Fun.id))

let shard_json t (g : shard_gauges) =
  Json.Obj
    [
      ("shard", Json.Int g.shard);
      ("bins", Json.Int g.bins);
      ("balls", Json.Int g.balls);
      ("max_load", Json.Int g.shard_max_load);
      ("watermark", Json.Int g.shard_watermark);
      ("applied", Json.Int g.applied);
      ("queue_depth", Json.Int g.queue_depth);
      ("drain_ns", hist_json (Hist.snapshot t.drain_ns.(g.shard)));
      ("drain_depth", hist_json (Hist.snapshot t.drain_depth.(g.shard)));
    ]

let durability_json (d : durability) =
  Json.Obj
    [
      ("journal_bytes", Json.Int d.journal_bytes);
      ("flush_age_s", Json.Float d.flush_age_s);
      ( "sync_age_s",
        match d.sync_age_s with Some s -> Json.Float s | None -> Json.Null );
      ("snapshot_seq", Json.Int d.snapshot_seq);
      ("snapshot_age_s", Json.Float d.snapshot_age_s);
      ("since_snapshot", Json.Int d.since_snapshot);
    ]

let report_json t ~totals ~cluster ~shards ~durability =
  [
    ("uptime_s", Json.Float (uptime_s t));
    ("seq", Json.Int cluster.seq);
    ("balls", Json.Int cluster.balls_total);
    ("max_load", Json.Int cluster.max_load);
    ("watermark", Json.Int cluster.watermark);
    ("connections", Json.Int totals.connections);
    ("clients", Json.Int totals.live);
    ("requests", Json.Int totals.requests);
    ("events", Json.Int totals.events);
    ("errors", Json.Int totals.errors);
    ("rounds", Json.Int totals.rounds);
    ("batch_events", hist_json (Hist.snapshot t.batch_events));
    ("round_ns", hist_json (Hist.snapshot t.round_ns));
    ("ops", ops_json t);
    ("shards", Json.List (List.map (shard_json t) shards));
  ]
  @
  match durability with
  | Some d -> [ ("durability", durability_json d) ]
  | None -> []

(* {2 Prometheus text exposition} *)

(* The subset of the exposition format scrapers rely on: # HELP / #
   TYPE preambles, [name{label="v",...} value] samples, histograms
   published as pre-computed quantile summaries (gauge semantics — the
   scrape cost of full cumulative buckets is not worth it for log
   buckets whose edges never change). *)
let prom_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let prom_labels labels =
  if labels = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k (prom_escape v)) labels)
    ^ "}"

let prom_number f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.6g" f

type prom = { buf : Buffer.t; mutable seen : string list }

let prom_head p name typ help =
  if not (List.mem name p.seen) then begin
    p.seen <- name :: p.seen;
    Buffer.add_string p.buf (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string p.buf (Printf.sprintf "# TYPE %s %s\n" name typ)
  end

let prom_sample p name labels v =
  Buffer.add_string p.buf
    (Printf.sprintf "%s%s %s\n" name (prom_labels labels) (prom_number v))

let prom_hist p name labels help (s : Hist.snapshot) =
  prom_head p name "gauge" help;
  List.iter
    (fun (q, v) ->
      let q =
        match q with
        | "p50" -> "0.5"
        | "p90" -> "0.9"
        | "p99" -> "0.99"
        | _ -> "0.999"
      in
      prom_sample p name (labels @ [ ("quantile", q) ]) v)
    (if s.Hist.count = 0 then [] else Hist.percentiles s);
  prom_head p (name ^ "_count") "counter" (help ^ " (observations)");
  prom_sample p (name ^ "_count") labels (float_of_int s.Hist.count);
  prom_head p (name ^ "_sum") "counter" (help ^ " (total)");
  prom_sample p (name ^ "_sum") labels (float_of_int s.Hist.sum)

let report_prom t ~totals ~cluster ~shards ~durability =
  let p = { buf = Buffer.create 4096; seen = [] } in
  let gauge name help v =
    prom_head p name "gauge" help;
    prom_sample p name [] v
  and counter name help v =
    prom_head p name "counter" help;
    prom_sample p name [] (float_of_int v)
  in
  gauge "repro_serve_uptime_seconds" "Seconds since the daemon started"
    (uptime_s t);
  gauge "repro_serve_seq" "Mutations routed over the service history"
    (float_of_int cluster.seq);
  gauge "repro_serve_balls" "Balls currently in the system"
    (float_of_int cluster.balls_total);
  gauge "repro_serve_max_load" "Current maximum bin load"
    (float_of_int cluster.max_load);
  gauge "repro_serve_watermark" "Highest load seen since boot"
    (float_of_int cluster.watermark);
  gauge "repro_serve_clients" "Currently connected clients"
    (float_of_int totals.live);
  counter "repro_serve_connections_total" "Connections accepted"
    totals.connections;
  counter "repro_serve_requests_total" "Requests parsed" totals.requests;
  counter "repro_serve_events_total" "Events applied" totals.events;
  counter "repro_serve_errors_total" "Error replies" totals.errors;
  counter "repro_serve_rounds_total" "Select rounds with traffic"
    totals.rounds;
  prom_hist p "repro_serve_batch_events" [] "Events per applied round"
    (Hist.snapshot t.batch_events);
  prom_hist p "repro_serve_round_ns" [] "Round duration in nanoseconds"
    (Hist.snapshot t.round_ns);
  List.iter
    (fun op ->
      let lat = Hist.snapshot t.latency.(op) in
      if lat.Hist.count > 0 then
        prom_hist p "repro_serve_latency_ns"
          [ ("op", op_name op) ]
          "End-to-end request latency in nanoseconds" lat;
      List.iter
        (fun stage ->
          let s = Hist.snapshot t.stages.(stage_index stage).(op) in
          if s.Hist.count > 0 then
            prom_hist p "repro_serve_stage_ns"
              [ ("op", op_name op);
                ("stage", stage_names.(stage_index stage)) ]
              "Lifecycle stage duration in nanoseconds" s)
        [ Decode; Route; Apply; Reply ])
    (List.init op_count Fun.id);
  List.iter
    (fun (g : shard_gauges) ->
      let labels = [ ("shard", string_of_int g.shard) ] in
      let shard_gauge name help v =
        prom_head p name "gauge" help;
        prom_sample p name labels (float_of_int v)
      in
      shard_gauge "repro_serve_shard_balls" "Balls in the shard" g.balls;
      shard_gauge "repro_serve_shard_max_load" "Shard maximum bin load"
        g.shard_max_load;
      shard_gauge "repro_serve_shard_applied" "Mutations applied by the shard"
        g.applied;
      shard_gauge "repro_serve_shard_queue_depth"
        "Pending events queued for the shard" g.queue_depth;
      prom_hist p "repro_serve_shard_drain_ns" labels
        "Shard drain pass duration in nanoseconds"
        (Hist.snapshot t.drain_ns.(g.shard));
      prom_hist p "repro_serve_shard_drain_depth" labels
        "Queue depth at drain time"
        (Hist.snapshot t.drain_depth.(g.shard)))
    shards;
  (match durability with
  | None -> ()
  | Some d ->
      gauge "repro_serve_journal_bytes" "Journal file size in bytes"
        (float_of_int d.journal_bytes);
      gauge "repro_serve_journal_flush_age_seconds"
        "Seconds since the journal last flushed" d.flush_age_s;
      (match d.sync_age_s with
      | Some s ->
          gauge "repro_serve_journal_sync_age_seconds"
            "Seconds since the journal last fsynced" s
      | None -> ());
      gauge "repro_serve_snapshot_seq" "Sequence of the last snapshot"
        (float_of_int d.snapshot_seq);
      gauge "repro_serve_snapshot_age_seconds"
        "Seconds since the last snapshot" d.snapshot_age_s;
      gauge "repro_serve_since_snapshot"
        "Mutations not yet covered by a snapshot"
        (float_of_int d.since_snapshot));
  Buffer.contents p.buf
