(* A cluster of shards behind one deterministic router.

   Each event is handled as it arrives: a mutation is routed and
   applied to its shard at once, a round is applied to every shard in
   turn, and a query reads the current state.  Routing is sequential in
   arrival order, so with the per-shard generators the state after N
   events is a pure function of the event prefix, regardless of batch
   boundaries (the batch-invariance property the tests pin down).

   Removal routing picks a shard with probability proportional to its
   ball count, so the global removal law of scenario A
   (ball uniform among all balls) is exact.  For scenario B it is an
   approximation (exact B would weight by non-empty bins); insertion
   probes stay within the routed shard, which narrows d-choice to one
   shard's bins — both deviations are documented in DESIGN.md. *)

type config = {
  n : int;
  m : int;
  shards : int;
  process : Process.t;
  scenario : Core.Scenario.t;
  rule : Core.Scheduling_rule.t;
  repr : Core.Repr.t;
  seed : int;
}

type t = {
  config : config;
  shards : Shard.t array;
  router : Prng.Rng.t;
  mutable seq : int;  (* mutation events routed since creation *)
  mutable tel : Telemetry.t option;
      (* When attached, route and shard-apply stages are timed into it;
         the telemetry-free path stays clock-call free. *)
}

let config t = t.config
let seq t = t.seq

let total_balls t =
  Array.fold_left (fun acc sh -> acc + Shard.balls sh) 0 t.shards

let validate_config c =
  if c.repr <> Core.Repr.Array_backed then
    invalid_arg
      ("Serve.Cluster: repr " ^ Core.Repr.name c.repr
     ^ " is not served (shards are array-backed)");
  if c.n <= 0 then invalid_arg "Serve.Cluster: n must be positive";
  if c.m < 0 then invalid_arg "Serve.Cluster: m must be non-negative";
  if c.shards <= 0 then invalid_arg "Serve.Cluster: shards must be positive";
  if c.shards > c.n then
    invalid_arg "Serve.Cluster: more shards than bins";
  if c.process = Process.Rbb then
    match Rbb.of_scheduling_rule c.rule with
    | Ok _ -> ()
    | Error e -> invalid_arg ("Serve.Cluster: " ^ e)

(* Contiguous ranges of near-equal size: the first [n mod shards]
   shards own one extra bin. *)
let shard_range c s =
  let base = c.n / c.shards and extra = c.n mod c.shards in
  let lo = (s * base) + min s extra in
  let len = base + if s < extra then 1 else 0 in
  (lo, len)

let initial_loads c =
  let q = c.m / c.n and r = c.m mod c.n in
  Array.init c.n (fun i -> if i < r then q + 1 else q)

let create config =
  validate_config config;
  let root = Prng.Rng.create ~seed:config.seed () in
  let router = Prng.Rng.split root in
  let loads = initial_loads config in
  let mk s =
    let lo, len = shard_range config s in
    let slice = Array.sub loads lo len in
    if Array.fold_left ( + ) 0 slice = 0 then
      invalid_arg
        (Printf.sprintf
           "Serve.Cluster.create: shard %d would start empty (n=%d m=%d \
            shards=%d) — every shard needs an initial ball; raise m (m >= n \
            always works) or lower the shard count"
           s config.n config.m config.shards);
    Shard.create ~id:s ~lo ~process:config.process ~scenario:config.scenario
      ~rule:config.rule ~loads:slice ~rng:(Prng.Rng.split root)
  in
  { config; shards = Array.init config.shards mk; router; seq = 0; tel = None }

(* {2 Routing} *)

(* Splitmix64 finalizer as a stateless key hash: inserts with the same
   key always land on the same shard, and keys spread uniformly. *)
let hash_key k =
  let open Int64 in
  let z = add (of_int k) 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  (* Mask to OCaml's tagged-int range: [to_int] alone can overflow to a
     negative, which would make [mod shards] negative. *)
  to_int z land Stdlib.max_int

(* Route one mutation to its shard, or -1 (reject) — rejects consume
   no randomness, which keeps replay exact across them.  A [Remove] or
   [Step] (a composite remove-then-insert within one shard) draws a
   shard with probability proportional to its ball count, so it only
   reaches a shard that has a ball to remove. *)
let route t ev =
  match ev with
  | Engine.Event.Insert key -> hash_key key mod t.config.shards
  | Engine.Event.Remove | Engine.Event.Step ->
      let total = total_balls t in
      if total = 0 then -1
      else begin
        let r = Prng.Rng.int t.router total in
        let rec go s acc =
          let acc = acc + Shard.balls t.shards.(s) in
          if r < acc then s else go (s + 1) acc
        in
        go 0 0
      end
  | _ -> invalid_arg "Serve.Cluster.route: not a single-shard mutation"

let max_load t =
  Array.fold_left (fun acc sh -> max acc (Shard.max_load sh)) 0 t.shards

let watermark t =
  Array.fold_left
    (fun acc sh -> max acc (Shard.watermark sh))
    min_int t.shards

let loads t =
  Array.concat (Array.to_list (Array.map Shard.loads t.shards))

let set_telemetry t tel =
  t.tel <- Some tel;
  let gauge ?labels name help read =
    Obs.Registry.gauge (Telemetry.registry tel) ?labels name ~help read
  in
  gauge "seq" "Mutations routed over the service history" (fun () -> t.seq);
  gauge "balls" "Balls currently in the system" (fun () -> total_balls t);
  gauge "max_load" "Current maximum bin load" (fun () -> max_load t);
  gauge "watermark" "Highest load seen since boot" (fun () -> watermark t);
  Array.iteri
    (fun s sh ->
      let gauge = gauge ~labels:[ ("shard", string_of_int s) ] in
      gauge "shard_bins" "Bins owned by the shard" (fun () -> Shard.bin_count sh);
      gauge "shard_balls" "Balls in the shard" (fun () -> Shard.balls sh);
      gauge "shard_max_load" "Shard maximum bin load" (fun () -> Shard.max_load sh);
      gauge "shard_watermark" "Highest shard load seen since boot" (fun () ->
          Shard.watermark sh);
      gauge "shard_applied" "Mutations applied by the shard" (fun () ->
          Shard.applied sh))
    t.shards

let answer_query t ev =
  match ev with
  | Engine.Event.Probe -> Engine.Event.Level (max_load t)
  | Engine.Event.Watermark -> Engine.Event.Level (watermark t)
  | Engine.Event.Occupancy -> Engine.Event.Loads (loads t)
  | _ -> invalid_arg "Serve.Cluster.answer_query: not a query"

(* {2 Batch application} *)

(* The telemetry clock, read only when telemetry is attached. *)
let clock t = match t.tel with Some _ -> Obs.Clock.now_int () | None -> 0

(* End the [stage] of [ev] that began at [since]: record it and return
   the boundary, where the next stage begins. *)
let end_stage t stage ev since =
  match t.tel with
  | None -> since
  | Some tel ->
      let now = Obs.Clock.now_int () in
      Telemetry.observe_stage tel stage ~op:(Telemetry.op_of_event ev) (now - since);
      now

(* Apply the mutation [ev], event [i] of the batch, whose route stage
   began at [since]: write its reply and return where its last stage
   ended.  A rejected mutation has a route stage only. *)
let mutate t replies i ev since =
  t.seq <- t.seq + 1;
  match ev with
  | Engine.Event.Round when t.config.process = Process.Rbb ->
      (* A broadcast: every shard advances one synchronous round.  The
         router draws nothing — rounds conserve balls. *)
      let since = end_stage t Telemetry.Route ev since in
      for s = 0 to Array.length t.shards - 1 do
        ignore (Shard.apply t.shards.(s) ev)
      done;
      replies.(i) <- Engine.Event.Ack;
      end_stage t Telemetry.Apply ev since
  | Engine.Event.Round ->
      replies.(i) <-
        Engine.Event.Rejected "round unsupported (sequential cluster)";
      end_stage t Telemetry.Route ev since
  | (Engine.Event.Step | Engine.Event.Remove)
    when t.config.process = Process.Rbb ->
      (* Rounds conserve balls: the round-synchronous family has no
         single-ball removal law, and its unit transition is [Round]. *)
      replies.(i) <-
        Engine.Event.Rejected "round-synchronous cluster: use round";
      end_stage t Telemetry.Route ev since
  | _ ->
      let s = route t ev in
      let since = end_stage t Telemetry.Route ev since in
      if s < 0 then begin
        replies.(i) <- Engine.Event.Rejected "empty";
        since
      end
      else begin
        let shard = t.shards.(s) in
        replies.(i) <-
          (match Shard.apply shard ev with
          | Engine.Event.Placed bin -> Engine.Event.Placed (Shard.lo shard + bin)
          | Engine.Event.Removed bin -> Engine.Event.Removed (Shard.lo shard + bin)
          | reply -> reply);
        end_stage t Telemetry.Apply ev since
      end

let apply_batch t events =
  let n = Array.length events in
  let replies = Array.make n Engine.Event.Ack in
  (* Each stage starts where the previous one ended. *)
  let last = ref (clock t) in
  for i = 0 to n - 1 do
    let ev = events.(i) in
    if Engine.Event.is_mutation ev then last := mutate t replies i ev !last
    else begin
      (* A query observes every earlier mutation; its global answer is
         its apply stage. *)
      replies.(i) <- answer_query t ev;
      last := end_stage t Telemetry.Apply ev !last
    end
  done;
  replies

let apply t ev = (apply_batch t [| ev |]).(0)

(* {2 Snapshot state} *)

type state = {
  seq : int;
  router : int64 array;
  shards : Shard.state array;
}

let state (t : t) =
  { seq = t.seq; router = Prng.Rng.save t.router;
    shards = Array.map Shard.state t.shards }

let of_state config (st : state) =
  validate_config config;
  if Array.length st.shards <> config.shards then
    invalid_arg "Serve.Cluster.of_state: shard count mismatch";
  let mk s =
    let lo, len = shard_range config s in
    let shard_st = st.shards.(s) in
    if shard_st.Shard.bins.Core.Bins.sn_n <> len then
      invalid_arg "Serve.Cluster.of_state: shard width mismatch";
    Shard.of_state ~lo ~process:config.process
      ~scenario:config.scenario ~rule:config.rule shard_st
  in
  { config; shards = Array.init config.shards mk;
    router = Prng.Rng.restore st.router; seq = st.seq; tel = None }
