(* One shard of the allocation service: a contiguous range of the
   global bin space, owned by an event machine over a private
   {!Core.Bins} store plus the shard's private generator.  The machine
   is a {!Core.System} (sequential family) or an {!Rbb.service_sim}
   (round-synchronous family); either way the shard is driven
   exclusively through [Engine.Sim.apply] — the same state machine the
   rep loops step — so a shard's evolution is a pure function of the
   event sequence it is handed, which is what makes journal replay
   exact. *)

type t = {
  lo : int;  (* first global bin id owned *)
  width : int;  (* number of bins owned *)
  store : Core.Bins.t;
  machine : int array Engine.Sim.t;
  rng : Prng.Rng.t;
  mutable applied : int;  (* mutations applied (all accepted) *)
}

let machine_for ~process ~scenario ~rule ~repr store =
  match process with
  | Process.Sequential ->
      Core.System.sim (Core.System.create ~repr scenario rule store)
  | Process.Rbb -> (
      match Rbb.of_scheduling_rule rule with
      | Ok r -> Rbb.service_sim (Rbb.make r ~n:(Core.Bins.n store)) store
      | Error e -> invalid_arg ("Serve.Shard: " ^ e))

let create ~id ~lo ~process ~scenario ~rule ~repr ~loads ~rng =
  if Array.length loads = 0 then invalid_arg "Serve.Shard.create: no bins";
  let balls = Array.fold_left ( + ) 0 loads in
  if balls = 0 then
    invalid_arg
      (Printf.sprintf
         "Serve.Shard.create: shard %d starts empty — every shard needs at \
          least one initial ball (raise m or lower the shard count)"
         id);
  let store = Core.Bins.of_loads loads in
  let machine = machine_for ~process ~scenario ~rule ~repr store in
  (* Seed the watermark with the initial maximum so [Watermark] covers
     the whole service history, not just post-boot mutations. *)
  Engine.Metrics.watermark
    (Engine.Sim.metrics machine)
    (Core.Bins.max_load store);
  { lo; width = Array.length loads; store; machine; rng; applied = 0 }

let lo t = t.lo
let bin_count t = t.width
let balls t = Core.Bins.num_balls t.store
let max_load t = Core.Bins.max_load t.store
let loads t = Core.Bins.loads t.store
let applied t = t.applied

let watermark t =
  Engine.Metrics.watermark_level (Engine.Sim.metrics t.machine)

(* The [Step] guard mirrors the machine's [Remove] guard: a composite
   transition against an empty shard is rejected (consuming no
   randomness) instead of raising out of the batch.  [Round] needs no
   guard — a round over an empty shard ejects nothing and draws
   nothing. *)
let apply t ev =
  match ev with
  | Engine.Event.Step when balls t = 0 -> Engine.Event.Rejected "empty"
  | ev ->
      let reply = Engine.Sim.apply t.machine t.rng ev in
      if Engine.Event.is_mutation ev && Engine.Event.reply_ok reply then
        t.applied <- t.applied + 1;
      reply

(* {2 Snapshot state} *)

type state = {
  applied : int;
  watermark : int;
  rng : int64 array;
  bins : Core.Bins.snapshot;
}

let state (t : t) : state =
  { applied = t.applied; watermark = watermark t; rng = Prng.Rng.save t.rng;
    bins = Core.Bins.snapshot t.store }

(* The state carries the full {!Core.Bins} registry snapshot — loads
   alone would not replay bit-identically, because both removal
   scenarios sample internal registry orders.  [Core.System.create]
   refuses empty systems, but a sequential shard may have been
   legitimately drained to zero balls by snapshot time: boot those with
   one phantom ball and clear it (an empty registry has no order to
   lose).  The round-synchronous machine has no such refusal (rounds
   conserve balls), so it boots directly. *)
let of_state ~lo ~process ~scenario ~rule ~repr (st : state) =
  let store = Core.Bins.of_snapshot st.bins in
  let n = Core.Bins.n store in
  let drained =
    process = Process.Sequential && Core.Bins.num_balls store = 0
  in
  (* Give the phantom to the bin at the TAIL of the level-0 bucket:
     moving that one out and back is a push-pop on both buckets, so the
     add/reset pair below leaves every recorded bucket order intact
     (bucket order is replayable state for sampled insertion). *)
  if drained then begin
    let l0 = st.bins.Core.Bins.sn_levels.(0) in
    Core.Bins.add_ball store l0.(Array.length l0 - 1)
  end;
  let machine = machine_for ~process ~scenario ~rule ~repr store in
  if drained then Core.Bins.reset_loads store (Array.make n 0);
  assert ((not drained) || Core.Bins.snapshot store = st.bins);
  Engine.Metrics.watermark (Engine.Sim.metrics machine) st.watermark;
  {
    lo;
    width = n;
    store;
    machine;
    rng = Prng.Rng.restore st.rng;
    applied = st.applied;
  }
