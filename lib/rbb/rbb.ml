module Mv = Loadvec.Mutable_vector
module Lv = Loadvec.Load_vector
module Rule = Core.Scheduling_rule

type rule = Uniform | Dchoice of int

let uniform = Uniform

let dchoice d =
  if d < 2 then invalid_arg "Rbb.dchoice: d must be >= 2 (Uniform is d = 1)";
  Dchoice d

let d_of = function Uniform -> 1 | Dchoice d -> d

let rule_name = function
  | Uniform -> "uniform"
  | Dchoice d -> Printf.sprintf "d%d" d

let of_scheduling_rule = function
  | Rule.Abku 1 -> Ok Uniform
  | Rule.Abku d -> Ok (Dchoice d)
  | Rule.Adap _ ->
      Error
        "ADAP has no round-synchronous form (adaptive probe counts break \
         the fixed-draws-per-ball round structure)"

type t = { rule : rule; n : int; place : Rule.t }

let make rule ~n =
  if n <= 0 then invalid_arg "Rbb.make: n must be positive";
  { rule; n; place = Rule.abku (d_of rule) }

let name t =
  match t.rule with
  | Uniform -> "RBB-u"
  | Dchoice d -> Printf.sprintf "RBB-d%d" d

(* One round on any load state: the deterministic ejection, then the q
   ejected balls placed one after another by the ABKU[d] law.  Returns
   q. *)
let round (type s) (module S : Core.Load_state.S with type t = s) t g (v : s) =
  if S.dim v <> t.n then invalid_arg "Rbb.round: dimension mismatch";
  let q = S.eject_all v in
  for _ = 1 to q do
    ignore (S.insert v t.place g)
  done;
  q

let chain t g lv =
  let v = Mv.of_load_vector lv in
  ignore (round (module Core.Load_state.Array) t g v);
  Mv.to_load_vector v

let sim_repr ?metrics ?(repr = Core.Repr.Array_backed) t start =
  if Lv.dim start <> t.n then invalid_arg "Rbb.sim_repr: dimension mismatch";
  let (module S) = Core.Load_state.of_repr repr t.place in
  let v = S.of_load_vector start in
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  let d = d_of t.rule in
  let do_round g =
    let q = round (module S) t g v in
    Engine.Metrics.add_probes metrics (q * d);
    Engine.Metrics.add_draws metrics (q * S.insert_draws ~probes:d)
  in
  (* The round IS the unit transition of this family, so every
     Step-driven rep loop (iterate, first_hit, conformance) advances it
     one round at a time. *)
  Engine.Sim.make ~metrics ~step:do_round
    ~observe:(fun () -> S.to_load_vector v)
    ~reset:(fun lv -> S.set_from_load_vector v lv)
    ~probe:(fun () -> S.max_load v)
    ()

(* {2 Exact one-round law} *)

(* Deterministic ejection of a normalized vector: the positives are a
   prefix; decrementing the whole prefix keeps it sorted. *)
let eject lv =
  let a = Lv.to_array lv in
  let q = ref 0 in
  Array.iteri
    (fun i x ->
      if x > 0 then begin
        a.(i) <- x - 1;
        incr q
      end)
    a;
  (Lv.of_array a, !q)

(* One round = ejection, then q placement laws folded sequentially.
   Load_vector is a sorted int array, so polymorphic hashing over the
   intermediate distributions is sound. *)
let exact_transitions t lv =
  let w, q = eject lv in
  let dist = ref [ (w, 1.0) ] in
  for _ = 1 to q do
    let acc = Hashtbl.create 64 in
    List.iter
      (fun (v, p) ->
        let ins = Rule.rank_distribution t.place ~loads:(Lv.to_array v) in
        Array.iteri
          (fun r p_ins ->
            if p_ins > 0. then begin
              let v' = Lv.oplus v r in
              let cur = try Hashtbl.find acc v' with Not_found -> 0. in
              Hashtbl.replace acc v' (cur +. (p *. p_ins))
            end)
          ins)
      !dist;
    dist := Hashtbl.fold (fun v p out -> (v, p) :: out) acc []
  done;
  !dist

(* {2 Identity-based service machine} *)

(* One round over bin identities.  Destinations are planned
   sequentially against a working copy of the loads with all ejections
   already applied — the identity lift of the normalized two-phase
   round, so the load-vector projection has exactly the law of
   [round].  The moves are then realised src by src; every src
   was non-empty at round start and loses exactly one ball, so each
   move finds its ball. *)
let service_round t g bins =
  let n = Core.Bins.n bins in
  let d = d_of t.rule in
  let work = Core.Bins.loads bins in
  let srcs = ref [] in
  for i = n - 1 downto 0 do
    if work.(i) > 0 then begin
      work.(i) <- work.(i) - 1;
      srcs := i :: !srcs
    end
  done;
  let q = List.length !srcs in
  let moves =
    List.map
      (fun src ->
        let best = ref (Prng.Rng.int g n) in
        for _ = 2 to d do
          let b = Prng.Rng.int g n in
          if work.(b) < work.(!best) then best := b
        done;
        work.(!best) <- work.(!best) + 1;
        (src, !best))
      !srcs
  in
  List.iter
    (fun (src, dst) ->
      if src <> dst then Core.Bins.move_ball bins ~src ~dst)
    moves;
  q * d

let service_sim ?metrics t bins =
  if Core.Bins.n bins <> t.n then
    invalid_arg "Rbb.service_sim: dimension mismatch";
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  let do_round g =
    let probes = service_round t g bins in
    Engine.Metrics.add_probes metrics probes;
    Engine.Metrics.add_draws metrics probes
  in
  let extend g = function
    | Engine.Event.Round ->
        do_round g;
        Engine.Metrics.watermark metrics (Core.Bins.max_load bins);
        Engine.Event.Ack
    | Engine.Event.Insert _ ->
        let bin, probes = Core.Bins.insert_with_rule t.place g bins in
        Engine.Metrics.add_probes metrics probes;
        Engine.Metrics.add_draws metrics probes;
        Engine.Metrics.watermark metrics (Core.Bins.max_load bins);
        Engine.Event.Placed bin
    | Engine.Event.Remove ->
        Engine.Event.Rejected "round-synchronous machine: no removal law"
    | Engine.Event.Occupancy -> Engine.Event.Loads (Core.Bins.loads bins)
    | ev -> Engine.Event.Rejected (Engine.Event.name ev ^ " unsupported")
  in
  Engine.Sim.make ~metrics ~extend ~step:do_round
    ~observe:(fun () -> Core.Bins.loads bins)
    ~reset:(fun loads -> Core.Bins.reset_loads bins loads)
    ~probe:(fun () -> Core.Bins.max_load bins)
    ()
