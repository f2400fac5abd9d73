module Mv = Loadvec.Mutable_vector
module Lv = Loadvec.Load_vector
module Cv = Loadvec.Count_vector
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

let rule_of_string = function
  | "uniform" | "u" -> Ok Uniform
  | s ->
      let fail () =
        Error
          (Printf.sprintf
             "unknown RBB rule %S (expected \"uniform\" or \"d<k>\" with k >= 2)"
             s)
      in
      if String.length s >= 2 && s.[0] = 'd' then
        match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
        | Some d when d >= 2 -> Ok (Dchoice d)
        | _ -> fail ()
      else fail ()

let placement r = Rule.abku (d_of r)

let of_scheduling_rule = function
  | Rule.Abku 1 -> Ok Uniform
  | Rule.Abku d -> Ok (Dchoice d)
  | Rule.Adap _ ->
      Error
        "ADAP has no round-synchronous form (adaptive probe counts break \
         the fixed-draws-per-ball round structure)"

type t = { rule : rule; n : int }

let make rule ~n =
  if n <= 0 then invalid_arg "Rbb.make: n must be positive";
  { rule; n }

let rule t = t.rule
let n t = t.n

let name t =
  match t.rule with
  | Uniform -> "RBB-u"
  | Dchoice d -> Printf.sprintf "RBB-d%d" d

(* The placement of one ejected ball on a normalized vector: the
   maximum of d uniform ranks is the least loaded of d uniform bins
   (ABKU's law, Dynamic_process.choose_rank_direct with the loads read
   elided — ABKU never inspects them). *)
let draw_rank g ~n ~d =
  let best = ref (Prng.Rng.int g n) in
  for _ = 2 to d do
    let b = Prng.Rng.int g n in
    if b > !best then best := b
  done;
  !best

let round_probes t g v =
  if Mv.dim v <> t.n then invalid_arg "Rbb.round: dimension mismatch";
  let q = Mv.eject_all v in
  let d = d_of t.rule in
  for _ = 1 to q do
    ignore (Mv.incr_at v (draw_rank g ~n:t.n ~d))
  done;
  q * d

let round_in_place t g v = ignore (round_probes t g v)

(* Count-vector twin: the same int draws in the same order, with the
   rank-to-level lookup done by a level scan — lockstep with the array
   stepper on equal multisets, forever. *)
let round_counts_probes t g cv =
  if Cv.dim cv <> t.n then invalid_arg "Rbb.round_counts: dimension mismatch";
  let q = Cv.eject_all cv in
  let d = d_of t.rule in
  for _ = 1 to q do
    let level = Cv.level_of_rank cv (draw_rank g ~n:t.n ~d) in
    Cv.shift_up cv level
  done;
  q * d

let chain t g lv =
  let v = Mv.of_load_vector lv in
  round_in_place t g v;
  Mv.to_load_vector v

(* The sims answer [Round] exactly as [Step]: the round IS the unit
   transition of this family, so every Step-driven rep loop (iterate,
   first_hit, conformance) advances it one round at a time. *)
let round_extend do_round g = function
  | Engine.Event.Round ->
      do_round g;
      Engine.Event.Ack
  | ev -> Engine.Event.Rejected (Engine.Event.name ev ^ " unsupported")

let sim ?metrics t v =
  if Mv.dim v <> t.n then invalid_arg "Rbb.sim: dimension mismatch";
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  let do_round g =
    let probes = round_probes t g v in
    Engine.Metrics.add_probes metrics probes;
    Engine.Metrics.add_draws metrics probes
  in
  Engine.Sim.make ~metrics
    ~extend:(round_extend do_round)
    ~step:do_round
    ~observe:(fun () -> Mv.to_load_vector v)
    ~reset:(fun lv -> Mv.set_from_load_vector v lv)
    ~probe:(fun () -> Mv.max_load v)
    ()

let sim_counts ?metrics t cv =
  if Cv.dim cv <> t.n then invalid_arg "Rbb.sim: dimension mismatch";
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  let do_round g =
    let probes = round_counts_probes t g cv in
    Engine.Metrics.add_probes metrics probes;
    Engine.Metrics.add_draws metrics probes
  in
  Engine.Sim.make ~metrics
    ~extend:(round_extend do_round)
    ~step:do_round
    ~observe:(fun () -> Cv.to_load_vector cv)
    ~reset:(fun lv -> Cv.set_from_load_vector cv lv)
    ~probe:(fun () -> Cv.max_load cv)
    ()

(* Cutoff-table backend: the ejection invalidates the whole CDF table
   (every non-empty level count moves), so it is rebuilt once per round
   — O(max load) — and then maintained through the round's placements
   with on_gain.  Each ball costs one float instead of d ints. *)
let sim_counts_sampled ?metrics t cv =
  if Cv.dim cv <> t.n then invalid_arg "Rbb.sim: dimension mismatch";
  let d = d_of t.rule in
  let module Tbl = Rule.Abku_table in
  let metrics =
    match metrics with Some m -> m | None -> Engine.Metrics.create ()
  in
  let do_round g =
    let q = Cv.eject_all cv in
    let table =
      Tbl.create ~d ~n:t.n ~max_level:(Cv.max_load cv) ~count:(Cv.count cv)
    in
    for _ = 1 to q do
      let dest = Tbl.draw_level table g in
      Cv.shift_up cv dest;
      Tbl.on_gain table (dest + 1)
    done;
    Engine.Metrics.add_probes metrics (q * d);
    Engine.Metrics.add_draws metrics q
  in
  Engine.Sim.make ~metrics
    ~extend:(round_extend do_round)
    ~step:do_round
    ~observe:(fun () -> Cv.to_load_vector cv)
    ~reset:(fun lv -> Cv.set_from_load_vector cv lv)
    ~probe:(fun () -> Cv.max_load cv)
    ()

let sim_repr ?metrics ?(repr = Core.Repr.Array_backed) t start =
  if Lv.dim start <> t.n then invalid_arg "Rbb.sim_repr: dimension mismatch";
  match repr with
  | Core.Repr.Array_backed -> sim ?metrics t (Mv.of_load_vector start)
  | Core.Repr.Count_backed -> sim_counts ?metrics t (Cv.of_load_vector start)
  | Core.Repr.Count_sampled ->
      sim_counts_sampled ?metrics t (Cv.of_load_vector start)

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
  let place = placement t.rule in
  let dist = ref [ (w, 1.0) ] in
  for _ = 1 to q do
    let acc = Hashtbl.create 64 in
    List.iter
      (fun (v, p) ->
        let ins = Rule.rank_distribution place ~loads:(Lv.to_array v) in
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
   [round_probes].  The moves are then realised src by src; every src
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
  let place = placement t.rule in
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
        let bin, probes = Core.Bins.insert_with_rule place g bins in
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
