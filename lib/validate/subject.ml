module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector

type 'state spec = {
  name : string;
  family : string;
  states : 'state array;
  transitions : 'state -> ('state * float) list;
  fresh_sim : unit -> 'state Engine.Sim.t;
  start : 'state;
  bound : (string * float) option;
  block_rows : int option;
}

type t = P : 'state spec -> t

let name (P s) = s.name
let family (P s) = s.family
let state_count (P s) = Array.length s.states

let balls_spec ?block_rows ?(repr = Core.Repr.Array_backed) scenario rule ~n
    ~m =
  let p = Core.Dynamic_process.make scenario rule ~n in
  let start = Lv.all_in_one ~n ~m in
  let bound =
    match (scenario, rule) with
    | Core.Scenario.A, _ ->
        Some ("Theorem 1", Theory.Bounds.theorem1 ~m ~eps:0.25)
    | Core.Scenario.B, Core.Scheduling_rule.Abku _ ->
        Some ("Claim 5.3", Theory.Bounds.claim53 ~n ~m ~eps:0.25)
    | Core.Scenario.B, Core.Scheduling_rule.Adap _ -> None
  in
  let suffix =
    match repr with
    | Core.Repr.Array_backed -> ""
    | r -> Printf.sprintf " (%s)" (Core.Repr.name r)
  in
  {
    name =
      Printf.sprintf "%s n=%d m=%d%s" (Core.Dynamic_process.name p) n m suffix;
    family = "balls";
    states = Markov.Partition_space.enumerate ~n ~m;
    transitions = Core.Dynamic_process.exact_transitions p;
    fresh_sim = (fun () -> Core.Dynamic_process.sim_repr ~repr p start);
    start;
    bound;
    block_rows;
  }

let balls ?block_rows ?repr scenario rule ~n ~m =
  P (balls_spec ?block_rows ?repr scenario rule ~n ~m)

(* Round-synchronous subjects: the RBB sims answer [Step] as one full
   round, so the Step-driven conformance harness needs no changes — it
   checks the empirical one-round law against [Rbb.exact_transitions]
   and the long-run occupancy against the exact stationary vector. *)
let rbb_spec ?block_rows ?(repr = Core.Repr.Array_backed) rule ~n ~m =
  let p = Rbb.make rule ~n in
  let start = Lv.all_in_one ~n ~m in
  let suffix =
    match repr with
    | Core.Repr.Array_backed -> ""
    | r -> Printf.sprintf " (%s)" (Core.Repr.name r)
  in
  {
    name = Printf.sprintf "%s n=%d m=%d%s" (Rbb.name p) n m suffix;
    family = "rbb";
    states = Markov.Partition_space.enumerate ~n ~m;
    transitions = Rbb.exact_transitions p;
    fresh_sim = (fun () -> Rbb.sim_repr ~repr p start);
    start;
    bound = Some ("Los-Sauerwald", Theory.Bounds.rbb_mixing ~n ~m);
    block_rows;
  }

let rbb ?block_rows ?repr rule ~n ~m = P (rbb_spec ?block_rows ?repr rule ~n ~m)

(* The machine a serve shard hosts, on identity bins ({!Core.Bins}),
   stepped with [Engine.Sim.apply … Step] as [Serve.Shard.apply] steps
   it, and observed as its normalized load vector: the same exact law,
   one-step checks and bound as the normalized subject [s].  Reset puts
   the sorted loads in bins 0..n-1; the law does not depend on which
   bin holds which load. *)
let served (s : Lv.t spec) machine =
  let fresh_sim () =
    let inner = machine (Core.Bins.of_loads (Lv.to_array s.start)) in
    Engine.Sim.make ~watermark:false
      ~step:(fun g -> ignore (Engine.Sim.apply inner g Engine.Event.Step))
      ~observe:(fun () -> Lv.of_array (Engine.Sim.observe inner))
      ~reset:(fun v -> Engine.Sim.reset inner (Lv.to_array v))
      ~probe:(fun () -> Engine.Sim.probe inner)
      ()
  in
  P { s with name = s.name ^ " (served)"; fresh_sim }

let served_system scenario rule ~n ~m =
  served (balls_spec scenario rule ~n ~m) (fun bins ->
      Core.System.sim (Core.System.create scenario rule bins))

let served_rbb rule ~n ~m =
  let p = Rbb.make rule ~n in
  served (rbb_spec rule ~n ~m) (fun bins -> Rbb.service_sim p bins)

(* The Section 6 edge-orientation class chain, over the states
   reachable from the adversarial one, against Corollary 6.4. *)
let edge ?block_rows ~n () =
  let module Cc = Edgeorient.Class_chain in
  let start = Cc.adversarial ~n in
  P
    {
      name = Printf.sprintf "EdgeClass n=%d" n;
      family = "edge";
      states = Cc.reachable ~from:start;
      transitions = Cc.exact_transitions;
      fresh_sim =
        (fun () ->
          let cur = ref start in
          Engine.Sim.make ~watermark:false
            ~step:(fun g -> cur := Cc.step g !cur)
            ~observe:(fun () -> !cur)
            ~reset:(fun s -> cur := s)
            ~probe:(fun () -> Cc.unfairness !cur)
            ());
      start;
      bound = Some ("Corollary 6.4", Theory.Bounds.corollary64 ~n ~eps:0.25);
      block_rows;
    }

let open_system ~n ~capacity =
  let t = Core.Open_process.make ~capacity (Core.Scheduling_rule.abku 2) ~n in
  let empty = Lv.of_array (Array.make n 0) in
  let start = Lv.all_in_one ~n ~m:capacity in
  P
    {
      name = Printf.sprintf "%s n=%d" (Core.Open_process.name t) n;
      family = "open";
      states =
        Markov.Exact_builder.reachable_states ~root:empty
          ~transitions:(Core.Open_process.exact_transitions t) ();
      transitions = Core.Open_process.exact_transitions t;
      fresh_sim = (fun () -> Core.Open_process.sim t (Mv.of_load_vector start));
      start;
      bound = None;
      block_rows = None;
    }

(* A relocation process on per-bin load arrays, over the states
   reachable from all balls in bin 0. *)
let relocation scenario ~d ~relocations ~n ~m =
  let t =
    Core.Relocation.make scenario (Core.Scheduling_rule.abku d) ~relocations ~n
  in
  let start = Array.init n (fun i -> if i = 0 then m else 0) in
  P
    {
      name = Printf.sprintf "%s n=%d m=%d" (Core.Relocation.name t) n m;
      family = "relocation";
      states =
        Markov.Exact_builder.reachable_states ~root:start
          ~transitions:(Core.Relocation.exact_transitions t) ();
      transitions = Core.Relocation.exact_transitions t;
      fresh_sim =
        (fun () -> Core.Relocation.sim t (Core.Bins.of_loads start));
      start;
      bound = None;
      block_rows = None;
    }

(* One subject per catalog opts into a blocked chain with a tiny block
   size, so the conformance net exercises the multi-block code path on
   every CI run.  The counts-sampled subjects pair the cutoff-table
   sampler against the same exact law its array oracle is checked
   against: the sampled backend redistributes RNG draws, so this
   equality-in-law net is its correctness argument (DESIGN.md, "The
   representation layer") — the draw-order-preserving count backend
   needs no subject of its own, being bit-identical to the oracle.  The
   served subjects come last, so that adding them moved no other
   subject's generator stream. *)
let quick_catalog () =
  [
    balls Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n:4 ~m:4;
    balls ~repr:Core.Repr.Count_sampled Core.Scenario.A
      (Core.Scheduling_rule.abku 2) ~n:4 ~m:4;
    edge ~block_rows:4 ~n:3 ();
    rbb Rbb.uniform ~n:4 ~m:4;
    rbb (Rbb.dchoice 2) ~n:4 ~m:5;
    served_system Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n:4 ~m:4;
  ]

let full_catalog () =
  [
    balls Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n:4 ~m:4;
    balls ~repr:Core.Repr.Count_sampled Core.Scenario.A
      (Core.Scheduling_rule.abku 2) ~n:4 ~m:4;
    balls Core.Scenario.A (Core.Scheduling_rule.abku 3) ~n:4 ~m:5;
    balls ~repr:Core.Repr.Count_sampled Core.Scenario.A
      (Core.Scheduling_rule.abku 3) ~n:4 ~m:5;
    balls Core.Scenario.A
      (Core.Scheduling_rule.adap (Core.Adaptive.of_list [ 1; 2; 2; 3 ]))
      ~n:4 ~m:4;
    balls ~block_rows:8 Core.Scenario.B (Core.Scheduling_rule.abku 2) ~n:4
      ~m:4;
    balls ~repr:Core.Repr.Count_sampled Core.Scenario.B
      (Core.Scheduling_rule.abku 2) ~n:4 ~m:4;
    balls Core.Scenario.B
      (Core.Scheduling_rule.adap (Core.Adaptive.linear ()))
      ~n:4 ~m:5;
    edge ~block_rows:4 ~n:4 ();
    open_system ~n:3 ~capacity:4;
    relocation Core.Scenario.A ~d:2 ~relocations:1 ~n:3 ~m:3;
    rbb Rbb.uniform ~n:4 ~m:4;
    rbb ~block_rows:8 (Rbb.dchoice 2) ~n:4 ~m:5;
    rbb ~repr:Core.Repr.Count_sampled (Rbb.dchoice 2) ~n:4 ~m:4;
    served_system Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n:4 ~m:4;
    served_system Core.Scenario.B (Core.Scheduling_rule.abku 2) ~n:4 ~m:4;
    served_rbb (Rbb.dchoice 2) ~n:4 ~m:5;
  ]
