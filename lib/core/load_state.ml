(* The normalized load state the sequential and round-synchronous
   steppers run on, as one signature with one instance per
   Core.Repr backend.  See DESIGN.md, "The representation layer". *)

module Mv = Loadvec.Mutable_vector
module Cv = Loadvec.Count_vector

module type S = sig
  type t

  val of_load_vector : Loadvec.Load_vector.t -> t
  val to_load_vector : t -> Loadvec.Load_vector.t
  val set_from_load_vector : t -> Loadvec.Load_vector.t -> unit
  val dim : t -> int
  val max_load : t -> int
  val remove : t -> Scenario.t -> u:float -> unit
  val insert : t -> Scheduling_rule.t -> Prng.Rng.t -> int
  val insert_draws : probes:int -> int
  val eject_all : t -> int
end

(* ABKU[d]'s rank: the maximum of d uniform ranks — on a normalized
   vector, the least loaded of d uniform bins.  The one draw behind the
   array oracle, the count twin and the monotone coupling's insertion. *)
let abku_rank g ~n d =
  let best = ref (Prng.Rng.int g n) in
  for _ = 2 to d do
    let b = Prng.Rng.int g n in
    if b > !best then best := b
  done;
  !best

(* ADAP from probe [t] on, with best rank [best] of level [l]: probing
   goes on until the best rank's level meets its threshold, reading the
   level again only when the best rank improves.  [level s r] is the
   load at rank [r]; [add s r l] adds a ball at rank [r], whose load is
   [l].  Returns the probe count. *)
let rec adap_from ~level ~add s rule x g ~n t best l =
  if t > Scheduling_rule.probe_cap then
    Scheduling_rule.probe_cap_exceeded rule ~n;
  if Adaptive.threshold x l <= t then begin
    add s best l;
    t
  end
  else
    let b = Prng.Rng.int g n in
    if b > best then adap_from ~level ~add s rule x g ~n (t + 1) b (level s b)
    else adap_from ~level ~add s rule x g ~n (t + 1) best l

(* Direct-draw insertion, shared by the array oracle and the count twin
   so that the two consume the generator identically.  Returns the probe
   count. *)
let insert_direct ~level ~add s rule g ~n =
  match rule with
  | Scheduling_rule.Abku d ->
      let r = abku_rank g ~n d in
      add s r (level s r);
      d
  | Scheduling_rule.Adap x ->
      let r = Prng.Rng.int g n in
      adap_from ~level ~add s rule x g ~n 1 r (level s r)

let add_at v r _ = ignore (Mv.incr_at v r)

module Array = struct
  include Mv

  let remove v sc ~u = ignore (decr_at v (Scenario.remove_rank sc v ~u))
  let insert v rule g = insert_direct ~level:get ~add:add_at v rule g ~n:(dim v)
  let insert_draws ~probes = probes
end

(* Lockstep insertion into two arrays: each probe is drawn once and
   offered to every copy still probing.  While both probe, their best
   ranks agree (each is the maximum of the same prefix) and only their
   levels differ; once one stops, the other goes on alone.  So the
   generator advances by the longer of the two probe counts. *)
let insert_pair x y rule g =
  let n = Mv.dim x in
  match rule with
  | Scheduling_rule.Abku d ->
      let r = abku_rank g ~n d in
      ignore (Mv.incr_at x r);
      ignore (Mv.incr_at y r)
  | Scheduling_rule.Adap xs ->
      let alone v l t best =
        ignore (adap_from ~level:Mv.get ~add:add_at v rule xs g ~n t best l)
      in
      let rec both t best lx ly =
        if t > Scheduling_rule.probe_cap then
          Scheduling_rule.probe_cap_exceeded rule ~n;
        if Adaptive.threshold xs lx <= t || Adaptive.threshold xs ly <= t
        then begin
          (* A copy that stops at [t] draws nothing more. *)
          alone x lx t best;
          alone y ly t best
        end
        else
          let b = Prng.Rng.int g n in
          if b > best then both (t + 1) b (Mv.get x b) (Mv.get y b)
          else both (t + 1) best lx ly
      in
      let r = Prng.Rng.int g n in
      both 1 r (Mv.get x r) (Mv.get y r)

module Counts = struct
  include Cv

  let remove cv sc ~u = shift_down cv (Scenario.remove_level sc cv ~u)

  let insert cv rule g =
    insert_direct ~level:level_of_rank ~add:(fun cv _ l -> shift_up cv l) cv
      rule g ~n:(dim cv)

  let insert_draws ~probes = probes
end

(* ABKU[d] insertion by one float through the cutoff table.  The table
   is built from the counts on the first insertion after creation, then
   kept current with on_loss/on_gain, and refilled in place after a
   reset or ejection (neither building nor refilling draws anything). *)
module Sampled = struct
  module Tbl = Scheduling_rule.Abku_table

  type t = { cv : Cv.t; mutable table : Tbl.table option }

  let of_load_vector lv = { cv = Cv.of_load_vector lv; table = None }
  let to_load_vector s = Cv.to_load_vector s.cv

  let refill s =
    match s.table with
    | Some table ->
        Tbl.refill table ~max_level:(Cv.max_load s.cv) ~count:(Cv.count s.cv)
    | None -> ()

  let set_from_load_vector s lv =
    Cv.set_from_load_vector s.cv lv;
    refill s

  let dim s = Cv.dim s.cv
  let max_load s = Cv.max_load s.cv

  let eject_all s =
    let q = Cv.eject_all s.cv in
    refill s;
    q

  let remove s sc ~u =
    let l = Scenario.remove_level sc s.cv ~u in
    Cv.shift_down s.cv l;
    match s.table with Some table -> Tbl.on_loss table l | None -> ()

  let insert s rule g =
    match rule with
    | Scheduling_rule.Adap _ ->
        invalid_arg "Load_state.Sampled.insert: ADAP has no cutoff table"
    | Scheduling_rule.Abku d ->
        let table =
          match s.table with
          | Some table -> table
          | None ->
              let table =
                Tbl.create ~d ~n:(dim s) ~max_level:(max_load s)
                  ~count:(Cv.count s.cv)
              in
              s.table <- Some table;
              table
        in
        let l = Tbl.draw_level table g in
        Cv.shift_up s.cv l;
        Tbl.on_gain table (l + 1);
        d

  let insert_draws ~probes:_ = 1
end

let of_repr repr rule : (module S) =
  match (repr, rule) with
  | Repr.Array_backed, _ -> (module Array)
  | Repr.Count_backed, _ | Repr.Count_sampled, Scheduling_rule.Adap _ ->
      (* ADAP's probe loop is data-dependent; there is no cutoff table
         to collapse it, so counts-sampled degrades to counts. *)
      (module Counts)
  | Repr.Count_sampled, Scheduling_rule.Abku _ -> (module Sampled)
