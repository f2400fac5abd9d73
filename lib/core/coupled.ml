module Mv = Loadvec.Mutable_vector
module Lv = Loadvec.Load_vector

(* Both copies remove by one variate, scanned in one pass, then insert
   from one probe sequence read in lockstep. *)
let monotone process =
  let sc = Dynamic_process.scenario process in
  let rule = Dynamic_process.rule process in
  let step g x y =
    Scenario.remove_pair sc x y ~u:(Prng.Rng.float g);
    Load_state.insert_pair x y rule g;
    (x, y)
  in
  Coupling.Coupled_chain.make ~step ~equal:Mv.equal
    ~distance:(fun a b -> Mv.l1_distance a b / 2)

let find_adjacent_offsets v u =
  if Lv.dim v <> Lv.dim u then None
  else begin
    let a = Lv.to_array v and b = Lv.to_array u in
    let plus = ref (-1) and minus = ref (-1) and ok = ref true in
    Array.iteri
      (fun i x ->
        match x - b.(i) with
        | 0 -> ()
        | 1 -> if !plus = -1 then plus := i else ok := false
        | -1 -> if !minus = -1 then minus := i else ok := false
        | _ -> ok := false)
      a;
    if !ok && !plus >= 0 && !minus >= 0 && !plus < !minus then
      Some (!plus, !minus)
    else None
  end

let random_state g ~n ~m =
  let loads = Array.make n 0 in
  for _ = 1 to m do
    let b = Prng.Rng.int g n in
    loads.(b) <- loads.(b) + 1
  done;
  Lv.of_array loads

let adjacent_pair g ~n ~m =
  if m < 1 || n < 2 then invalid_arg "Coupled.adjacent_pair";
  let rec attempt () =
    let u = random_state g ~n ~m in
    let support = Lv.support u in
    let a = Prng.Rng.int g support in
    let b = Prng.Rng.int g n in
    let v = Lv.oplus (Lv.ominus u a) b in
    match find_adjacent_offsets v u with
    | Some _ -> (v, u)
    | None -> (
        match find_adjacent_offsets u v with
        | Some _ -> (u, v)
        | None -> attempt ())
  in
  attempt ()

(* Shared-probe insertion on immutable vectors. *)
let insert_pair process g v u =
  let probe = Probe.create g ~n:(Dynamic_process.n process) in
  let rule = Dynamic_process.rule process in
  let rank_v, _ = Scheduling_rule.choose_rank rule ~loads:(Lv.to_array v) ~probe in
  let rank_u, _ = Scheduling_rule.choose_rank rule ~loads:(Lv.to_array u) ~probe in
  (Lv.oplus v rank_v, Lv.oplus u rank_u)

(* Section 4 removal coupling for v = u + e_lambda - e_delta, lambda < delta:
   draw i from A(v); set j = i except that when i = lambda, with probability
   1/v_lambda redirect j to delta. *)
let remove_pair_a g v u ~lambda ~delta =
  let loads = Lv.to_array v in
  let i = Prng.Dist.weighted_int g loads in
  let j =
    if i = lambda && Prng.Rng.float g < 1. /. float_of_int loads.(lambda) then
      delta
    else i
  in
  (Lv.ominus v i, Lv.ominus u j)

(* Section 5 removal coupling.  Supports can differ only when
   u_delta = 1 so that v_delta = 0 (then support v = support u - 1). *)
let remove_pair_b g v u ~lambda ~delta =
  let s1 = Lv.support v and s2 = Lv.support u in
  if s1 = s2 then begin
    let i = Prng.Rng.int g s1 in
    let i' = if i = lambda then delta else if i = delta then lambda else i in
    (Lv.ominus v i, Lv.ominus u i')
  end
  else begin
    (* s1 = s2 - 1 and delta is u's last non-empty rank. *)
    let i' = Prng.Rng.int g s2 in
    let i =
      if i' = delta then lambda
      else if i' = lambda then Prng.Rng.int g s1
      else i'
    in
    (Lv.ominus v i, Lv.ominus u i')
  end

let paper_step process g v u =
  if Lv.equal v u then begin
    (* Identity coupling keeps equal copies together. *)
    let step = Dynamic_process.chain process in
    let g' = Prng.Rng.copy g in
    let v' = step g v in
    let u' = step g' u in
    (v', u')
  end
  else begin
    let oriented =
      match find_adjacent_offsets v u with
      | Some (l, d) -> Some (v, u, l, d, true)
      | None -> (
          match find_adjacent_offsets u v with
          | Some (l, d) -> Some (u, v, l, d, false)
          | None -> None)
    in
    match oriented with
    | None -> invalid_arg "Coupled.paper_step: states not adjacent"
    | Some (v, u, lambda, delta, keep_order) ->
        let v_star, u_star =
          match Dynamic_process.scenario process with
          | Scenario.A -> remove_pair_a g v u ~lambda ~delta
          | Scenario.B -> remove_pair_b g v u ~lambda ~delta
        in
        let v', u' = insert_pair process g v_star u_star in
        if keep_order then (v', u') else (u', v')
  end

let paper_coupling process =
  Coupling.Coupled_chain.make
    ~step:(fun g v u -> paper_step process g v u)
    ~equal:Lv.equal ~distance:Lv.delta
