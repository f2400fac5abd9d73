(* The ball registry is a doubly-indexed multiset so that both removal
   scenarios are O(1):
     balls          : registry slot -> bin id
     slots_of.(b)   : registry slots currently holding balls of bin b
     pos_of_slot    : registry slot -> its position inside slots_of.(bin)
   Scenario A samples a uniform registry slot; scenario B samples a
   uniform non-empty bin and deletes any of its slots. *)
type t = {
  n : int;
  loads : int array;            (* by bin id *)
  balls : Int_vec.t;            (* slot -> bin id *)
  pos_of_slot : Int_vec.t;      (* slot -> index in slots_of.(bin) *)
  slots_of : Int_vec.t array;   (* bin id -> slots *)
  nonempty : Int_vec.t;         (* bin ids with load > 0 *)
  pos_in_nonempty : int array;  (* bin id -> index in [nonempty], or -1 *)
  mutable count_by_load : int array;  (* #bins with load l, for l >= 1 *)
  mutable max_load : int;
}

let create ~n =
  if n <= 0 then invalid_arg "Bins.create: n must be positive";
  {
    n;
    loads = Array.make n 0;
    balls = Int_vec.create ~capacity:(4 * n) ();
    pos_of_slot = Int_vec.create ~capacity:(4 * n) ();
    slots_of = Array.init n (fun _ -> Int_vec.create ~capacity:4 ());
    nonempty = Int_vec.create ~capacity:n ();
    pos_in_nonempty = Array.make n (-1);
    count_by_load = Array.make 8 0;
    max_load = 0;
  }

let n t = t.n
let num_balls t = Int_vec.length t.balls

let load t b =
  if b < 0 || b >= t.n then invalid_arg "Bins.load: bad bin";
  t.loads.(b)

let max_load t = t.max_load
let num_nonempty t = Int_vec.length t.nonempty

let ensure_count t l =
  let len = Array.length t.count_by_load in
  if l >= len then begin
    let arr = Array.make (Stdlib.max (l + 1) (2 * len)) 0 in
    Array.blit t.count_by_load 0 arr 0 len;
    t.count_by_load <- arr
  end

let note_increment t b =
  let l = t.loads.(b) in
  if l = 0 then begin
    t.pos_in_nonempty.(b) <- Int_vec.length t.nonempty;
    Int_vec.push t.nonempty b
  end
  else t.count_by_load.(l) <- t.count_by_load.(l) - 1;
  ensure_count t (l + 1);
  t.count_by_load.(l + 1) <- t.count_by_load.(l + 1) + 1;
  t.loads.(b) <- l + 1;
  if l + 1 > t.max_load then t.max_load <- l + 1

let note_decrement t b =
  let l = t.loads.(b) in
  assert (l > 0);
  t.count_by_load.(l) <- t.count_by_load.(l) - 1;
  if l > 1 then t.count_by_load.(l - 1) <- t.count_by_load.(l - 1) + 1
  else begin
    let pos = t.pos_in_nonempty.(b) in
    ignore (Int_vec.swap_remove t.nonempty pos);
    if pos < Int_vec.length t.nonempty then begin
      let moved = Int_vec.get t.nonempty pos in
      t.pos_in_nonempty.(moved) <- pos
    end;
    t.pos_in_nonempty.(b) <- -1
  end;
  t.loads.(b) <- l - 1;
  (* A removal lowers the max by at most one, exactly when the last
     max-loaded bin lost a ball. *)
  if l = t.max_load && t.count_by_load.(l) = 0 then t.max_load <- l - 1

let add_ball t b =
  if b < 0 || b >= t.n then invalid_arg "Bins.add_ball: bad bin";
  let slot = Int_vec.length t.balls in
  Int_vec.push t.balls b;
  Int_vec.push t.pos_of_slot (Int_vec.length t.slots_of.(b));
  Int_vec.push t.slots_of.(b) slot;
  note_increment t b

(* Delete registry slot [slot], patching all three indices. *)
let delete_slot t slot =
  let b = Int_vec.get t.balls slot in
  (* Unlink from slots_of.(b); the former tail entry (if any) moves into
     [pos], so its back-pointer must be updated. *)
  let pos = Int_vec.get t.pos_of_slot slot in
  ignore (Int_vec.swap_remove t.slots_of.(b) pos);
  if pos < Int_vec.length t.slots_of.(b) then begin
    let moved_slot = Int_vec.get t.slots_of.(b) pos in
    Int_vec.set t.pos_of_slot moved_slot pos
  end;
  (* Swap-remove the registry entry; entry [last] (if distinct) moves to
     [slot], so its slots_of cell must be repointed. *)
  let last = Int_vec.length t.balls - 1 in
  ignore (Int_vec.swap_remove t.balls slot);
  ignore (Int_vec.swap_remove t.pos_of_slot slot);
  if slot <> last then begin
    let moved_bin = Int_vec.get t.balls slot in
    let moved_pos = Int_vec.get t.pos_of_slot slot in
    Int_vec.set t.slots_of.(moved_bin) moved_pos slot
  end;
  note_decrement t b;
  b

let of_loads per_bin =
  let n = Array.length per_bin in
  if n = 0 then invalid_arg "Bins.of_loads: empty";
  let t = create ~n in
  Array.iteri
    (fun b l ->
      if l < 0 then invalid_arg "Bins.of_loads: negative load";
      for _ = 1 to l do
        add_ball t b
      done)
    per_bin;
  t

let copy t = of_loads t.loads

let remove_ball_uniform g t =
  let m = Int_vec.length t.balls in
  if m = 0 then invalid_arg "Bins.remove_ball_uniform: no balls";
  delete_slot t (Prng.Rng.int g m)

let remove_from_random_nonempty g t =
  let s = Int_vec.length t.nonempty in
  if s = 0 then invalid_arg "Bins.remove_from_random_nonempty: no balls";
  let b = Int_vec.get t.nonempty (Prng.Rng.int g s) in
  let slots = t.slots_of.(b) in
  delete_slot t (Int_vec.get slots (Int_vec.length slots - 1))

let move_ball t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Bins.move_ball: bad bin";
  let slots = t.slots_of.(src) in
  if Int_vec.length slots = 0 then invalid_arg "Bins.move_ball: empty source";
  ignore (delete_slot t (Int_vec.get slots (Int_vec.length slots - 1)));
  add_ball t dst

let insert_with_rule rule g t =
  match rule with
  | Scheduling_rule.Abku d ->
      let best = ref (Prng.Rng.int g t.n) in
      for _ = 2 to d do
        let b = Prng.Rng.int g t.n in
        if t.loads.(b) < t.loads.(!best) then best := b
      done;
      add_ball t !best;
      (!best, d)
  | Scheduling_rule.Adap x ->
      let rec go probes best =
        if probes > Scheduling_rule.probe_cap then
          Scheduling_rule.probe_cap_exceeded rule ~n:t.n;
        if Adaptive.threshold x t.loads.(best) <= probes then begin
          add_ball t best;
          (best, probes)
        end
        else begin
          let b = Prng.Rng.int g t.n in
          let best = if t.loads.(b) < t.loads.(best) then b else best in
          go (probes + 1) best
        end
      in
      go 1 (Prng.Rng.int g t.n)

let reset_loads t per_bin =
  if Array.length per_bin <> t.n then
    invalid_arg "Bins.reset_loads: dimension mismatch";
  Array.iter
    (fun l -> if l < 0 then invalid_arg "Bins.reset_loads: negative load")
    per_bin;
  while Int_vec.length t.balls > 0 do
    ignore (delete_slot t (Int_vec.length t.balls - 1))
  done;
  Array.iteri
    (fun b l ->
      for _ = 1 to l do
        add_ball t b
      done)
    per_bin

let loads t = Array.copy t.loads

let to_load_vector t = Loadvec.Load_vector.of_array t.loads

(* {2 Registry snapshots}

   Both removal scenarios sample internal *orders* — the registry slot
   vector (A), the non-empty list and the per-bin slot stacks (B) — so
   a load vector alone does not pin down future behaviour.  A snapshot
   records every order; [of_snapshot] rebuilds the structure so that
   each subsequent operation touches exactly the cells the original
   would have. *)

type snapshot = {
  sn_n : int;
  sn_balls : int array;
  sn_slot_order : int array;
  sn_nonempty : int array;
}

let snapshot t =
  let vec v = Array.init (Int_vec.length v) (Int_vec.get v) in
  let m = Int_vec.length t.balls in
  let slot_order = Array.make m 0 in
  let k = ref 0 in
  Array.iter
    (fun slots ->
      for i = 0 to Int_vec.length slots - 1 do
        slot_order.(!k) <- Int_vec.get slots i;
        incr k
      done)
    t.slots_of;
  {
    sn_n = t.n;
    sn_balls = vec t.balls;
    sn_slot_order = slot_order;
    sn_nonempty = vec t.nonempty;
  }

let of_snapshot s =
  let m = Array.length s.sn_balls in
  if s.sn_n <= 0 then invalid_arg "Bins.of_snapshot: n must be positive";
  if Array.length s.sn_slot_order <> m then
    invalid_arg "Bins.of_snapshot: slot_order length mismatch";
  Array.iter
    (fun b ->
      if b < 0 || b >= s.sn_n then invalid_arg "Bins.of_snapshot: bad bin id")
    s.sn_balls;
  let t = create ~n:s.sn_n in
  (* The registry vector itself, in the recorded slot order; the
     pos_of_slot cells are patched while rebuilding the stacks. *)
  Array.iter
    (fun b ->
      Int_vec.push t.balls b;
      Int_vec.push t.pos_of_slot 0)
    s.sn_balls;
  let seen = Array.make m false in
  Array.iter
    (fun slot ->
      if slot < 0 || slot >= m || seen.(slot) then
        invalid_arg "Bins.of_snapshot: slot_order is not a permutation";
      seen.(slot) <- true;
      let b = s.sn_balls.(slot) in
      Int_vec.set t.pos_of_slot slot (Int_vec.length t.slots_of.(b));
      Int_vec.push t.slots_of.(b) slot)
    s.sn_slot_order;
  (* Derived occupancy indices. *)
  let nonempty_bins = ref 0 in
  for b = 0 to s.sn_n - 1 do
    let l = Int_vec.length t.slots_of.(b) in
    t.loads.(b) <- l;
    if l > 0 then begin
      ensure_count t l;
      t.count_by_load.(l) <- t.count_by_load.(l) + 1;
      if l > t.max_load then t.max_load <- l;
      incr nonempty_bins
    end
  done;
  if Array.length s.sn_nonempty <> !nonempty_bins then
    invalid_arg "Bins.of_snapshot: nonempty set mismatch";
  Array.iter
    (fun b ->
      if b < 0 || b >= s.sn_n || t.loads.(b) = 0 || t.pos_in_nonempty.(b) >= 0
      then invalid_arg "Bins.of_snapshot: nonempty set mismatch";
      t.pos_in_nonempty.(b) <- Int_vec.length t.nonempty;
      Int_vec.push t.nonempty b)
    s.sn_nonempty;
  t
