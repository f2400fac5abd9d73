type t = {
  loads : int array;  (* sorted non-increasingly, non-negative *)
  mutable total : int;
  mutable support : int;  (* number of strictly positive entries *)
}

let of_load_vector lv =
  let loads = Load_vector.to_array lv in
  { loads; total = Load_vector.total lv; support = Load_vector.support lv }

let to_load_vector v = Load_vector.of_array v.loads

let copy v = { loads = Array.copy v.loads; total = v.total; support = v.support }

let set_from_load_vector v lv =
  if Load_vector.dim lv <> Array.length v.loads then
    invalid_arg "Mutable_vector.set_from_load_vector: dimension mismatch";
  let src = Load_vector.to_array lv in
  Array.blit src 0 v.loads 0 (Array.length src);
  v.total <- Load_vector.total lv;
  v.support <- Load_vector.support lv

let dim v = Array.length v.loads
let total v = v.total

let get v i =
  if i < 0 || i >= Array.length v.loads then invalid_arg "Mutable_vector.get";
  v.loads.(i)

let max_load v = v.loads.(0)
let min_load v = v.loads.(Array.length v.loads - 1)
let support v = v.support

(* Bisections over the descending loads, at top level and on [int
   array]: a local [bisect] would allocate a closure per call, and an
   unannotated one compares through the polymorphic [caml_greaterequal]. *)
let rec leftmost (loads : int array) x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if loads.(mid) > x then leftmost loads x (mid + 1) hi
    else leftmost loads x lo mid

let rec rightmost (loads : int array) x lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi + 1) / 2 in
    if loads.(mid) >= x then rightmost loads x mid hi
    else rightmost loads x lo (mid - 1)

let first_equal v i = leftmost v.loads (get v i) 0 (Array.length v.loads)
let last_equal v i = rightmost v.loads (get v i) 0 (Array.length v.loads - 1)

let incr_at v i =
  let j = first_equal v i in
  if v.loads.(j) = 0 then v.support <- v.support + 1;
  v.loads.(j) <- v.loads.(j) + 1;
  v.total <- v.total + 1;
  j

let decr_at v i =
  if get v i = 0 then invalid_arg "Mutable_vector.decr_at: empty bin";
  let s = last_equal v i in
  v.loads.(s) <- v.loads.(s) - 1;
  if v.loads.(s) = 0 then v.support <- v.support - 1;
  v.total <- v.total - 1;
  s

(* Synchronous ejection (one round of an RBB-style parallel process):
   every strictly positive entry loses one ball.  The positives are a
   prefix of the descending sort and all drop by the same amount, so
   sortedness is preserved without any re-normalization. *)
let eject_all v =
  let q = v.support in
  for i = 0 to q - 1 do
    v.loads.(i) <- v.loads.(i) - 1;
    if v.loads.(i) = 0 then v.support <- v.support - 1
  done;
  v.total <- v.total - q;
  q

let equal a b = a.loads = b.loads

let l1_distance a b =
  if Array.length a.loads <> Array.length b.loads then
    invalid_arg "Mutable_vector.l1_distance: dimension mismatch";
  let acc = ref 0 in
  for i = 0 to Array.length a.loads - 1 do
    acc := !acc + abs (a.loads.(i) - b.loads.(i))
  done;
  !acc

let unsafe_loads v = v.loads
