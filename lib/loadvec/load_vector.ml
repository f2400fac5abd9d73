(* Representation invariant: the array is sorted non-increasingly and all
   entries are non-negative.  Constructors establish it; operations rely on
   Fact 3.2 to preserve it. *)
type t = int array

let is_normalized a =
  let n = Array.length a in
  let rec check i =
    if i >= n then true
    else if a.(i) < 0 then false
    else if i > 0 && a.(i) > a.(i - 1) then false
    else check (i + 1)
  in
  n > 0 && check 0

(* Already-normalized input (every state an enumeration emits) is copied
   without sorting; anything else takes the checked, sorting path. *)
let of_array a =
  if is_normalized a then Array.copy a
  else begin
    if Array.length a = 0 then invalid_arg "Load_vector.of_array: empty";
    Array.iter
      (fun x -> if x < 0 then invalid_arg "Load_vector.of_array: negative load")
      a;
    let v = Array.copy a in
    Array.sort (fun x y -> Stdlib.compare y x) v;
    v
  end

let of_loads ~n loads =
  if List.length loads > n then
    invalid_arg "Load_vector.of_loads: more loads than bins";
  let v = Array.make n 0 in
  List.iteri (fun i x ->
      if x < 0 then invalid_arg "Load_vector.of_loads: negative load";
      v.(i) <- x)
    loads;
  of_array v

let uniform ~n ~m =
  if n <= 0 || m < 0 then invalid_arg "Load_vector.uniform";
  let q = m / n and r = m mod n in
  Array.init n (fun i -> if i < r then q + 1 else q)

let all_in_one ~n ~m =
  if n <= 0 || m < 0 then invalid_arg "Load_vector.all_in_one";
  Array.init n (fun i -> if i = 0 then m else 0)

let to_array = Array.copy
let dim = Array.length
let total v = Array.fold_left ( + ) 0 v

let get v i =
  if i < 0 || i >= Array.length v then invalid_arg "Load_vector.get";
  v.(i)

let max_load v = v.(0)
let min_load v = v.(Array.length v - 1)

(* Ranks with positive load form a prefix, so the support size is the
   first rank holding 0 (binary search). *)
let support v =
  let n = Array.length v in
  let rec bisect lo hi =
    (* invariant: ranks < lo are > 0, ranks >= hi are 0 *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v.(mid) > 0 then bisect (mid + 1) hi else bisect lo mid
  in
  bisect 0 n

(* Leftmost rank with value [x], searching a non-increasing array in which
   [x] is known to occur. *)
let leftmost v x =
  let rec bisect lo hi =
    (* invariant: ranks < lo are > x, ranks >= hi are <= x *)
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if v.(mid) > x then bisect (mid + 1) hi else bisect lo mid
  in
  bisect 0 (Array.length v)

let rightmost v x =
  let rec bisect lo hi =
    (* invariant: ranks <= lo are >= x, ranks > hi are < x *)
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if v.(mid) >= x then bisect mid hi else bisect lo (mid - 1)
  in
  bisect 0 (Array.length v - 1)

let first_equal v i = leftmost v (get v i)
let last_equal v i = rightmost v (get v i)

let oplus v i =
  let j = first_equal v i in
  let v' = Array.copy v in
  v'.(j) <- v'.(j) + 1;
  v'

let ominus v i =
  if get v i = 0 then invalid_arg "Load_vector.ominus: empty bin";
  let s = last_equal v i in
  let v' = Array.copy v in
  v'.(s) <- v'.(s) - 1;
  v'

let l1_distance v u =
  if Array.length v <> Array.length u then
    invalid_arg "Load_vector.l1_distance: dimension mismatch";
  let acc = ref 0 in
  for i = 0 to Array.length v - 1 do
    acc := !acc + abs (v.(i) - u.(i))
  done;
  !acc

let delta v u =
  if Array.length v <> Array.length u then
    invalid_arg "Load_vector.delta: dimension mismatch";
  if total v <> total u then invalid_arg "Load_vector.delta: total mismatch";
  l1_distance v u / 2

let equal v u = v = u
let compare = Stdlib.compare

let pp fmt v =
  Format.fprintf fmt "[%s]"
    (String.concat "; " (Array.to_list (Array.map string_of_int v)))

let counts_by_load v =
  let n = Array.length v in
  let rec group i acc =
    if i >= n then List.rev acc
    else
      let x = v.(i) in
      let j = rightmost v x in
      group (j + 1) ((x, j - i + 1) :: acc)
  in
  group 0 []
