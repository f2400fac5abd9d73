(* p(m, k): partitions of m into at most k parts.
   p(m, k) = p(m, k-1) + p(m-k, k). *)
let count ~n ~m =
  if n <= 0 || m < 0 then invalid_arg "Partition_space.count";
  let k_max = Stdlib.min n m in
  let table = Array.make_matrix (m + 1) (k_max + 1) 0 in
  for k = 0 to k_max do
    table.(0).(k) <- 1
  done;
  for mm = 1 to m do
    for k = 1 to k_max do
      table.(mm).(k) <-
        table.(mm).(k - 1) + (if mm >= k then table.(mm - k).(k) else 0)
    done
  done;
  table.(m).(k_max)

let enumerate ~n ~m =
  if n <= 0 || m < 0 then invalid_arg "Partition_space.enumerate";
  (* Every slot is overwritten; the fill is the first state emitted. *)
  let out = Array.make (count ~n ~m) (Loadvec.Load_vector.all_in_one ~n ~m) in
  let next = ref 0 in
  let parts = Array.make n 0 in
  (* Build parts left to right: [parts.(k)] is the part at rank [k],
     [remaining] the balls left, [cap] the bound on the next part
     (non-increasing order).  Larger parts are tried first, so states
     come out in decreasing lexicographic order, the order they are
     stored in. *)
  let rec go k remaining cap =
    if remaining = 0 then begin
      out.(!next) <- Loadvec.Load_vector.of_array parts;
      incr next
    end
    else if k < n then
      (* A part of size [p], p from min(cap, remaining) down to at least
         ceil(remaining / slots left) so the rest fits under the cap p. *)
      for p = Stdlib.min cap remaining downto 1 do
        if p * (n - k) >= remaining then begin
          parts.(k) <- p;
          go (k + 1) (remaining - p) p;
          parts.(k) <- 0
        end
      done
  in
  go 0 m m;
  out

type index = {
  states : Loadvec.Load_vector.t array;
  lookup : (Loadvec.Load_vector.t, int) Hashtbl.t;
}

let index_of_space states =
  let lookup = Hashtbl.create (Array.length states) in
  Array.iteri (fun i s -> Hashtbl.replace lookup s i) states;
  { states; lookup }

let find idx v =
  match Hashtbl.find_opt idx.lookup v with
  | Some i -> i
  | None -> raise Not_found

let size idx = Array.length idx.states
