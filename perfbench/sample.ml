(* Raw samples and their exact order statistics: the rank-ceil(q n)
   smallest sample, never an interpolation or a histogram bucket
   edge. *)

(* A growable int array: latencies and per-batch bookkeeping are
   recorded here inside timed loops, so pushes must not allocate. *)
module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 1024 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    Array.unsafe_set v.data v.len x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let length v = v.len
end

let rank ~n q =
  max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Order statistic of samples given as (value, multiplicity) pairs —
   all requests answered by one read share one latency. *)
let weighted_quantile pairs q =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) pairs in
  let n = List.fold_left (fun acc (_, c) -> acc + c) 0 sorted in
  let r = rank ~n q in
  let rec go acc = function
    | [] -> invalid_arg "Sample.weighted_quantile: no samples"
    | (v, c) :: rest -> if acc + c >= r then v else go (acc + c) rest
  in
  go 0 sorted

let quantile xs q = weighted_quantile (List.map (fun x -> (x, 1)) xs) q
let median xs = quantile xs 0.5

(* The exact q order statistic of a.(0) .. a.(len - 1), found in place
   by quickselect: the prefix is reordered, nothing is allocated. *)
let int_quantile (a : int array) ~len q =
  if len = 0 then invalid_arg "Sample.int_quantile: no samples";
  let k = rank ~n:len q - 1 in
  let lo = ref 0 and hi = ref (len - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    (* [lo, j] holds values <= pivot, [i, hi] values >= pivot, and
       anything between them equals the pivot. *)
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done;
  a.(k)

(* Samples (completion time in ns since the window opened, value,
   multiplicity) split into consecutive sub-windows of [width_ns]; a
   trailing partial sub-window is dropped. *)
let sub_windows ~width_ns ~span_ns samples =
  let k = max 1 (span_ns / width_ns) in
  let groups = Array.make k [] in
  List.iter
    (fun (t, v, c) ->
      let g = t / width_ns in
      if g < k then groups.(g) <- (v, c) :: groups.(g))
    samples;
  List.filter (fun g -> g <> []) (Array.to_list groups)

(* The mean over sub-windows of each one's exact q order statistic.
   When the host's speed drifts by up to 2x for seconds to minutes at a
   time, an order statistic of the whole window snaps to whichever speed
   held for most of it, while this mean moves in proportion to the share
   of the window each speed covered. *)
let mean_quantile groups q =
  mean (List.map (fun g -> weighted_quantile g q) groups)
