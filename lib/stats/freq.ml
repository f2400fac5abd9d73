type t = { counts : int array; mutable total : int }

let create ~size =
  if size <= 0 then invalid_arg "Freq.create: size must be positive";
  { counts = Array.make size 0; total = 0 }

let size t = Array.length t.counts
let total t = t.total

let observe t i =
  if i < 0 || i >= Array.length t.counts then invalid_arg "Freq.observe: bad cell";
  t.counts.(i) <- t.counts.(i) + 1;
  t.total <- t.total + 1

let add t i k =
  if i < 0 || i >= Array.length t.counts then invalid_arg "Freq.add: bad cell";
  if k < 0 then invalid_arg "Freq.add: negative count";
  t.counts.(i) <- t.counts.(i) + k;
  t.total <- t.total + k

let get t i =
  if i < 0 || i >= Array.length t.counts then invalid_arg "Freq.get: bad cell";
  t.counts.(i)

let counts t = Array.copy t.counts

let merge_into ~dst src =
  if Array.length dst.counts <> Array.length src.counts then
    invalid_arg "Freq.merge_into: size mismatch";
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.total <- dst.total + src.total

let of_values sample =
  if Array.length sample = 0 then invalid_arg "Freq.of_values: empty sample";
  let max_v =
    Array.fold_left
      (fun acc v ->
        if v < 0 then invalid_arg "Freq.of_values: negative value";
        Stdlib.max acc v)
      0 sample
  in
  let t = create ~size:(max_v + 1) in
  Array.iter (fun v -> observe t v) sample;
  t

let mean t =
  if t.total = 0 then nan
  else begin
    let acc = ref 0 in
    Array.iteri (fun v c -> acc := !acc + (v * c)) t.counts;
    float_of_int !acc /. float_of_int t.total
  end

let fraction_at_least t v =
  if t.total = 0 then nan
  else begin
    let acc = ref 0 in
    for i = Stdlib.max 0 v to Array.length t.counts - 1 do
      acc := !acc + t.counts.(i)
    done;
    float_of_int !acc /. float_of_int t.total
  end

let pp fmt t =
  if t.total = 0 then Format.fprintf fmt "(empty histogram)"
  else begin
    let peak = Array.fold_left Stdlib.max 1 t.counts in
    let last = ref 0 in
    Array.iteri (fun v c -> if c > 0 then last := v) t.counts;
    for v = 0 to !last do
      let c = t.counts.(v) in
      Format.fprintf fmt "%4d: %8d %s@." v c (String.make (c * 40 / peak) '#')
    done
  end

(* Exact in integers:
   ½ Σ |ca/na − cb/nb| = Σ |ca·nb − cb·na| / (2·na·nb).
   Summing per-cell float quotients instead can round above 1 on
   disjoint supports; here the numerator never exceeds the denominator,
   so one final division keeps the result in [0, 1]. *)
let tv a b =
  if a.total = 0 || b.total = 0 then invalid_arg "Freq.tv: empty sample";
  let na = a.total and nb = b.total in
  let cell c i = if i < Array.length c then c.(i) else 0 in
  let cells = Stdlib.max (Array.length a.counts) (Array.length b.counts) in
  let num = ref 0 in
  for i = 0 to cells - 1 do
    num := !num + abs ((cell a.counts i * nb) - (cell b.counts i * na))
  done;
  float_of_int !num /. float_of_int (2 * na * nb)

let tv_against t q =
  if Array.length q <> Array.length t.counts then
    invalid_arg "Freq.tv_against: length mismatch";
  if t.total = 0 then invalid_arg "Freq.tv_against: no observations";
  let n = float_of_int t.total in
  let acc = ref 0. in
  Array.iteri
    (fun i c -> acc := !acc +. Float.abs ((float_of_int c /. n) -. q.(i)))
    t.counts;
  !acc /. 2.
