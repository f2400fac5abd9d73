(* Multiset (count-vector) representation of a normalized load vector:
   [counts.(l)] is the number of bins carrying exactly [l] balls.  The
   paper's processes never distinguish bins of equal load (Fact 3.2
   realises every oplus/ominus at a class boundary), so the multiset is
   a lossless encoding of the normalized vector — and an elementary
   shift of one bin between adjacent levels is O(1) instead of the
   O(log n) bisection plus O(n)-array residency of Mutable_vector.

   Rank/mass scans run over levels in descending order.  With L the
   number of occupied levels (max load + 1), every query here is O(L);
   for the balanced states the dynamic processes live in, L is O(m/n +
   log log n) — effectively constant — which is where the steps/sec win
   over the array backend comes from. *)

type t = {
  n : int;
  mutable counts : int array;  (* counts.(l) = #bins with load l *)
  mutable max_level : int;  (* highest l with counts.(l) > 0, 0 if empty *)
  mutable total : int;  (* number of balls *)
}

let dim t = t.n
let total t = t.total
let max_load t = t.max_level
let support t = t.n - t.counts.(0)

let count t l = if l < 0 || l > t.max_level then 0 else t.counts.(l)

let min_load t =
  if t.counts.(0) > 0 then 0
  else begin
    let l = ref 1 in
    while t.counts.(!l) = 0 do
      incr l
    done;
    !l
  end

let of_load_vector lv =
  let n = Load_vector.dim lv in
  let max_level = Load_vector.max_load lv in
  let counts = Array.make (max_level + 1) 0 in
  for i = 0 to n - 1 do
    let l = Load_vector.get lv i in
    counts.(l) <- counts.(l) + 1
  done;
  { n; counts; max_level; total = Load_vector.total lv }

let to_load_vector t =
  let a = Array.make t.n 0 in
  let i = ref 0 in
  for l = t.max_level downto 0 do
    for _ = 1 to t.counts.(l) do
      a.(!i) <- l;
      incr i
    done
  done;
  Load_vector.of_array a

let copy t =
  { n = t.n; counts = Array.copy t.counts; max_level = t.max_level;
    total = t.total }

let set_from_load_vector t lv =
  if Load_vector.dim lv <> t.n then
    invalid_arg "Count_vector.set_from_load_vector: dimension mismatch";
  let max_level = Load_vector.max_load lv in
  if max_level >= Array.length t.counts then
    t.counts <- Array.make (max_level + 1) 0
  else Array.fill t.counts 0 (Array.length t.counts) 0;
  for i = 0 to t.n - 1 do
    let l = Load_vector.get lv i in
    t.counts.(l) <- t.counts.(l) + 1
  done;
  t.max_level <- max_level;
  t.total <- Load_vector.total lv

let equal a b =
  a.n = b.n && a.max_level = b.max_level
  && begin
       let ok = ref true in
       for l = 0 to a.max_level do
         if a.counts.(l) <> b.counts.(l) then ok := false
       done;
       !ok
     end

(* Rank [r] (0-indexed in the descending sort) has load >= l iff
   r < g(l), so the ranks of level l occupy [g(l+1), g(l)). *)
let level_of_rank t r =
  if r < 0 || r >= t.n then invalid_arg "Count_vector.level_of_rank";
  let l = ref t.max_level and acc = ref 0 and found = ref false in
  while (not !found) && !l >= 0 do
    acc := !acc + t.counts.(!l);
    if r < !acc then found := true else decr l
  done;
  if !found then !l else 0

(* The level the scenario-A inverse-CDF scan stops at.  The array scan
   (Scenario.remove_rank) walks ranks accumulating integer loads and
   stops at the first rank with [target < acc]; within a level block of
   c bins the partial sums are A + l, A + 2l, ..., A + c*l, so the scan
   leaves the block iff [target >= A + c*l].  Comparing the same integer
   [target] against the block's last partial sum reproduces the array
   scan's branch decisions, so the level returned here is exactly the
   level of the rank the array scan picks.  Both scans here are loops,
   so a call allocates no closure. *)
let level_of_ball t ~target =
  if t.total <= 0 then invalid_arg "Count_vector.level_of_ball: no balls";
  let l = ref t.max_level and acc = ref 0 and found = ref false in
  while (not !found) && !l >= 1 do
    acc := !acc + (!l * t.counts.(!l));
    if target < !acc then found := true else decr l
  done;
  if !found then !l else Stdlib.max 1 (min_load t)

let grow t l =
  if l >= Array.length t.counts then begin
    let cap = Stdlib.max (l + 1) (2 * Array.length t.counts) in
    let counts = Array.make cap 0 in
    Array.blit t.counts 0 counts 0 (Array.length t.counts);
    t.counts <- counts
  end

(* One bin moves from level l to l - 1 (a ball leaves it). *)
let shift_down t l =
  if l < 1 || l > t.max_level || t.counts.(l) = 0 then
    invalid_arg "Count_vector.shift_down: no bin at level";
  t.counts.(l) <- t.counts.(l) - 1;
  t.counts.(l - 1) <- t.counts.(l - 1) + 1;
  t.total <- t.total - 1;
  if l = t.max_level then
    while t.max_level > 0 && t.counts.(t.max_level) = 0 do
      t.max_level <- t.max_level - 1
    done

(* Synchronous ejection: every non-empty bin drops one level at once,
   i.e. the whole count profile slides down by one (level-0 bins stay).
   One O(max_level) pass — the count-backend twin of
   Mutable_vector.eject_all. *)
let eject_all t =
  let q = t.n - t.counts.(0) in
  for l = 1 to t.max_level do
    t.counts.(l - 1) <- (if l = 1 then t.counts.(0) else 0) + t.counts.(l)
  done;
  if t.max_level >= 1 then t.counts.(t.max_level) <- 0;
  t.total <- t.total - q;
  if t.max_level > 0 then t.max_level <- t.max_level - 1;
  q

(* One bin moves from level l to l + 1 (a ball lands in it). *)
let shift_up t l =
  if l < 0 || l > t.max_level || t.counts.(l) = 0 then
    invalid_arg "Count_vector.shift_up: no bin at level";
  grow t (l + 1);
  t.counts.(l) <- t.counts.(l) - 1;
  t.counts.(l + 1) <- t.counts.(l + 1) + 1;
  t.total <- t.total + 1;
  if l + 1 > t.max_level then t.max_level <- l + 1
