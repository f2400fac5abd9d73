type t = Abku of int | Adap of Adaptive.t

let abku d =
  if d < 1 then invalid_arg "Scheduling_rule.abku: d must be >= 1";
  Abku d

let adap x = Adap x

let name = function
  | Abku d -> Printf.sprintf "ABKU[%d]" d
  | Adap x -> Printf.sprintf "ADAP(%s)" (Adaptive.name x)

let probe_cap = 1_000_000

exception Probe_cap_exceeded of { n : int; x : string; cap : int }

let () =
  Printexc.register_printer (function
    | Probe_cap_exceeded { n; x; cap } ->
        Some
          (Printf.sprintf
             "Probe_cap_exceeded: rule %s issued more than %d probes on %d \
              bins (the threshold sequence never released the insertion)"
             x cap n)
    | _ -> None)

let probe_cap_exceeded rule ~n =
  raise (Probe_cap_exceeded { n; x = name rule; cap = probe_cap })

let choose_rank rule ~loads ~probe =
  match rule with
  | Abku d -> (Probe.prefix_max probe (d - 1), d)
  | Adap x ->
      let rec go t =
        if t > probe_cap then
          probe_cap_exceeded rule ~n:(Array.length loads);
        let best = Probe.prefix_max probe (t - 1) in
        if Adaptive.threshold x loads.(best) <= t then (best, t) else go (t + 1)
      in
      go 1

(* Branch-free ABKU[d] insertion: on a normalized vector the chosen
   rank is the maximum of d uniform ranks, whose CDF at the level
   boundaries is B(l) = (g(l)/n)^d with g(l) the number of bins of load
   >= l.  The table keeps g and B per level; an elementary shift of one
   bin between adjacent levels changes a single g entry, so maintenance
   is O(1) per move (B is looked up among the n + 1 powers (k/n)^d,
   computed once per table), and a draw is one float plus an ascending
   scan of the occupied levels (no per-probe branching or memory
   chasing). *)
module Abku_table = struct
  (* Above [max_level], geq and b are 0: [on_gain] past the top and
     [refill] rely on a clean tail. *)
  type table = {
    d : int;
    n : int;
    pow : float array;  (* pow.(k) = (k / n)^d, k = 0..n, computed once *)
    mutable geq : int array;  (* geq.(l) = #bins with load >= l *)
    mutable b : float array;  (* b.(l) = pow.(geq.(l)) *)
    mutable max_level : int;  (* highest l with geq.(l) > 0 *)
  }

  let[@inline] cdf t l = t.pow.(t.geq.(l))

  (* Suffix sums of the level counts up to [t.max_level]. *)
  let fill t ~count =
    let acc = ref 0 in
    for l = t.max_level downto 1 do
      acc := !acc + count l;
      t.geq.(l) <- !acc;
      t.b.(l) <- cdf t l
    done;
    t.geq.(0) <- t.n;
    t.b.(0) <- 1.;
    while t.max_level > 0 && t.geq.(t.max_level) = 0 do
      t.max_level <- t.max_level - 1
    done

  let create ~d ~n ~max_level ~count =
    if d < 1 then invalid_arg "Abku_table.create: d must be >= 1";
    if n <= 0 then invalid_arg "Abku_table.create: n must be positive";
    let cap = max_level + 2 in
    let fn = float_of_int n and fd = float_of_int d in
    let pow = Array.init (n + 1) (fun k -> (float_of_int k /. fn) ** fd) in
    let t =
      { d; n; pow; geq = Array.make cap 0; b = Array.make cap 0.; max_level }
    in
    fill t ~count;
    t

  let grow t l =
    if l >= Array.length t.geq then begin
      let cap = Stdlib.max (l + 1) (2 * Array.length t.geq) in
      let geq = Array.make cap 0 and b = Array.make cap 0. in
      Array.blit t.geq 0 geq 0 (Array.length t.geq);
      Array.blit t.b 0 b 0 (Array.length t.b);
      t.geq <- geq;
      t.b <- b
    end

  let refill t ~max_level ~count =
    grow t (max_level + 1);
    for l = max_level + 1 to t.max_level do
      t.geq.(l) <- 0;
      t.b.(l) <- 0.
    done;
    t.max_level <- max_level;
    fill t ~count

  (* A bin rose from level [l - 1] to [l]: only g(l) changes. *)
  let on_gain t l =
    if l < 1 then invalid_arg "Abku_table.on_gain: level must be >= 1";
    grow t l;
    t.geq.(l) <- t.geq.(l) + 1;
    t.b.(l) <- cdf t l;
    if l > t.max_level then t.max_level <- l

  (* A bin fell from level [l] to [l - 1]: only g(l) changes. *)
  let on_loss t l =
    if l < 1 || t.geq.(l) <= 0 then
      invalid_arg "Abku_table.on_loss: no bin at level";
    t.geq.(l) <- t.geq.(l) - 1;
    t.b.(l) <- cdf t l;
    while t.max_level > 0 && t.geq.(t.max_level) = 0 do
      t.max_level <- t.max_level - 1
    done

  (* P(level = l) = B(l) - B(l + 1): exactly the mass the rank law
     ((j+1)/n)^d - (j/n)^d puts on the rank class of level l. *)
  let draw_level t g =
    let u = Prng.Rng.float g in
    let l = ref 0 in
    while !l < t.max_level && u < t.b.(!l + 1) do
      incr l
    done;
    !l

  let level_distribution t =
    Array.init (t.max_level + 1) (fun l ->
        let hi = if l = t.max_level then 0. else t.b.(l + 1) in
        t.b.(l) -. hi)
end

(* Dynamic program over (probe count, best rank so far): alive.(r) is the
   probability mass that has taken t probes, has best rank r, and has not
   yet stopped.  A state stops at time t iff x_{load r} <= t. *)
let adap_dp x ~loads ~emit =
  let n = Array.length loads in
  let fn = float_of_int n in
  let alive = Array.make n (1. /. fn) in
  let t = ref 1 in
  let remaining = ref 1. in
  while !remaining > 1e-15 do
    if !t > probe_cap then probe_cap_exceeded (Adap x) ~n;
    (* Emit the mass that stops at time t. *)
    for r = 0 to n - 1 do
      if alive.(r) > 0. && Adaptive.threshold x loads.(r) <= !t then begin
        emit r !t alive.(r);
        remaining := !remaining -. alive.(r);
        alive.(r) <- 0.
      end
    done;
    (* Advance the survivors by one probe: new best = max(best, uniform). *)
    if !remaining > 1e-15 then begin
      let next = Array.make n 0. in
      let below = ref 0. in
      for r = 0 to n - 1 do
        next.(r) <- (alive.(r) *. float_of_int (r + 1) /. fn) +. (!below /. fn);
        below := !below +. alive.(r)
      done;
      Array.blit next 0 alive 0 n
    end;
    incr t
  done

let rank_distribution rule ~loads =
  let n = Array.length loads in
  if n = 0 then invalid_arg "Scheduling_rule.rank_distribution: empty vector";
  match rule with
  | Abku d ->
      let fn = float_of_int n in
      Array.init n (fun j ->
          ((float_of_int (j + 1) /. fn) ** float_of_int d)
          -. ((float_of_int j /. fn) ** float_of_int d))
  | Adap x ->
      let dist = Array.make n 0. in
      adap_dp x ~loads ~emit:(fun r _t p -> dist.(r) <- dist.(r) +. p);
      dist

let expected_probes rule ~loads =
  match rule with
  | Abku d -> float_of_int d
  | Adap x ->
      let acc = ref 0. in
      adap_dp x ~loads ~emit:(fun _r t p -> acc := !acc +. (float_of_int t *. p));
      !acc
