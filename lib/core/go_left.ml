type t = { d : int; n : int; group_size : int }

let make ~d ~n =
  if d < 1 then invalid_arg "Go_left.make: d must be >= 1";
  if n < d then invalid_arg "Go_left.make: need n >= d";
  if n mod d <> 0 then invalid_arg "Go_left.make: d must divide n";
  { d; n; group_size = n / d }

let insert t g bins =
  if Bins.n bins <> t.n then invalid_arg "Go_left.insert: size mismatch";
  (* One probe per group; least load wins, ties to the leftmost group. *)
  let best = ref (Prng.Rng.int g t.group_size) in
  (* probe of group 0 *)
  for group = 1 to t.d - 1 do
    let b = (group * t.group_size) + Prng.Rng.int g t.group_size in
    if Bins.load bins b < Bins.load bins !best then best := b
  done;
  Bins.add_ball bins !best;
  !best

let static_run t g ~m =
  let bins = Bins.create ~n:t.n in
  for _ = 1 to m do
    ignore (insert t g bins)
  done;
  bins

let dynamic_step t scenario g bins =
  (match scenario with
  | Scenario.A -> ignore (Bins.remove_ball_uniform g bins)
  | Scenario.B -> ignore (Bins.remove_from_random_nonempty g bins));
  ignore (insert t g bins)
