type weight_dist =
  | Constant of float
  | Uniform_unit
  | Exponential of float
  | Pareto of { alpha : float; xmin : float }

let sample_weight g = function
  | Constant w ->
      if w <= 0. then invalid_arg "Weighted: non-positive constant weight";
      w
  | Uniform_unit -> 1. -. Prng.Rng.float g
  | Exponential mean ->
      if mean <= 0. then invalid_arg "Weighted: non-positive mean";
      -.mean *. log (1. -. Prng.Rng.float g)
  | Pareto { alpha; xmin } ->
      if alpha <= 0. || xmin <= 0. then invalid_arg "Weighted: bad Pareto";
      xmin /. ((1. -. Prng.Rng.float g) ** (1. /. alpha))

let dist_name = function
  | Constant w -> Printf.sprintf "const(%.2g)" w
  | Uniform_unit -> "uniform(0,1]"
  | Exponential mean -> Printf.sprintf "exp(mean=%.2g)" mean
  | Pareto { alpha; xmin } -> Printf.sprintf "pareto(a=%.2g,x0=%.2g)" alpha xmin

type t = {
  n : int;
  loads : float array;         (* weighted load by bin *)
  ball_bins : Int_vec.t;       (* ball slot -> bin *)
  mutable ball_weights : float array;  (* ball slot -> weight *)
  mutable num_balls : int;
}

let create ~n =
  if n <= 0 then invalid_arg "Weighted.create: n must be positive";
  {
    n;
    loads = Array.make n 0.;
    ball_bins = Int_vec.create ();
    ball_weights = Array.make 16 0.;
    num_balls = 0;
  }

let num_balls t = t.num_balls

let load t b =
  if b < 0 || b >= t.n then invalid_arg "Weighted.load: bad bin";
  t.loads.(b)

let max_load t = Array.fold_left Float.max 0. t.loads
let total_weight t = Array.fold_left ( +. ) 0. t.loads

let push_ball t bin weight =
  if t.num_balls = Array.length t.ball_weights then begin
    let grown = Array.make (2 * t.num_balls) 0. in
    Array.blit t.ball_weights 0 grown 0 t.num_balls;
    t.ball_weights <- grown
  end;
  Int_vec.push t.ball_bins bin;
  t.ball_weights.(t.num_balls) <- weight;
  t.num_balls <- t.num_balls + 1;
  t.loads.(bin) <- t.loads.(bin) +. weight

let insert t g ~d ~weight =
  if d < 1 then invalid_arg "Weighted.insert: d must be >= 1";
  if weight <= 0. then invalid_arg "Weighted.insert: non-positive weight";
  let best = ref (Prng.Rng.int g t.n) in
  for _ = 2 to d do
    let b = Prng.Rng.int g t.n in
    if t.loads.(b) < t.loads.(!best) then best := b
  done;
  push_ball t !best weight;
  !best

let remove_uniform_ball t g =
  if t.num_balls = 0 then invalid_arg "Weighted.remove_uniform_ball: empty";
  let slot = Prng.Rng.int g t.num_balls in
  let bin = Int_vec.swap_remove t.ball_bins slot in
  let weight = t.ball_weights.(slot) in
  let last = t.num_balls - 1 in
  t.ball_weights.(slot) <- t.ball_weights.(last);
  t.num_balls <- last;
  t.loads.(bin) <- Float.max 0. (t.loads.(bin) -. weight);
  weight

let static_run g ~n ~m ~d ~dist =
  if m < 0 then invalid_arg "Weighted.static_run: negative m";
  let t = create ~n in
  for _ = 1 to m do
    ignore (insert t g ~d ~weight:(sample_weight g dist))
  done;
  t

let dynamic_step t g ~d ~dist =
  ignore (remove_uniform_ball t g);
  ignore (insert t g ~d ~weight:(sample_weight g dist))
