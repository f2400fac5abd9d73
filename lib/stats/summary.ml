type t = {
  mutable count : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

let create () =
  { count = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

let add s x =
  s.count <- s.count + 1;
  let delta = x -. s.mean in
  s.mean <- s.mean +. (delta /. float_of_int s.count);
  s.m2 <- s.m2 +. (delta *. (x -. s.mean));
  if x < s.min then s.min <- x;
  if x > s.max then s.max <- x

let add_int s x = add s (float_of_int x)

let count s = s.count

let mean s = if s.count = 0 then nan else s.mean

let variance s =
  if s.count < 2 then nan else s.m2 /. float_of_int (s.count - 1)

let min s = s.min
let max s = s.max
let sum s = s.mean *. float_of_int s.count

let merge a b =
  if a.count = 0 then { b with count = b.count }
  else if b.count = 0 then { a with count = a.count }
  else begin
    let count = a.count + b.count in
    let fa = float_of_int a.count and fb = float_of_int b.count in
    let delta = b.mean -. a.mean in
    let mean = a.mean +. (delta *. fb /. float_of_int count) in
    let m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. float_of_int count) in
    { count; mean; m2;
      min = Float.min a.min b.min;
      max = Float.max a.max b.max }
  end
