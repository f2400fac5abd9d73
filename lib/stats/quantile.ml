let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Quantile.quantile: empty sample";
  if not (q >= 0. && q <= 1.) then invalid_arg "Quantile.quantile: q not in [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    (* Hyndman-Fan type 7: h = (n-1) q, interpolate between floor and ceil. *)
    let h = float_of_int (n - 1) *. q in
    let lo = int_of_float (floor h) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = h -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let median xs = quantile xs 0.5


let of_ints xs = Array.map float_of_int xs
