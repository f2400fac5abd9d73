let check_weights w =
  if Array.length w = 0 then invalid_arg "Dist: empty weight vector";
  let total = Array.fold_left (fun acc x ->
      if x < 0. then invalid_arg "Dist: negative weight" else acc +. x) 0. w
  in
  if total <= 0. then invalid_arg "Dist: zero total weight";
  total

let inverse_cdf w u =
  let total = check_weights w in
  let target = u *. total in
  let n = Array.length w in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.

let weighted g w = inverse_cdf w (Rng.float g)

let weighted_int g w =
  if Array.length w = 0 then invalid_arg "Dist: empty weight vector";
  let total = Array.fold_left (fun acc x ->
      if x < 0 then invalid_arg "Dist: negative weight" else acc + x) 0 w
  in
  if total <= 0 then invalid_arg "Dist: zero total weight";
  let target = Rng.int g total in
  let n = Array.length w in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc + w.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0
