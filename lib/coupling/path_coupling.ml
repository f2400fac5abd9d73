let beta_estimate ~reps ~rng c ~pair =
  if reps <= 0 then invalid_arg "Path_coupling.beta_estimate: reps";
  let sum_delta = ref 0 in
  let changed = ref 0 in
  for _ = 1 to reps do
    let g = Prng.Rng.split rng in
    let x, y = pair g in
    let x', y' = c.Coupled_chain.step g x y in
    let d = c.Coupled_chain.distance x' y' in
    sum_delta := !sum_delta + d;
    if d <> 1 then incr changed
  done;
  let f = float_of_int reps in
  (float_of_int !sum_delta /. f, float_of_int !changed /. f)
