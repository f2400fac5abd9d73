let run rule g ~n ~m =
  if n <= 0 || m < 0 then invalid_arg "Static_process.run";
  let bins = Bins.create ~n in
  for _ = 1 to m do
    ignore (Bins.insert_with_rule rule g bins)
  done;
  bins

let max_load_samples rule g ~n ~m ~reps =
  if reps < 0 then invalid_arg "Static_process.max_load_samples";
  Array.init reps (fun _ ->
      let g' = Prng.Rng.split g in
      Bins.max_load (run rule g' ~n ~m))
