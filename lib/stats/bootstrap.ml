let ci ?(replicates = 1000) ?(level = 0.95) ~rng ~stat xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Bootstrap.ci: empty sample";
  if not (level > 0. && level < 1.) then
    invalid_arg "Bootstrap.ci: level must be in (0,1)";
  let stats =
    Array.init replicates (fun _ ->
        let resample = Array.init n (fun _ -> xs.(Prng.Rng.int rng n)) in
        stat resample)
  in
  let alpha = (1. -. level) /. 2. in
  (Quantile.quantile stats alpha, Quantile.quantile stats (1. -. alpha))
