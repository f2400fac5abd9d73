(* Counting and the plug-in TV distance are delegated to the shared
   count layer (Stats.Freq) introduced with the lib/validate conformance
   subsystem; this module keeps its historical interface and error
   messages and adds only the chain-driving glue. *)

let counts_of what sample =
  if Array.length sample = 0 then
    invalid_arg (Printf.sprintf "Empirical.%s: empty sample" what);
  Array.iter
    (fun v ->
      if v < 0 then
        invalid_arg (Printf.sprintf "Empirical.%s: negative value" what))
    sample;
  Stats.Freq.of_values sample

let tv_between_samples a b =
  let ca = counts_of "tv_between_samples" a
  and cb = counts_of "tv_between_samples" b in
  Stats.Freq.tv ca cb

let iterate step g s t =
  let state = ref s in
  for _ = 1 to t do
    state := step g !state
  done;
  !state

let observable_tv ~step ~rng ~x0 ~y0 ~t ~reps ~observable =
  if reps <= 0 then invalid_arg "Empirical.observable_tv: reps must be positive";
  if t < 0 then invalid_arg "Empirical.observable_tv: negative t";
  let sample start =
    Array.init reps (fun _ ->
        let g = Prng.Rng.split rng in
        observable (iterate step g (start ()) t))
  in
  tv_between_samples (sample x0) (sample y0)

let decay_profile ~step ~rng ~x0 ~y0 ~times ~reps ~observable =
  List.map
    (fun t -> (t, observable_tv ~step ~rng ~x0 ~y0 ~t ~reps ~observable))
    times
