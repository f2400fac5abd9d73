type result = {
  loads : int array;
  max_load : int;
  rounds_used : int;
  fallback_balls : int;
}

let run g ~n ~m ~d ~rounds ?(threshold = fun r -> r) () =
  if n <= 0 then invalid_arg "Parallel_alloc.run: n must be positive";
  if m < 0 then invalid_arg "Parallel_alloc.run: negative m";
  if d < 1 then invalid_arg "Parallel_alloc.run: d must be >= 1";
  if rounds < 0 then invalid_arg "Parallel_alloc.run: negative rounds";
  let candidates = Array.init m (fun _ -> Array.init d (fun _ -> Prng.Rng.int g n)) in
  let loads = Array.make n 0 in
  let placed = Array.make m false in
  let requests = Array.make n 0 in
  let remaining = ref m in
  let rounds_used = ref 0 in
  let round = ref 1 in
  while !remaining > 0 && !round <= rounds do
    let cap = threshold !round in
    if cap < 1 then invalid_arg "Parallel_alloc.run: threshold must be >= 1";
    Array.fill requests 0 n 0;
    for ball = 0 to m - 1 do
      if not placed.(ball) then
        Array.iter (fun b -> requests.(b) <- requests.(b) + 1) candidates.(ball)
    done;
    (* A bin accepts this round when its pending demand fits under the
       cap together with what it already holds.  The decision is taken
       simultaneously for all bins (snapshot before placing), so an
       accepting bin ends the round with at most [cap] balls. *)
    let accepting = Array.init n (fun b -> loads.(b) + requests.(b) <= cap) in
    let accepts b = accepting.(b) in
    let progressed = ref false in
    for ball = 0 to m - 1 do
      if not placed.(ball) then begin
        match Array.find_opt accepts candidates.(ball) with
        | Some b ->
            loads.(b) <- loads.(b) + 1;
            placed.(ball) <- true;
            decr remaining;
            progressed := true
        | None -> ()
      end
    done;
    if !progressed then rounds_used := !round;
    incr round
  done;
  (* Sequential greedy fallback for stragglers. *)
  let fallback_balls = !remaining in
  for ball = 0 to m - 1 do
    if not placed.(ball) then begin
      let best = ref candidates.(ball).(0) in
      Array.iter (fun b -> if loads.(b) < loads.(!best) then best := b)
        candidates.(ball);
      loads.(!best) <- loads.(!best) + 1;
      placed.(ball) <- true
    end
  done;
  {
    loads;
    max_load = Array.fold_left Stdlib.max 0 loads;
    rounds_used = !rounds_used;
    fallback_balls;
  }
