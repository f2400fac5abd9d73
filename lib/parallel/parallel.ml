let recommended_domains () = Stdlib.max 1 (Domain.recommended_domain_count ())

exception Worker_failure of exn

let map_array ?domains f xs =
  let domains =
    match domains with Some d -> d | None -> recommended_domains ()
  in
  if domains < 1 then invalid_arg "Parallel.map_array: domains < 1";
  let n = Array.length xs in
  if n = 0 then [||]
  else if domains = 1 || n = 1 then Array.map f xs
  else begin
    let workers = Stdlib.min domains n in
    let results = Array.make n None in
    (* Static striding keeps the layout deterministic and balanced for
       heterogeneous task durations. *)
    let worker w () =
      let i = ref w in
      while !i < n do
        (match f xs.(!i) with
        | y -> results.(!i) <- Some y
        | exception e -> raise (Worker_failure e));
        i := !i + workers
      done
    in
    let handles = Array.init workers (fun w -> Domain.spawn (worker w)) in
    let failure = ref None in
    Array.iter
      (fun h ->
        match Domain.join h with
        | () -> ()
        | exception Worker_failure e -> if !failure = None then failure := Some e)
      handles;
    (match !failure with Some e -> raise e | None -> ());
    Array.map
      (function
        | Some y -> y
        | None -> failwith "Parallel.map_array: missing result")
      results
  end
