(* Layer spans and their self times.

   The traced runs wrap each public call into a layer in a span named
   after the layer (Obs.with_span).  A layer's self time is its span's
   duration minus the durations of the layer spans nested directly
   inside it.
   Spans the library records on its own (exact.mixing_time,
   runner.rep, ...) are not layer boundaries: their time stays with the
   layer span that encloses them. *)

type total = { calls : int; self_ns : float; durations : float list }

(* Self time per layer name over every buffered span whose name is in
   [names]: (name, total). *)
let self_times names =
  let evs =
    List.filter
      (fun e -> e.Obs.ph = Obs.Complete && List.mem e.Obs.name names)
      (Obs.events ())
    |> List.stable_sort (fun a b ->
           match compare a.Obs.track b.Obs.track with
           | 0 -> (
               match Int64.compare a.Obs.ts_ns b.Obs.ts_ns with
               | 0 -> Int64.compare b.Obs.dur_ns a.Obs.dur_ns
               | c -> c)
           | c -> c)
  in
  let tbl = Hashtbl.create 16 in
  let add name ~self ~dur =
    let t =
      Option.value (Hashtbl.find_opt tbl name)
        ~default:{ calls = 0; self_ns = 0.; durations = [] }
    in
    Hashtbl.replace tbl name
      { calls = t.calls + 1; self_ns = t.self_ns +. self;
        durations = dur :: t.durations }
  in
  (* Open spans: (event, end, nested layer time so far). *)
  let stack = ref [] in
  let close (e, _, child) =
    let dur = Int64.to_float e.Obs.dur_ns in
    add e.Obs.name ~self:(dur -. !child) ~dur
  in
  List.iter
    (fun e ->
      let rec pop () =
        match !stack with
        | ((top, stop, _) as s) :: rest
          when top.Obs.track <> e.Obs.track || Int64.compare stop e.Obs.ts_ns <= 0 ->
            close s;
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | (_, _, child) :: _ -> child := !child +. Int64.to_float e.Obs.dur_ns
      | [] -> ());
      stack := (e, Int64.add e.Obs.ts_ns e.Obs.dur_ns, ref 0.) :: !stack)
    evs;
  List.iter close !stack;
  List.map
    (fun n ->
      ( n,
        Option.value (Hashtbl.find_opt tbl n)
          ~default:{ calls = 0; self_ns = 0.; durations = [] } ))
    names

(* Validate a written trace with the repository's checker. *)
let check_trace ~checker path =
  let pid =
    Unix.create_process checker [| checker; path |] Unix.stdin Unix.stderr
      Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Ok ()
  | _ -> Error (Printf.sprintf "%s rejected the trace %s" checker path)
