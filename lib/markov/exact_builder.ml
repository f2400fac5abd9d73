type 'state source =
  | Enumerated of 'state array
  | Reachable of 'state

let enumerated states = Enumerated states
let reachable ~root = Reachable root

(* One [hash]/[equal] default for every index this module builds:
   structural unless the caller supplies either half. *)
let new_index ?hash ?equal () =
  let s_hash, s_equal = State_index.structural () in
  State_index.create
    ~hash:(Option.value hash ~default:s_hash)
    ~equal:(Option.value equal ~default:s_equal)
    64

let reachable_states ?hash ?equal ~root ~transitions () =
  let index = new_index ?hash ?equal () in
  ignore (State_index.add index root);
  (* BFS without an explicit queue: ids are assigned in discovery order,
     so the frontier is exactly the ids not yet processed. *)
  let cursor = ref 0 in
  while !cursor < State_index.size index do
    List.iter
      (fun (s', _) -> ignore (State_index.add index s'))
      (transitions (State_index.get index !cursor));
    incr cursor
  done;
  State_index.to_array index

let states_of ?hash ?equal source ~transitions =
  match source with
  | Enumerated states -> states
  | Reachable root -> reachable_states ?hash ?equal ~root ~transitions ()

(* The one row check: every successor resolved through [find], no
   negative mass, total within 1e-9 of 1.  Returns index/probability
   pairs for {!Blocked_csr.add_row}, which merges duplicates. *)
let validate_row ~find row =
  let total = ref 0. in
  let entries =
    List.map
      (fun (s', p) ->
        if p < 0. then invalid_arg "Exact_builder.build: negative probability";
        match find s' with
        | None ->
            invalid_arg "Exact_builder.build: successor outside state space"
        | Some j ->
            total := !total +. p;
            (j, p))
      row
  in
  if Float.abs (!total -. 1.) > 1e-9 then
    invalid_arg "Exact_builder.build: row does not sum to 1";
  entries

(* Streaming build: the state index grows as rows are emitted.

   For an enumerated space the index is fully populated up front (also
   detecting duplicates), then rows stream in index order.  For a
   reachable space the BFS discovery loop doubles as the row loop:
   because ids are assigned in discovery order and processed FIFO, state
   [i]'s successors are all interned by the time row [i] is emitted, so
   each row is final when written and the blocked store never revisits
   one.  Either way the full transition structure is materialized only
   inside the {!Blocked_csr} store — with [~spill], never all at once in
   memory. *)
let build ?block_rows ?spill ?hash ?equal source ~transitions =
  let index = new_index ?hash ?equal () in
  let b = Blocked_csr.builder ?block_rows ?spill () in
  (match source with
  | Enumerated states ->
      if Array.length states = 0 then
        invalid_arg "Exact_builder.build: empty state space";
      Array.iter
        (fun s ->
          let before = State_index.size index in
          if State_index.add index s < before then
            invalid_arg "Exact_builder.build: duplicate state")
        states;
      let find s = State_index.find index s in
      Array.iter
        (fun s -> Blocked_csr.add_row b (validate_row ~find (transitions s)))
        states
  | Reachable root ->
      ignore (State_index.add index root);
      (* The row for state [i] may intern new successors; interning and
         row emission advance together. *)
      let find s = Some (State_index.add index s) in
      let cursor = ref 0 in
      while !cursor < State_index.size index do
        let s = State_index.get index !cursor in
        Blocked_csr.add_row b (validate_row ~find (transitions s));
        incr cursor
      done);
  let n = State_index.size index in
  let states = State_index.to_array index in
  Exact.of_blocked ~states
    ~find:(fun s -> State_index.find index s)
    (Blocked_csr.finish b ~cols:n)

type 'state analysis = {
  chain : 'state Exact.t;
  state_count : int;
  nnz : int;
  tau : int;
  build_seconds : float;
  mix_seconds : float;
}

let build_mix ?eps ?max_t ?domains ?block_rows ?spill ?hash ?equal ?starts
    ?checkpoint source ~transitions =
  let t0 = Obs.Clock.now_ns () in
  let sp = Obs.begin_span "exact.build" in
  let chain = build ?block_rows ?spill ?hash ?equal source ~transitions in
  Obs.end_span ~args:[ ("states", Obs.Int (Exact.size chain)) ] sp;
  let t1 = Obs.Clock.now_ns () in
  let starts =
    Option.map
      (Array.map (fun s ->
           match Exact.index chain s with
           | i -> i
           | exception Not_found ->
               invalid_arg
                 "Exact_builder.build_mix: start outside state space"))
      starts
  in
  let sp = Obs.begin_span "exact.mix" in
  let tau = Exact.mixing_time ?eps ?max_t ?domains ?starts ?checkpoint chain in
  Obs.end_span ~args:[ ("tau", Obs.Int tau) ] sp;
  let t2 = Obs.Clock.now_ns () in
  {
    chain;
    state_count = Exact.size chain;
    nnz = Blocked_csr.nnz (Exact.blocked chain);
    tau;
    build_seconds = Obs.Clock.seconds_of_ns (Int64.sub t1 t0);
    mix_seconds = Obs.Clock.seconds_of_ns (Int64.sub t2 t1);
  }
