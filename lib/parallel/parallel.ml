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

let init_array ?domains k f =
  if k < 0 then invalid_arg "Parallel.init_array: negative size";
  map_array ?domains f (Array.init k (fun i -> i))

(* Persistent worker domains for fine-grained data parallelism.

   [map_array] spawns fresh domains per call, which is fine for
   coarse-grained fan-outs (one experiment repetition per task) but far
   too expensive for a job issued once per request batch (the serve
   cluster's shard flush).  A pool keeps [size - 1] worker domains
   parked on a condition variable; [run] wakes them for one job,
   executes slice 0 on the calling domain, and barriers until every
   slice has finished.  The caller is responsible for making slices
   race-free (workers in this repository own disjoint output
   ranges). *)
module Pool = struct
  type t = {
    size : int;
    mutex : Mutex.t;
    wake : Condition.t;
    done_ : Condition.t;
    mutable job : (int -> int -> unit) option;
    mutable generation : int;
    mutable pending : int;
    mutable failure : exn option;
    mutable stopped : bool;
    mutable handles : unit Domain.t list;
  }

  let worker t w () =
    let seen = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      Mutex.lock t.mutex;
      while (not t.stopped) && t.generation = !seen do
        Condition.wait t.wake t.mutex
      done;
      if t.stopped then begin
        Mutex.unlock t.mutex;
        continue_ := false
      end
      else begin
        seen := t.generation;
        let job = Option.get t.job in
        Mutex.unlock t.mutex;
        let outcome = try Ok (job w t.size) with e -> Error e in
        Mutex.lock t.mutex;
        (match outcome with
        | Ok () -> ()
        | Error e -> if t.failure = None then t.failure <- Some e);
        t.pending <- t.pending - 1;
        if t.pending = 0 then Condition.signal t.done_;
        Mutex.unlock t.mutex
      end
    done

  let create ?domains () =
    let size =
      match domains with Some d -> d | None -> recommended_domains ()
    in
    if size < 1 then invalid_arg "Parallel.Pool.create: domains < 1";
    let t =
      {
        size;
        mutex = Mutex.create ();
        wake = Condition.create ();
        done_ = Condition.create ();
        job = None;
        generation = 0;
        pending = 0;
        failure = None;
        stopped = false;
        handles = [];
      }
    in
    t.handles <- List.init (size - 1) (fun w -> Domain.spawn (worker t (w + 1)));
    t

  let size t = t.size

  let run t f =
    if t.size = 1 then f 0 1
    else begin
      Mutex.lock t.mutex;
      if t.stopped then begin
        Mutex.unlock t.mutex;
        invalid_arg "Parallel.Pool.run: pool is shut down"
      end;
      if t.pending > 0 then begin
        Mutex.unlock t.mutex;
        invalid_arg "Parallel.Pool.run: concurrent run on the same pool"
      end;
      t.job <- Some f;
      t.generation <- t.generation + 1;
      t.pending <- t.size - 1;
      t.failure <- None;
      Condition.broadcast t.wake;
      Mutex.unlock t.mutex;
      let mine = try Ok (f 0 t.size) with e -> Error e in
      Mutex.lock t.mutex;
      while t.pending > 0 do
        Condition.wait t.done_ t.mutex
      done;
      t.job <- None;
      let failure = t.failure in
      t.failure <- None;
      Mutex.unlock t.mutex;
      match (mine, failure) with
      | Error e, _ -> raise e
      | Ok (), Some e -> raise e
      | Ok (), None -> ()
    end

  let shutdown t =
    Mutex.lock t.mutex;
    let already = t.stopped in
    t.stopped <- true;
    Condition.broadcast t.wake;
    Mutex.unlock t.mutex;
    if not already then begin
      List.iter Domain.join t.handles;
      t.handles <- []
    end

  let with_pool ?domains f =
    let t = create ?domains () in
    Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
end
