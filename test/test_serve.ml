(* The serve layer's contracts: batch- and domain-invariant cluster
   application, wire codec round-trips, and the crash-recovery law —
   snapshot + journal replay after an arbitrary kill (including a torn
   journal tail) restores a state whose subsequent replies are
   byte-identical to a service that never died. *)

let rng_of seed = Prng.Rng.create ~seed ()

let mk_config ?(seed = 0x5EED) ?(m_factor = 2) ?(repr = Core.Repr.Array_backed)
    ?(process = Serve.Process.Sequential) ~n ~shards () =
  {
    Serve.Cluster.n;
    m = m_factor * n;
    shards;
    process;
    scenario = (if seed land 1 = 0 then Core.Scenario.A else Core.Scenario.B);
    rule = Core.Scheduling_rule.abku 2;
    repr;
    seed;
  }

(* Keys come from raw 64-bit draws — negative and huge keys included,
   the regression surface of the router's hash truncation. *)
let gen_event g =
  match Prng.Rng.int g 100 with
  | r when r < 40 -> Engine.Event.Insert (Int64.to_int (Prng.Rng.bits64 g))
  | r when r < 80 -> Engine.Event.Remove
  | r when r < 88 -> Engine.Event.Step
  | r when r < 93 -> Engine.Event.Probe
  | r when r < 97 -> Engine.Event.Watermark
  | _ -> Engine.Event.Occupancy

let gen_events g k = Array.init k (fun _ -> gen_event g)

(* Round-synchronous clusters reject Step/Remove by contract, so their
   random streams draw from the rbb vocabulary instead. *)
let gen_rbb_event g =
  match Prng.Rng.int g 100 with
  | r when r < 40 -> Engine.Event.Round
  | r when r < 70 -> Engine.Event.Insert (Int64.to_int (Prng.Rng.bits64 g))
  | r when r < 80 -> Engine.Event.Probe
  | r when r < 90 -> Engine.Event.Watermark
  | _ -> Engine.Event.Occupancy

let gen_rbb_events g k = Array.init k (fun _ -> gen_rbb_event g)

let random_chunks g events =
  let n = Array.length events in
  if n = 0 then []
  else begin
    let rec go pos acc =
      if pos >= n then List.rev acc
      else begin
        let len = 1 + Prng.Rng.int g (min 16 (n - pos)) in
        go (pos + len) (Array.sub events pos len :: acc)
      end
    in
    go 0 []
  end

let apply_chunks cluster chunks =
  Array.concat (List.map (Serve.Cluster.apply_batch cluster) chunks)

(* {2 Temp state directories} *)

let fresh_dir =
  let k = ref 0 in
  fun () ->
    incr k;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "repro-serve-test-%d-%d" (Unix.getpid ()) !k)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let store_exn ?snapshot_every ~dir config =
  match Serve.Store.open_ ?snapshot_every ~dir config with
  | Ok s -> s
  | Error msg -> Alcotest.failf "Store.open_: %s" msg

(* {2 Cluster invariance properties} *)

let qcheck_batch_invariance =
  QCheck.Test.make ~name:"cluster state independent of batching" ~count:150
    QCheck.(triple small_int (int_range 4 48) (int_range 1 4))
    (fun (seed, n, shards) ->
      let shards = min shards n in
      let config = mk_config ~seed ~n ~shards () in
      let g = rng_of (seed + 17) in
      let events = gen_events g (Prng.Rng.int g 200) in
      let one = Serve.Cluster.create config in
      let replies_one = Serve.Cluster.apply_batch one events in
      let single = Serve.Cluster.create config in
      let replies_single = Array.map (Serve.Cluster.apply single) events in
      let chunked = Serve.Cluster.create config in
      let replies_chunked = apply_chunks chunked (random_chunks g events) in
      Serve.Cluster.state one = Serve.Cluster.state single
      && Serve.Cluster.state one = Serve.Cluster.state chunked
      && replies_one = replies_single
      && replies_one = replies_chunked)

let qcheck_pool_invariance =
  QCheck.Test.make ~name:"cluster state independent of domains" ~count:40
    QCheck.(pair small_int (int_range 4 32))
    (fun (seed, n) ->
      let config = mk_config ~seed ~n ~shards:(min 4 n) () in
      let g = rng_of (seed + 23) in
      let events = gen_events g (Prng.Rng.int g 150) in
      let serial = Serve.Cluster.create config in
      let replies_serial = Serve.Cluster.apply_batch serial events in
      Parallel.Pool.with_pool ~domains:3 (fun pool ->
          let fanned = Serve.Cluster.create ~pool config in
          let replies_fanned = Serve.Cluster.apply_batch fanned events in
          Serve.Cluster.state serial = Serve.Cluster.state fanned
          && replies_serial = replies_fanned))

let state_roundtrip_prop ?repr ?process ?(gen = gen_events) (seed, n, shards) =
      let shards = min shards n in
      let config = mk_config ~seed ?repr ?process ~n ~shards () in
      let g = rng_of (seed + 31) in
      let cluster = Serve.Cluster.create config in
      ignore (Serve.Cluster.apply_batch cluster (gen g 80));
      let st = Serve.Cluster.state cluster in
      let revived = Serve.Cluster.of_state config st in
      (* Same snapshot, and same behaviour afterwards. *)
      let tail = gen g 40 in
      let a = Serve.Cluster.apply_batch cluster tail in
      let b = Serve.Cluster.apply_batch revived tail in
      st = Serve.Cluster.state (Serve.Cluster.of_state config st)
      && a = b
      && Serve.Cluster.state cluster = Serve.Cluster.state revived

let qcheck_state_roundtrip =
  QCheck.Test.make ~name:"cluster of_state . state is the identity" ~count:100
    QCheck.(triple small_int (int_range 4 40) (int_range 1 4))
    state_roundtrip_prop

(* The counts-sampled backend samples the per-level bucket orders, so
   the /3 snapshot's [sn_levels] must carry them: without that, replies
   after a restore would diverge from the never-restored cluster. *)
let qcheck_sampled_state_roundtrip =
  QCheck.Test.make
    ~name:"sampled-repr of_state . state is the identity" ~count:80
    QCheck.(triple small_int (int_range 4 40) (int_range 1 4))
    (state_roundtrip_prop ~repr:Core.Repr.Count_sampled)

let qcheck_rbb_state_roundtrip =
  QCheck.Test.make
    ~name:"rbb cluster of_state . state is the identity" ~count:80
    QCheck.(triple small_int (int_range 4 40) (int_range 1 4))
    (state_roundtrip_prop ~process:Serve.Process.Rbb ~gen:gen_rbb_events)

(* {2 Crash-recovery properties} *)

let kill_and_restore_prop ?repr ?process ?(gen = gen_events)
    (seed, n, shards, snapshot_every) =
      let shards = min shards n in
      let config = mk_config ~seed ?repr ?process ~n ~shards () in
      let g = rng_of (seed + 41) in
      let chunks = random_chunks g (gen g (20 + Prng.Rng.int g 150)) in
      let cut = Prng.Rng.int g (List.length chunks + 1) in
      let before = List.filteri (fun i _ -> i < cut) chunks in
      let after = List.filteri (fun i _ -> i >= cut) chunks in
      (* Reference: an in-memory cluster that never dies. *)
      let reference = Serve.Cluster.create config in
      ignore (apply_chunks reference before);
      with_dir (fun dir ->
          let victim = store_exn ~snapshot_every ~dir config in
          ignore
            (List.map (Serve.Store.apply_batch victim) before
              : Engine.Event.reply array list);
          (* Kill: abandon the store without close (no final snapshot);
             the journal was flushed batch by batch. *)
          let revived = store_exn ~snapshot_every ~dir config in
          let restored_ok =
            Serve.Cluster.state (Serve.Store.cluster revived)
            = Serve.Cluster.state reference
          in
          (* The surviving stream must produce byte-identical replies. *)
          let ref_replies = apply_chunks reference after in
          let rev_replies =
            Array.concat (List.map (Serve.Store.apply_batch revived) after)
          in
          Serve.Store.close revived;
          (* A clean close snapshots: reopening restores too. *)
          let reopened = store_exn ~snapshot_every ~dir config in
          let final_ok =
            Serve.Cluster.state (Serve.Store.cluster reopened)
            = Serve.Cluster.state reference
          in
          Serve.Store.close reopened;
          restored_ok && ref_replies = rev_replies && final_ok)

let qcheck_kill_and_restore =
  QCheck.Test.make
    ~name:"store restore after kill replays to the never-killed state"
    ~count:60
    QCheck.(quad small_int (int_range 4 32) (int_range 1 4) (int_range 1 60))
    kill_and_restore_prop

let qcheck_sampled_kill_and_restore =
  QCheck.Test.make
    ~name:"sampled-repr store restore replays to the never-killed state"
    ~count:40
    QCheck.(quad small_int (int_range 4 32) (int_range 1 4) (int_range 1 60))
    (kill_and_restore_prop ~repr:Core.Repr.Count_sampled)

(* Round records ride the journal (tag 3) and the /4 snapshot carries
   the process field: an rbb shard cluster must replay through a kill
   exactly like a sequential one. *)
let qcheck_rbb_kill_and_restore =
  QCheck.Test.make
    ~name:"rbb store restore replays rounds to the never-killed state"
    ~count:40
    QCheck.(quad small_int (int_range 4 32) (int_range 1 4) (int_range 1 60))
    (kill_and_restore_prop ~process:Serve.Process.Rbb ~gen:gen_rbb_events)

let qcheck_torn_tail =
  QCheck.Test.make
    ~name:"a torn journal tail is dropped, not misread" ~count:60
    QCheck.(triple small_int (int_range 4 24) (int_range 1 20))
    (fun (seed, n, garbage_len) ->
      let config = mk_config ~seed ~n ~shards:(min 2 n) () in
      let g = rng_of (seed + 59) in
      let chunks = random_chunks g (gen_events g (10 + Prng.Rng.int g 80)) in
      let reference = Serve.Cluster.create config in
      ignore (apply_chunks reference chunks);
      with_dir (fun dir ->
          let victim = store_exn ~snapshot_every:1_000_000 ~dir config in
          ignore
            (List.map (Serve.Store.apply_batch victim) chunks
              : Engine.Event.reply array list);
          (* Kill mid-append: either raw garbage or a strict prefix of a
             plausible next record (seq, count, one Step tag, no
             trailer), depending on the seed. *)
          let journal = Filename.concat dir "journal.bin" in
          let ch =
            open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 journal
          in
          if seed land 1 = 0 then
            for _ = 1 to garbage_len do
              output_char ch '\xFF'
            done
          else begin
            let b = Bytes.create 17 in
            Bytes.set_int64_le b 0 (Int64.of_int (Serve.Store.seq victim));
            Bytes.set_int64_le b 8 1L;
            Bytes.set b 16 '\000';
            output_bytes ch (Bytes.sub b 0 (min 17 (1 + garbage_len)))
          end;
          close_out ch;
          let revived = store_exn ~dir config in
          let ok =
            Serve.Cluster.state (Serve.Store.cluster revived)
            = Serve.Cluster.state reference
          in
          (* And the truncated journal accepts appends again. *)
          let tail = gen_events g 20 in
          let a = Serve.Store.apply_batch revived tail in
          let b = Serve.Cluster.apply_batch reference tail in
          Serve.Store.close revived;
          ok && a = b))

(* {2 Damaged headers} *)

let dir_contents dir =
  let read f = In_channel.with_open_bin f In_channel.input_all in
  List.map
    (fun f -> (f, read (Filename.concat dir f)))
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* One bit flipped in a file's magic string must stop the restore with
   an error naming the file and offset, and leave the directory as it
   was: booting the initial state instead would serve it and, at the
   next snapshot, overwrite the evidence. *)
let damaged_magic_refused ~file ~close () =
  let config = mk_config ~seed:12 ~n:16 ~shards:1 () in
  with_dir (fun dir ->
      let s = store_exn ~dir config in
      ignore (Serve.Store.apply_batch s (gen_events (rng_of 13) 200));
      (* Closed: a snapshot plus an empty journal; else killed: the
         journal alone. *)
      if close then Serve.Store.close s;
      let path = Filename.concat dir file in
      let bytes = Bytes.of_string (List.assoc file (dir_contents dir)) in
      Bytes.set bytes 3 (Char.chr (Char.code (Bytes.get bytes 3) lxor 0x10));
      Out_channel.with_open_bin path (fun oc -> output_bytes oc bytes);
      let before = dir_contents dir in
      (match Serve.Store.open_ ~dir config with
      | Ok s ->
          Serve.Store.close s;
          Alcotest.failf "a damaged %s was accepted" file
      | Error msg ->
          Alcotest.(check bool) ("error names " ^ path ^ " at byte 0: " ^ msg)
            true
            (contains ~sub:path msg && contains ~sub:"byte 0" msg));
      Alcotest.(check bool) "nothing written" true (dir_contents dir = before))

(* A kill inside the journal's creation leaves a strict prefix of its
   header (empty included): that restarts the journal over the
   snapshot. *)
let test_journal_header_cut_restarts () =
  let config = mk_config ~seed:14 ~n:16 ~shards:2 () in
  List.iter
    (fun cut ->
      with_dir (fun dir ->
          let g = rng_of 15 in
          let head = gen_events g 60 and tail = gen_events g 40 in
          let reference = Serve.Cluster.create config in
          ignore (Serve.Cluster.apply_batch reference head);
          let s = store_exn ~dir config in
          ignore (Serve.Store.apply_batch s head);
          Serve.Store.close s;
          Unix.truncate (Filename.concat dir "journal.bin") cut;
          let revived = store_exn ~dir config in
          let restored =
            Serve.Cluster.state (Serve.Store.cluster revived)
            = Serve.Cluster.state reference
          in
          let a = Serve.Store.apply_batch revived tail in
          let b = Serve.Cluster.apply_batch reference tail in
          (* Kill again: the restarted journal must replay the tail. *)
          let again = store_exn ~dir config in
          let replayed =
            Serve.Cluster.state (Serve.Store.cluster again)
            = Serve.Cluster.state reference
          in
          Serve.Store.close again;
          Alcotest.(check bool)
            (Printf.sprintf "journal cut to %d bytes restarts" cut)
            true
            (restored && a = b && replayed)))
    [ 0; 1; 50 ]

(* {2 Unit tests} *)

let test_initial_queries () =
  let config = mk_config ~seed:2 ~n:8 ~shards:2 () in
  let cluster = Serve.Cluster.create config in
  (match Serve.Cluster.apply cluster Engine.Event.Occupancy with
  | Engine.Event.Loads loads ->
      Alcotest.(check int) "bins" 8 (Array.length loads);
      Alcotest.(check int) "balls" 16 (Array.fold_left ( + ) 0 loads)
  | r -> Alcotest.failf "unexpected %s" (Engine.Event.reply_name r));
  (match Serve.Cluster.apply cluster Engine.Event.Probe with
  | Engine.Event.Level l -> Alcotest.(check int) "uniform max" 2 l
  | r -> Alcotest.failf "unexpected %s" (Engine.Event.reply_name r));
  match Serve.Cluster.apply cluster Engine.Event.Watermark with
  | Engine.Event.Level l -> Alcotest.(check int) "watermark seeded" 2 l
  | r -> Alcotest.failf "unexpected %s" (Engine.Event.reply_name r)

(* The round-synchronous vocabulary split: an rbb cluster broadcasts
   Round to every shard (one Ack, balls conserved) and rejects the
   sequential mutations; a sequential cluster rejects Round. *)
let test_rbb_cluster_vocabulary () =
  let config =
    { (mk_config ~seed:6 ~n:8 ~shards:3 ()) with
      process = Serve.Process.Rbb }
  in
  let cluster = Serve.Cluster.create config in
  for _ = 1 to 5 do
    match Serve.Cluster.apply cluster Engine.Event.Round with
    | Engine.Event.Ack -> ()
    | r -> Alcotest.failf "expected Ack, got %s" (Engine.Event.reply_name r)
  done;
  (match Serve.Cluster.apply cluster Engine.Event.Step with
  | Engine.Event.Rejected _ -> ()
  | r -> Alcotest.failf "expected Rejected, got %s" (Engine.Event.reply_name r));
  (match Serve.Cluster.apply cluster Engine.Event.Remove with
  | Engine.Event.Rejected _ -> ()
  | r -> Alcotest.failf "expected Rejected, got %s" (Engine.Event.reply_name r));
  (match Serve.Cluster.apply cluster (Engine.Event.Insert 7) with
  | Engine.Event.Placed bin ->
      Alcotest.(check bool) "global bin id" true (bin >= 0 && bin < 8)
  | r -> Alcotest.failf "expected Placed, got %s" (Engine.Event.reply_name r));
  (match Serve.Cluster.apply cluster Engine.Event.Occupancy with
  | Engine.Event.Loads loads ->
      Alcotest.(check int) "rounds conserve, insert adds one" 17
        (Array.fold_left ( + ) 0 loads)
  | r -> Alcotest.failf "expected Loads, got %s" (Engine.Event.reply_name r));
  let sequential = Serve.Cluster.create (mk_config ~seed:6 ~n:8 ~shards:3 ()) in
  match Serve.Cluster.apply sequential Engine.Event.Round with
  | Engine.Event.Rejected _ -> ()
  | r -> Alcotest.failf "expected Rejected, got %s" (Engine.Event.reply_name r)

let test_drained_cluster_rejects () =
  let config = mk_config ~seed:4 ~n:4 ~shards:2 ~m_factor:1 () in
  let cluster = Serve.Cluster.create config in
  for _ = 1 to 4 do
    match Serve.Cluster.apply cluster Engine.Event.Remove with
    | Engine.Event.Removed _ -> ()
    | r -> Alcotest.failf "expected Removed, got %s" (Engine.Event.reply_name r)
  done;
  (match Serve.Cluster.apply cluster Engine.Event.Remove with
  | Engine.Event.Rejected _ -> ()
  | r -> Alcotest.failf "expected Rejected, got %s" (Engine.Event.reply_name r));
  (match Serve.Cluster.apply cluster Engine.Event.Step with
  | Engine.Event.Rejected _ -> ()
  | r -> Alcotest.failf "expected Rejected, got %s" (Engine.Event.reply_name r));
  (* Rejections consume no randomness and the service keeps going. *)
  match Serve.Cluster.apply cluster (Engine.Event.Insert 42) with
  | Engine.Event.Placed bin ->
      Alcotest.(check bool) "global bin id" true (bin >= 0 && bin < 4)
  | r -> Alcotest.failf "expected Placed, got %s" (Engine.Event.reply_name r)

let test_extreme_insert_keys () =
  let config = mk_config ~seed:6 ~n:16 ~shards:3 () in
  let cluster = Serve.Cluster.create config in
  List.iter
    (fun key ->
      match Serve.Cluster.apply cluster (Engine.Event.Insert key) with
      | Engine.Event.Placed bin ->
          Alcotest.(check bool)
            (Printf.sprintf "key %d lands in range" key)
            true (bin >= 0 && bin < 16)
      | r -> Alcotest.failf "expected Placed, got %s" (Engine.Event.reply_name r))
    [ 0; -1; max_int; min_int; 0x9E3779B9 ]

let test_fingerprint_mismatch () =
  let config = mk_config ~seed:8 ~n:8 ~shards:2 () in
  with_dir (fun dir ->
      let s = store_exn ~dir config in
      ignore (Serve.Store.apply_batch s (gen_events (rng_of 9) 30));
      Serve.Store.close s;
      (match Serve.Store.open_ ~dir { config with seed = config.seed + 1 } with
      | Error _ -> ()
      | Ok s ->
          Serve.Store.close s;
          Alcotest.fail "foreign state directory was accepted");
      (* The representation backend is part of the fingerprint too: a
         sampled-repr service must not adopt an array-repr directory. *)
      match Serve.Store.open_ ~dir { config with repr = Core.Repr.Count_sampled }
      with
      | Error _ -> ()
      | Ok s ->
          Serve.Store.close s;
          Alcotest.fail "state directory with another repr was accepted")

let test_rng_save_restore () =
  let g = rng_of 123 in
  for _ = 1 to 57 do
    ignore (Prng.Rng.bits64 g)
  done;
  let words = Prng.Rng.save g in
  let h = Prng.Rng.restore words in
  for i = 1 to 100 do
    Alcotest.(check int64)
      (Printf.sprintf "draw %d" i)
      (Prng.Rng.bits64 g) (Prng.Rng.bits64 h)
  done;
  Alcotest.check_raises "restore wants 5 words"
    (Invalid_argument "Rng.restore: need 5 words") (fun () ->
      ignore (Prng.Rng.restore [| 1L; 2L |]))

(* {2 Wire codec} *)

let test_wire_parse () =
  let ok line expected_id expected_req =
    match Serve.Wire.parse line with
    | Ok (id, req) ->
        Alcotest.(check (option int)) (line ^ " id") expected_id id;
        if req <> expected_req then Alcotest.failf "%s parsed wrong" line
    | Error msg -> Alcotest.failf "%s: %s" line msg
  in
  ok {|{"op":"insert","key":5,"id":3}|} (Some 3)
    (Serve.Wire.Event (Engine.Event.Insert 5));
  ok {|{"op":"remove"}|} None (Serve.Wire.Event Engine.Event.Remove);
  ok {|{"op":"step","id":0}|} (Some 0) (Serve.Wire.Event Engine.Event.Step);
  ok {|{"op":"probe"}|} None (Serve.Wire.Event Engine.Event.Probe);
  ok {|{"op":"occupancy"}|} None (Serve.Wire.Event Engine.Event.Occupancy);
  ok {|{"op":"watermark"}|} None (Serve.Wire.Event Engine.Event.Watermark);
  ok {|{"op":"ping"}|} None Serve.Wire.Ping;
  ok {|{"op":"stats"}|} None (Serve.Wire.Stats Serve.Wire.Stats_json);
  ok {|{"op":"stats","format":"json","id":4}|} (Some 4)
    (Serve.Wire.Stats Serve.Wire.Stats_json);
  ok {|{"op":"stats","format":"prom"}|} None
    (Serve.Wire.Stats Serve.Wire.Stats_prom);
  List.iter
    (fun line ->
      match Serve.Wire.parse line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should not parse" line)
    [
      {|{"op":"insert"}|};  (* key required *)
      {|{"op":"fly"}|};
      {|{"op":"metrics"}|};
      {|{"op":"stats","format":"xml"}|};
      {|{"op":"stats","format":7}|};
      {|{"key":5}|};
      "not json";
    ]

(* {2 Telemetry} *)

let jget doc k =
  match Experiment.Json.member k doc with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" k

let jint doc k =
  match jget doc k with
  | Experiment.Json.Int i -> i
  | _ -> Alcotest.failf "field %S is not an int" k

let jfloat doc k =
  match jget doc k with
  | Experiment.Json.Float f -> f
  | Experiment.Json.Int i -> float_of_int i
  | _ -> Alcotest.failf "field %S is not a number" k

(* The stats document of a telemetry bank: its registry's JSON view. *)
let registry_json tel =
  Experiment.Json.Obj (Obs.Registry.to_json (Serve.Telemetry.registry tel))

(* The series of a labelled family whose labels include [labels]. *)
let series doc name labels =
  match jget doc name with
  | Experiment.Json.List xs ->
      List.filter
        (fun x ->
          List.for_all
            (fun (k, v) -> Experiment.Json.member k x = Some (Experiment.Json.String v))
            labels)
        xs
  | _ -> Alcotest.failf "family %S is not a list" name

let populated_telemetry () =
  let tel = Serve.Telemetry.create ~shards:2 in
  for i = 1 to 50 do
    Serve.Telemetry.observe_stage tel Serve.Telemetry.Decode
      ~op:Serve.Telemetry.op_ping
      (Int64.of_int (100 * i));
    Serve.Telemetry.observe_latency tel ~op:Serve.Telemetry.op_ping
      (Int64.of_int (1000 * i))
  done;
  Serve.Telemetry.observe_latency tel ~op:Serve.Telemetry.op_stats 5_000L;
  Serve.Telemetry.observe_batch tel 64;
  Serve.Telemetry.observe_round tel 5_000L;
  Serve.Telemetry.observe_drain tel ~shard:1 ~depth:3 700L;
  tel

let count_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let k = ref 0 in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then incr k
  done;
  !k

(* Run the daemon ephemeral on a Unix socket in its own domain, send
   [lines] one at a time (so each is its own select round) and return
   the reply lines; SIGTERM then stops it.  The test holds its own
   SIGTERM handler around the run, so the signal can never fall through
   to the default action and end the test process. *)
let serve_script lines =
  with_dir (fun dir ->
      Unix.mkdir dir 0o700;
      let path = Filename.concat dir "serve.sock" in
      let config =
        {
          (Serve.Server.default_config ~listen:(Serve.Wire.Unix_sock path)
             ~cluster:(mk_config ~n:16 ~shards:2 ()))
          with
          Serve.Server.quiet = true;
        }
      in
      let ready = Atomic.make false in
      let previous = Sys.signal Sys.sigterm (Sys.Signal_handle ignore) in
      let server =
        Domain.spawn (fun () ->
            Fun.protect
              ~finally:(fun () -> Atomic.set ready true)
              (fun () ->
                Serve.Server.run
                  ~on_ready:(fun () -> Atomic.set ready true)
                  config))
      in
      while not (Atomic.get ready) do
        Domain.cpu_relax ()
      done;
      Fun.protect
        ~finally:(fun () ->
          Unix.kill (Unix.getpid ()) Sys.sigterm;
          Domain.join server;
          Sys.set_signal Sys.sigterm previous)
        (fun () ->
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Fun.protect
            ~finally:(fun () -> Unix.close fd)
            (fun () ->
              Unix.connect fd (Unix.ADDR_UNIX path);
              let ic = Unix.in_channel_of_descr fd
              and oc = Unix.out_channel_of_descr fd in
              List.map
                (fun line ->
                  output_string oc (line ^ "\n");
                  flush oc;
                  input_line ic)
                lines)))

let parse_reply line =
  match Experiment.Json.of_string line with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "reply %S: %s" line msg

let test_telemetry_json () =
  (* The daemon's own counters, through the [stats] op. *)
  (match
     serve_script
       [
         {|{"op":"insert","key":1}|}; {|{"op":"insert","key":2}|};
         {|{"op":"ping"}|}; "not json"; {|{"op":"stats"}|};
         {|{"op":"stats","format":"prom"}|};
       ]
   with
  | [ _; _; _; _; stats; prom ] ->
      let doc = parse_reply stats in
      Alcotest.(check int) "connections" 1 (jint doc "connections");
      Alcotest.(check int) "clients" 1 (jint doc "clients");
      Alcotest.(check int) "requests" 5 (jint doc "requests");
      Alcotest.(check int) "events" 2 (jint doc "events");
      Alcotest.(check int) "errors" 1 (jint doc "errors");
      Alcotest.(check int) "rounds" 5 (jint doc "rounds");
      Alcotest.(check int) "seq" 2 (jint doc "seq");
      let text =
        match jget (parse_reply prom) "text" with
        | Experiment.Json.String t -> t
        | _ -> Alcotest.fail "prom reply carries text"
      in
      Alcotest.(check bool) "prom counter agrees" true
        (count_substring ~needle:"\nrepro_serve_requests_total 6\n" text = 1)
  | _ -> Alcotest.fail "one reply per request");
  let cluster = Serve.Cluster.create (mk_config ~n:16 ~shards:2 ()) in
  ignore (Serve.Cluster.apply_batch cluster (gen_events (rng_of 3) 40));
  let tel = populated_telemetry () in
  Serve.Cluster.set_telemetry cluster tel;
  let doc = registry_json tel in
  Alcotest.(check int) "seq" (Serve.Cluster.seq cluster) (jint doc "seq");
  Alcotest.(check int) "balls" (Serve.Cluster.total_balls cluster)
    (jint doc "balls");
  Alcotest.(check bool) "uptime present" true
    (jfloat doc "uptime_seconds" >= 0.);
  let lat =
    match series doc "latency_ns" [ ("op", "ping") ] with
    | [ lat ] -> lat
    | _ -> Alcotest.fail "one ping latency series"
  in
  Alcotest.(check int) "ping latency count" 50 (jint lat "count");
  Alcotest.(check bool) "percentiles are monotone" true
    (jfloat lat "p50" <= jfloat lat "p99"
    && jfloat lat "p99" <= jfloat lat "p999");
  Alcotest.(check bool) "buckets carried" true
    (match jget lat "buckets" with
    | Experiment.Json.List (_ :: _) -> true
    | _ -> false);
  Alcotest.(check int) "decode stage recorded" 1
    (List.length (series doc "stage_ns" [ ("op", "ping"); ("stage", "decode") ]));
  Alcotest.(check int) "silent ops omitted" 0
    (List.length (series doc "latency_ns" [ ("op", "step") ]));
  (match series doc "shard_drain_ns" [] with
  | [ s1 ] ->
      Alcotest.(check int) "only shard 1 drained" 1 (jint s1 "count");
      Alcotest.(check bool) "labelled shard 1" true
        (Experiment.Json.member "shard" s1 = Some (Experiment.Json.String "1"))
  | _ -> Alcotest.fail "one drained shard");
  (match series doc "shard_queue_depth" [ ("shard", "1") ] with
  | [ q ] -> Alcotest.(check int) "shard 1 queue depth" 0 (jint q "value")
  | _ -> Alcotest.fail "one queue-depth series per shard");
  Alcotest.(check int) "shard bins" 8
    (List.fold_left
       (fun acc s -> acc + jint s "value")
       0
       (series doc "shard_bins" [ ("shard", "0") ]));
  Alcotest.(check bool) "no durability gauges for ephemeral" true
    (Experiment.Json.member "journal_bytes" doc = None)

let test_telemetry_prom () =
  with_dir (fun dir ->
      let store = store_exn ~dir (mk_config ~n:16 ~shards:2 ()) in
      ignore
        (Serve.Store.apply_batch store
           (Array.init 10 (fun i -> Engine.Event.Insert i)));
      let tel = populated_telemetry () in
      Serve.Telemetry.observe_drain tel ~shard:0 ~depth:2 400L;
      Serve.Store.set_telemetry store tel;
      let text =
        Obs.Registry.to_prom ~prefix:"repro_serve_" (Serve.Telemetry.registry tel)
      in
      (* The batch was flushed, so the file holds every journalled byte. *)
      let journal_size =
        (Unix.stat (Filename.concat dir "journal.bin")).Unix.st_size
      in
      Serve.Store.close store;
      let contains needle = count_substring ~needle text > 0 in
      Alcotest.(check bool) "uptime help line" true
        (contains "# HELP repro_serve_uptime_seconds");
      Alcotest.(check bool) "quantile sample" true
        (contains "repro_serve_latency_ns{op=\"ping\",quantile=\"0.99\"}");
      Alcotest.(check bool) "count companion" true
        (contains "repro_serve_latency_ns_count{op=\"ping\"} 50");
      Alcotest.(check bool) "journal gauge" true
        (contains
           (Printf.sprintf "\nrepro_serve_journal_bytes %d\n" journal_size));
      Alcotest.(check bool) "never-synced gauge omitted" false
        (contains "repro_serve_journal_sync_age_seconds");
      Alcotest.(check bool) "shard bins exposed" true
        (contains "repro_serve_shard_bins{shard=\"1\"} 8");
      Alcotest.(check bool) "shard watermark exposed" true
        (contains "# TYPE repro_serve_shard_watermark gauge");
      (* Two ops and two shards share metric families: HELP/TYPE must not
         repeat. *)
      Alcotest.(check int) "latency family declared once" 1
        (count_substring ~needle:"# TYPE repro_serve_latency_ns gauge" text);
      Alcotest.(check int) "drain family declared once" 1
        (count_substring ~needle:"# TYPE repro_serve_shard_drain_ns gauge" text);
      Alcotest.(check bool) "ends with a newline" true
        (String.length text > 0 && text.[String.length text - 1] = '\n'))

let test_cluster_stage_telemetry () =
  let config = mk_config ~n:32 ~shards:2 () in
  let g = rng_of 99 in
  let events = Array.append (gen_events g 60) [| Engine.Event.Probe |] in
  let plain = Serve.Cluster.create config in
  let replies_plain = Serve.Cluster.apply_batch plain events in
  let cluster = Serve.Cluster.create config in
  let tel = Serve.Telemetry.create ~shards:2 in
  Serve.Cluster.set_telemetry cluster tel;
  let replies_tel = Serve.Cluster.apply_batch cluster events in
  Alcotest.(check bool) "telemetry does not change replies" true
    (replies_plain = replies_tel);
  Alcotest.(check bool) "telemetry does not change state" true
    (Serve.Cluster.state plain = Serve.Cluster.state cluster);
  Alcotest.(check (list int)) "probe barrier drained every queue" [ 0; 0 ]
    (Array.to_list (Serve.Cluster.queue_depths cluster));
  let muts =
    Array.fold_left
      (fun k ev -> if Engine.Event.is_mutation ev then k + 1 else k)
      0 events
  in
  let doc = registry_json tel in
  let stage_count stage =
    List.fold_left
      (fun acc h -> acc + jint h "count")
      0
      (series doc "stage_ns" [ ("stage", stage) ])
  in
  Alcotest.(check int) "every mutation routed through the Route stage" muts
    (stage_count "route");
  Alcotest.(check bool) "Apply stage recorded work" true
    (stage_count "apply" > 0)

let test_store_durability_gauges () =
  with_dir (fun dir ->
      let config = mk_config ~n:16 ~shards:2 () in
      let store = store_exn ~dir config in
      let tel = Serve.Telemetry.create ~shards:2 in
      Serve.Store.set_telemetry store tel;
      let d0 = registry_json tel in
      Alcotest.(check int) "fresh store has nothing pending" 0
        (jint d0 "since_snapshot");
      Alcotest.(check bool) "never fsynced without --sync" true
        (Experiment.Json.member "journal_sync_age_seconds" d0 = None);
      let muts = Array.init 10 (fun i -> Engine.Event.Insert i) in
      ignore (Serve.Store.apply_batch store muts);
      let d1 = registry_json tel in
      Alcotest.(check int) "mutations pending a snapshot" 10
        (jint d1 "since_snapshot");
      Alcotest.(check bool) "journal grew" true
        (jint d1 "journal_bytes" > jint d0 "journal_bytes");
      Alcotest.(check bool) "flush age is sane" true
        (jfloat d1 "journal_flush_age_seconds" >= 0.
        && jfloat d1 "snapshot_age_seconds" >= 0.);
      Serve.Store.snapshot_now store;
      let d2 = registry_json tel in
      Alcotest.(check int) "snapshot covers everything" 0
        (jint d2 "since_snapshot");
      Alcotest.(check int) "snapshot seq advanced" 10 (jint d2 "snapshot_seq");
      Serve.Store.close store)

let test_wire_format () =
  let line ?id reply =
    let buf = Buffer.create 64 in
    Serve.Wire.add_reply buf ~id reply;
    Buffer.contents buf
  in
  Alcotest.(check string) "ack" "{\"ok\":true,\"reply\":\"ack\"}\n"
    (line Engine.Event.Ack);
  Alcotest.(check string) "placed with id"
    "{\"id\":7,\"ok\":true,\"reply\":\"placed\",\"bin\":17}\n"
    (line ~id:7 (Engine.Event.Placed 17));
  Alcotest.(check string) "level"
    "{\"ok\":true,\"reply\":\"level\",\"value\":3}\n"
    (line (Engine.Event.Level 3));
  Alcotest.(check string) "loads"
    "{\"ok\":true,\"reply\":\"loads\",\"loads\":[1,0,2]}\n"
    (line (Engine.Event.Loads [| 1; 0; 2 |]));
  Alcotest.(check string) "rejected escapes"
    "{\"ok\":false,\"reply\":\"rejected\",\"error\":\"no \\\"x\\\"\"}\n"
    (line (Engine.Event.Rejected "no \"x\""));
  (* Formatted replies parse back as JSON. *)
  List.iter
    (fun reply ->
      let s = line reply in
      match Experiment.Json.of_string (String.trim s) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "%S: %s" s msg)
    [
      Engine.Event.Ack; Engine.Event.Placed 3; Engine.Event.Level (-1);
      Engine.Event.Loads [||]; Engine.Event.Rejected "empty";
    ]

let test_wire_address () =
  (match Serve.Wire.parse_address "unix:/tmp/x.sock" with
  | Ok (Serve.Wire.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix address");
  (match Serve.Wire.parse_address "tcp:localhost:9090" with
  | Ok (Serve.Wire.Tcp ("localhost", 9090)) -> ()
  | _ -> Alcotest.fail "tcp address");
  (match Serve.Wire.parse_address "tcp::8080" with
  | Ok (Serve.Wire.Tcp ("127.0.0.1", 8080)) -> ()
  | _ -> Alcotest.fail "tcp default host");
  List.iter
    (fun s ->
      match Serve.Wire.parse_address s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" s)
    [ "unix:"; "tcp:"; "tcp:host:0"; "tcp:host:banana"; "http://x"; "" ]

let suite =
  [
    Alcotest.test_case "initial queries" `Quick test_initial_queries;
    Alcotest.test_case "drained cluster rejects, then recovers" `Quick
      test_drained_cluster_rejects;
    Alcotest.test_case "rbb cluster vocabulary" `Quick
      test_rbb_cluster_vocabulary;
    Alcotest.test_case "extreme insert keys route in range" `Quick
      test_extreme_insert_keys;
    Alcotest.test_case "foreign state directory is refused" `Quick
      test_fingerprint_mismatch;
    Alcotest.test_case "rng save/restore replays the stream" `Quick
      test_rng_save_restore;
    Alcotest.test_case "wire parse" `Quick test_wire_parse;
    Alcotest.test_case "wire format" `Quick test_wire_format;
    Alcotest.test_case "wire addresses" `Quick test_wire_address;
    Alcotest.test_case "telemetry json report" `Quick
      test_telemetry_json;
    Alcotest.test_case "telemetry prometheus exposition" `Quick
      test_telemetry_prom;
    Alcotest.test_case "cluster stage telemetry" `Quick
      test_cluster_stage_telemetry;
    Alcotest.test_case "store durability gauges" `Quick
      test_store_durability_gauges;
    Alcotest.test_case "a damaged snapshot magic is refused" `Quick
      (damaged_magic_refused ~file:"snapshot.bin" ~close:true);
    Alcotest.test_case "a damaged journal magic is refused" `Quick
      (damaged_magic_refused ~file:"journal.bin" ~close:false);
    Alcotest.test_case "a journal cut inside its header restarts" `Quick
      test_journal_header_cut_restarts;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_batch_invariance;
        qcheck_pool_invariance;
        qcheck_state_roundtrip;
        qcheck_sampled_state_roundtrip;
        qcheck_rbb_state_roundtrip;
        qcheck_kill_and_restore;
        qcheck_sampled_kill_and_restore;
        qcheck_rbb_kill_and_restore;
        qcheck_torn_tail;
      ]
