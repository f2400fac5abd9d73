(* The serve layer's contracts: batch-invariant cluster application,
   pinned replies, wire codec round-trips, and the crash-recovery law —
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

(* Fixed seeded streams fed through [apply_batch] in seeded random
   chunks, pinned by the digest of every reply's wire bytes and of the
   final state's snapshot bytes.  The batch-invariance property above
   compares the cluster with itself; these digests, recorded from a
   cluster that queued mutations per shard and applied them at the next
   query, hold its replies across changes to how it applies events. *)
let pinned_streams =
  Serve.Process.
    [ ("seq, 1 shard, array", Sequential, 1, Core.Repr.Array_backed, 0x51,
       "9407964b3b98661577a81071c0605827", "ce7ded25fabc68b7549c0eef13c0eef9");
      ("seq, 1 shard, counts-sampled", Sequential, 1, Core.Repr.Count_sampled, 0x52,
       "640d0ba811124aee2042be62d0b9ab16", "5d8829037481fefa59673a90ac463c57");
      ("seq, 4 shards, array", Sequential, 4, Core.Repr.Array_backed, 0x53,
       "0642e0d3ccc57571f2c89fc4a2baedc7", "894946301449957f301d2b9699c95134");
      ("seq, 4 shards, counts-sampled", Sequential, 4, Core.Repr.Count_sampled, 0x54,
       "14d0cc8035def434911b677ddac96e11", "ea68af4adecb75721d5e562a32b80968");
      ("rbb, 2 shards, array", Rbb, 2, Core.Repr.Array_backed, 0x55,
       "fdfb42a8eb5ebee684e1ee195a10cacc", "2953f1d167dda9ade3401e9d48f4ebfa");
      ("rbb, 2 shards, counts-sampled", Rbb, 2, Core.Repr.Count_sampled, 0x56,
       "aa31e6daac769d975200d0c8b2a63fb2", "449389c773a1e8aad8e29e1c2534768d") ]

let test_pinned_replies () =
  with_dir (fun dir ->
      Unix.mkdir dir 0o700;
      List.iter
        (fun (name, process, shards, repr, seed, replies_hex, state_hex) ->
          let config = mk_config ~seed ~process ~repr ~n:48 ~shards () in
          let g = rng_of seed in
          let gen = if process = Serve.Process.Rbb then gen_rbb_events else gen_events in
          let cluster = Serve.Cluster.create config in
          let replies = apply_chunks cluster (random_chunks g (gen g 3000)) in
          let wire = Buffer.create 65536 in
          Array.iter (fun r -> Serve.Wire.add_reply wire ~id:None r) replies;
          let path = Filename.concat dir "snapshot" in
          Serve.Journal.save_snapshot ~path (Serve.Journal.fingerprint_of_config config)
            (Serve.Cluster.state cluster);
          Alcotest.(check string) (name ^ ": replies") replies_hex
            (Digest.to_hex (Digest.string (Buffer.contents wire)));
          Alcotest.(check string) (name ^ ": state") state_hex
            (Digest.to_hex (Digest.file path)))
        pinned_streams)

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
  let tel = Serve.Telemetry.create () in
  for i = 1 to 50 do
    Serve.Telemetry.observe_stage tel Serve.Telemetry.Decode
      ~op:Serve.Telemetry.op_ping (100 * i);
    Serve.Telemetry.observe_latency tel ~op:Serve.Telemetry.op_ping (1000 * i)
  done;
  Serve.Telemetry.observe_latency tel ~op:Serve.Telemetry.op_stats 5_000;
  Serve.Telemetry.observe_batch tel 64;
  Serve.Telemetry.observe_round tel 5_000;
  tel

let count_substring ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let k = ref 0 in
  for i = 0 to hl - nl do
    if String.sub hay i nl = needle then incr k
  done;
  !k

(* Run the daemon on a Unix socket in its own domain — durable in
   [state] when given, ephemeral otherwise — and hand [f] the socket
   path; SIGTERM then stops it.  The test holds its own SIGTERM handler
   around the run, so the signal can never fall through to the default
   action and end the test process. *)
let with_daemon ?state cluster f =
  with_dir (fun dir ->
      Unix.mkdir dir 0o700;
      let path = Filename.concat dir "serve.sock" in
      let config =
        {
          (Serve.Server.default_config ~listen:(Serve.Wire.Unix_sock path)
             ~cluster)
          with
          Serve.Server.quiet = true;
          dir = state;
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
        (fun () -> f path))

(* Send [lines] one at a time (so each is its own select round) to an
   ephemeral daemon and return the reply lines. *)
let serve_script lines =
  with_daemon (mk_config ~n:16 ~shards:2 ()) (fun path ->
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
            lines))

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
      Alcotest.(check int) "shard family declared once" 1
        (count_substring ~needle:"# TYPE repro_serve_shard_bins gauge" text);
      Alcotest.(check bool) "ends with a newline" true
        (String.length text > 0 && text.[String.length text - 1] = '\n'))

let test_cluster_stage_telemetry () =
  let config = mk_config ~n:32 ~shards:2 () in
  let g = rng_of 99 in
  let events = Array.append (gen_events g 60) [| Engine.Event.Probe |] in
  let plain = Serve.Cluster.create config in
  let replies_plain = Serve.Cluster.apply_batch plain events in
  let cluster = Serve.Cluster.create config in
  let tel = Serve.Telemetry.create () in
  Serve.Cluster.set_telemetry cluster tel;
  let replies_tel = Serve.Cluster.apply_batch cluster events in
  Alcotest.(check bool) "telemetry does not change replies" true
    (replies_plain = replies_tel);
  Alcotest.(check bool) "telemetry does not change state" true
    (Serve.Cluster.state plain = Serve.Cluster.state cluster);
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
      let tel = Serve.Telemetry.create () in
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
  (* Digits are written as string_of_int writes them, extremes included. *)
  List.iter
    (fun v ->
      Alcotest.(check string)
        (Printf.sprintf "digits of %d" v)
        (Printf.sprintf "{\"id\":%d,\"ok\":true,\"reply\":\"removed\",\"bin\":%d}\n" (-v) v)
        (line ~id:(-v) (Engine.Event.Removed v)))
    [ 0; 9; 10; -1; -10; 99; 100; 123456789; max_int; min_int + 1 ];
  Alcotest.(check string) "min_int"
    (Printf.sprintf "{\"ok\":true,\"reply\":\"level\",\"value\":%d}\n" min_int)
    (line (Engine.Event.Level min_int));
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

(* {2 The one-pass decoder against the Json-tree oracle} *)

let pick g xs = xs.(Prng.Rng.int g (Array.length xs))

(* A JSON string literal of [text]: quotes and backslashes escaped, and
   some bytes, when [escapes], written as \u escapes of either case. *)
let json_string ?(escapes = true) g text =
  let buf = Buffer.create (String.length text + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      if escapes && Char.code c < 0x80 && Prng.Rng.int g 5 = 0 then
        Buffer.add_string buf
          (Printf.sprintf (if Prng.Rng.bool g then "\\u%04x" else "\\u%04X") (Char.code c))
      else
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | c -> Buffer.add_char buf c)
    text;
  Buffer.add_char buf '"';
  Buffer.contents buf

let wire_ints =
  [| "0"; "-0"; "7"; "-123"; "007"; "1e3"; "1.5"; "-2.5E-3"; "12.";
     "99999999999999999999"; "4611686018427387903"; "-4611686018427387904";
     "4611686018427387904"; "123456789012345678"; "-1234567890123456789" |]

let gen_int_lit g =
  if Prng.Rng.bool g then pick g wire_ints
  else string_of_int (Int64.to_int (Prng.Rng.bits64 g) asr Prng.Rng.int g 62)

(* Strings that exercise the escape grammar: surrogate pairs, UTF-8,
   every short escape. *)
let wire_texts =
  [| "{\"op\":\"x\"}"; "\\ud83d\\ude00"; "caf\\u00e9"; "\\n\\t\\/\\b\\f\\r";
     "\xc3\xa9t\xc3\xa9"; ""; "\\\\\\\""; "\\ud83d"; "\\ude00"; "\\ud83d\\u0041" |]

let rec gen_json g ~ws depth =
  match Prng.Rng.int g (if depth >= 4 then 5 else 7) with
  | 0 -> gen_int_lit g
  | 1 -> "\"" ^ pick g wire_texts ^ "\""
  | 2 -> pick g [| "true"; "false"; "null" |]
  | 3 -> json_string g (pick g [| "op"; "probe"; "id"; "x y" |])
  | 4 -> pick g [| "[]"; "{}"; "[ ]"; "{ }" |]
  | 5 ->
      "[" ^ String.concat ("," ^ ws g)
              (List.init (1 + Prng.Rng.int g 3) (fun _ -> gen_json g ~ws (depth + 1)))
      ^ "]"
  | _ ->
      "{" ^ ws g
      ^ String.concat ","
          (List.init (1 + Prng.Rng.int g 3) (fun _ ->
               json_string g (pick g [| "a"; "op"; "key"; "b" |]) ^ ws g ^ ":" ^ ws g
               ^ gen_json g ~ws (depth + 1)))
      ^ ws g ^ "}"

let wire_op_names =
  [| "step"; "round"; "insert"; "remove"; "probe"; "occupancy"; "watermark";
     "ping"; "stats"; "fly"; ""; "PROBE"; "probe "; "stat"; "insert\x00" |]

(* A request line: the known fields (sometimes absent, sometimes of the
   wrong type, sometimes twice) and unknown ones, in random order with
   random whitespace.  [framing] keeps it free of '\n' and of the stats
   op, whose replies change with the daemon's counters. *)
let gen_wire_line ?(framing = false) g =
  let ws g =
    if framing then pick g [| ""; ""; " "; "\t"; "\r" |]
    else pick g [| ""; ""; ""; " "; "\t"; "\r\n"; "  \n"; "\r" |]
  in
  let op =
    let names =
      if framing then Array.of_list (List.filter (( <> ) "stats") (Array.to_list wire_op_names))
      else wire_op_names
    in
    let name = pick g names in
    match Prng.Rng.int g 12 with
    | 0 -> gen_json g ~ws 1
    | 1 | 2 | 3 -> json_string g name
    | _ -> json_string ~escapes:false g name
  in
  let value g = if Prng.Rng.int g 4 = 0 then gen_json g ~ws 1 else gen_int_lit g in
  let key_name g name = if Prng.Rng.int g 6 = 0 then json_string g name else "\"" ^ name ^ "\"" in
  let field g name v = key_name g name ^ ws g ^ ":" ^ ws g ^ v in
  let fields =
    List.concat
      [
        (if Prng.Rng.int g 10 > 0 then [ field g "op" op ] else []);
        (if Prng.Rng.bool g then [ field g "id" (value g) ] else []);
        (if Prng.Rng.int g 3 > 0 then [ field g "key" (value g) ] else []);
        (if (not framing) && Prng.Rng.int g 4 = 0 then
           [ field g "format"
               (if Prng.Rng.int g 4 = 0 then gen_json g ~ws 1
                else json_string g (pick g [| "json"; "prom"; "prom"; "xml"; "" |])) ]
         else []);
        List.init (Prng.Rng.int g 3) (fun _ ->
            field g (pick g [| "x"; "ids"; "o"; "keys"; "opp" |]) (gen_json g ~ws 1));
      ]
  in
  (* Duplicates: the first occurrence must win. *)
  let fields =
    if fields <> [] && Prng.Rng.int g 4 = 0 then
      fields @ [ field g (pick g [| "op"; "id"; "key"; "format" |]) (gen_json g ~ws 1) ]
    else fields
  in
  let arr = Array.of_list fields in
  for i = Array.length arr - 1 downto 1 do
    let j = Prng.Rng.int g (i + 1) in
    let t = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- t
  done;
  let line =
    ws g ^ "{" ^ ws g ^ String.concat (ws g ^ "," ^ ws g) (Array.to_list arr) ^ ws g ^ "}"
    ^ ws g
  in
  let line =
    match Prng.Rng.int g 12 with
    | 0 -> gen_json g ~ws 0  (* a value other than an object *)
    | 1 -> line ^ pick g [| "x"; "}"; ","; "{}" |]  (* trailing input *)
    | _ -> line
  in
  (* Damage: byte flips and truncations. *)
  let damage line =
    let n = String.length line in
    if n = 0 then line
    else
      match Prng.Rng.int g 3 with
      | 0 -> String.sub line 0 (Prng.Rng.int g n)
      | 1 ->
          let b = Bytes.of_string line in
          Bytes.set b (Prng.Rng.int g n)
            (pick g
               [| '{'; '}'; '"'; '\\'; ':'; ','; '['; ']'; 'u'; '0'; 'e'; '-'; '.';
                  ' '; 't'; Char.chr (Prng.Rng.int g 256) |]);
          if framing then String.map (fun c -> if c = '\n' then ' ' else c) (Bytes.to_string b)
          else Bytes.to_string b
      | _ ->
          let k = Prng.Rng.int g n in
          String.sub line k (n - k)
  in
  let rec damaged line k = if k = 0 then line else damaged (damage line) (k - 1) in
  if Prng.Rng.int g 3 = 0 then damaged line (1 + Prng.Rng.int g 3) else line

let show_decoded = function
  | Error msg -> Printf.sprintf "Error %S" msg
  | Ok (id, req) ->
      Printf.sprintf "Ok (%s, %s)"
        (match id with None -> "None" | Some i -> Printf.sprintf "Some %d" i)
        (match req with
        | Serve.Wire.Event ev -> Engine.Event.name ev
        | Serve.Wire.Ping -> "ping"
        | Serve.Wire.Stats Serve.Wire.Stats_json -> "stats json"
        | Serve.Wire.Stats Serve.Wire.Stats_prom -> "stats prom")

let qcheck_wire_oracle =
  QCheck.Test.make ~name:"wire decoder matches the Json-tree oracle" ~count:400
    QCheck.small_int (fun seed ->
      let g = rng_of (seed + 0x3E1) in
      for _ = 1 to 50 do
        let line = gen_wire_line g in
        let got = Serve.Wire.parse line and want = Wire_oracle.parse line in
        if got <> want then
          QCheck.Test.fail_reportf "line %S: decoder %s, oracle %s" line
            (show_decoded got) (show_decoded want)
      done;
      true)

(* {2 The JSON parser against the independent oracle} *)

(* Number literals beside [gen_int_lit]'s: fractions, exponents, values
   out of the float range, and text the number scanner takes in but no
   conversion reads. *)
let json_numbers =
  [| "1.5"; "-0.0"; "2.5e-3"; "1E+9"; "6.02e23"; "12."; "0.1e-400"; "1e999";
     "-1e999"; "1e"; "1.2.3"; "-"; "1-2"; "2e+-1"; "0x1"; "--1" |]

(* 17 to 20 digits: around the 19 of a native int's range. *)
let gen_long_int g =
  let k = 17 + Prng.Rng.int g 4 in
  (if Prng.Rng.bool g then "-" else "")
  ^ String.init k (fun i ->
        Char.chr (Char.code '0' + if i = 0 then 1 + Prng.Rng.int g 9 else Prng.Rng.int g 10))

let json_texts =
  Array.append wire_texts
    [| "\\uD83D\\uDE00"; "\\u00E9\\u4e2d"; "\\u0000"; "tab\there"; "\x01\x1f" |]

let gen_text g =
  if Prng.Rng.bool g then "\"" ^ pick g json_texts ^ "\""
  else json_string g (pick g [| ""; "op"; "x y"; "caf\xc3\xa9"; "a\"b\\c"; "\xf0\x9f\x98\x80" |])

(* A document: every scalar kind, strings with escapes in keys and
   values, nesting up to six deep, whitespace between any tokens. *)
let rec gen_doc g depth =
  let ws () = pick g [| ""; ""; " "; "\t"; "\n"; "\r\n"; "  " |] in
  let items gen = String.concat (ws () ^ "," ^ ws ()) (List.init (1 + Prng.Rng.int g 4) gen) in
  match Prng.Rng.int g (if depth >= 5 then 5 else 7) with
  | 0 -> gen_int_lit g
  | 1 -> if Prng.Rng.bool g then gen_long_int g else pick g json_numbers
  | 2 -> pick g [| "true"; "false"; "null" |]
  | 3 -> gen_text g
  | 4 -> pick g [| "[]"; "{}"; "[ ]"; "{\n}" |]
  | 5 -> "[" ^ ws () ^ items (fun _ -> gen_doc g (depth + 1)) ^ ws () ^ "]"
  | _ ->
      "{" ^ ws ()
      ^ items (fun _ -> gen_text g ^ ws () ^ ":" ^ ws () ^ gen_doc g (depth + 1))
      ^ ws () ^ "}"

(* Byte flips, truncations and insertions. *)
let mutate g doc =
  let n = String.length doc in
  let byte () =
    pick g
      [| '{'; '}'; '['; ']'; '"'; '\\'; ':'; ','; 'u'; 'D'; '0'; '9'; 'e'; '.'; '-';
         '+'; ' '; 'n'; 't'; Char.chr (Prng.Rng.int g 256) |]
  in
  match Prng.Rng.int g 3 with
  | 0 -> String.sub doc 0 (Prng.Rng.int g (n + 1))
  | 1 when n > 0 ->
      let b = Bytes.of_string doc in
      Bytes.set b (Prng.Rng.int g n) (byte ());
      Bytes.to_string b
  | _ ->
      let k = Prng.Rng.int g (n + 1) in
      String.sub doc 0 k ^ String.make 1 (byte ()) ^ String.sub doc k (n - k)

let qcheck_json_oracle =
  QCheck.Test.make ~name:"Json.of_string matches the independent oracle" ~count:400
    QCheck.small_int (fun seed ->
      let g = rng_of (seed + 0x150) in
      for _ = 1 to 50 do
        let doc = gen_doc g 0 in
        let rec damaged doc k = if k = 0 then doc else damaged (mutate g doc) (k - 1) in
        let doc = if Prng.Rng.bool g then doc else damaged doc (1 + Prng.Rng.int g 3) in
        match (Common.Json.of_string doc, Json_oracle.of_string doc) with
        | Ok a, Ok b when a = b -> ()
        | Error a, Error b when String.equal a b -> ()
        | got, want ->
            let show = function
              | Ok v -> "Ok " ^ Common.Json.to_string ~indent:0 v
              | Error e -> "Error " ^ e
            in
            QCheck.Test.fail_reportf "document %S: parser %s, oracle %s" doc (show got)
              (show want)
      done;
      true)

(* {2 In-place framing on a live daemon} *)

(* A client socket whose reads give up after 5 s, so that a daemon
   that withholds a reply fails the test instead of hanging it. *)
let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let rec send_all fd s off =
  if off < String.length s then
    send_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Read until [lines] newlines have arrived, or to EOF: the bytes read. *)
let recv_lines fd lines =
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let rec go seen =
    if seen < lines then
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          Alcotest.failf "no reply within 5 s after %S" (Buffer.contents buf)
      | 0 -> ()
      | k ->
          Buffer.add_subbytes buf chunk 0 k;
          let nl = ref 0 in
          for i = 0 to k - 1 do
            if Bytes.get chunk i = '\n' then incr nl
          done;
          go (seen + !nl)
  in
  go 0;
  Buffer.contents buf

let count_newlines s =
  String.fold_left (fun k c -> if c = '\n' then k + 1 else k) 0 s

(* A client's side of a framing script. *)
type framing_step =
  | Send of int * string  (* client 0 or 1, bytes *)
  | Read_replies  (* client 1 reads every reply owed so far *)
  | Send_and_vanish of string  (* client 1's last bytes, then close *)

(* Split [s] at random offsets into pieces of 1 to 48 bytes. *)
let random_pieces g s =
  let n = String.length s in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let len = min (n - pos) (1 + Prng.Rng.int g 48) in
      go (pos + len) (String.sub s pos len :: acc)
  in
  go 0 []

(* Merge two step lists in a random interleaving that keeps each in
   order. *)
let rec interleave g xs ys =
  match (xs, ys) with
  | [], rest | rest, [] -> rest
  | x :: xs', y :: ys' ->
      if Prng.Rng.bool g then x :: interleave g xs' ys else y :: interleave g xs ys'

(* The replies a clean twin gives: every complete line in the order the
   daemon completes it, each decoded by the oracle and applied to a
   cluster of its own.  Returns client 0's reply bytes, client 1's up to
   its [Read_replies], and the twin cluster. *)
let framing_twin config steps =
  let twin = Serve.Cluster.create config in
  let pending = [| ""; "" |] and out = [| Buffer.create 256; Buffer.create 256 |] in
  let owed1 = ref "" in
  let feed c bytes =
    let parts = String.split_on_char '\n' (pending.(c) ^ bytes) in
    let rec go = function
      | [ rest ] -> pending.(c) <- rest
      | line :: rest ->
          let n = String.length line in
          let line = if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line in
          (if line <> "" then
             let buf = out.(c) in
             match Wire_oracle.parse line with
             | Error msg -> Serve.Wire.add_error buf ~id:None msg
             | Ok (id, Serve.Wire.Ping) -> Serve.Wire.add_pong buf ~id
             | Ok (id, Serve.Wire.Event ev) ->
                 Serve.Wire.add_reply buf ~id (Serve.Cluster.apply twin ev)
             | Ok (_, Serve.Wire.Stats _) -> Alcotest.fail "stats in a framing script");
          go rest
      | [] -> ()
    in
    go parts
  in
  List.iter
    (function
      | Send (c, bytes) -> feed c bytes
      | Read_replies -> owed1 := Buffer.contents out.(1)
      | Send_and_vanish bytes -> feed 1 bytes)
    steps;
  (Buffer.contents out.(0), !owed1, twin)

let qcheck_wire_framing =
  QCheck.Test.make
    ~name:"framing survives arbitrary splits and a vanishing client" ~count:20
    (* A seed has no meaningful shrink. *)
    QCheck.(set_shrink Shrink.nil small_int)
    (fun seed ->
      let g = rng_of (seed + 0xF4A) in
      let config = mk_config ~n:16 ~shards:2 () in
      let rec gen_line () =
        let line =
          match Prng.Rng.int g 12 with
          | 0 -> pick g [| ""; "\r" |]
          | 1 ->
              String.init (Prng.Rng.int g 40) (fun _ ->
                  match Char.chr (Prng.Rng.int g 256) with '\n' -> ' ' | c -> c)
          | _ -> gen_wire_line ~framing:true g
        in
        match Wire_oracle.parse line with
        | Ok (_, Serve.Wire.Stats _) -> gen_line ()
        | _ -> line
      in
      let stream k =
        String.concat ""
          (List.init k (fun _ -> gen_line () ^ pick g [| "\n"; "\n"; "\n"; "\r\n" |]))
      in
      let a = stream (5 + Prng.Rng.int g 20) in
      (* Client 1 reads its replies at a random byte of its stream,
         then sends the rest and vanishes, possibly mid-line. *)
      let b =
        let full = stream (3 + Prng.Rng.int g 12) in
        String.sub full 0 (Prng.Rng.int g (String.length full + 1))
      in
      let cut = Prng.Rng.int g (String.length b + 1) in
      let b_tail = random_pieces g (String.sub b cut (String.length b - cut)) in
      let steps =
        interleave g
          (List.map (fun p -> Send (0, p)) (random_pieces g a))
          (List.map (fun p -> Send (1, p)) (random_pieces g (String.sub b 0 cut))
          @ [ Read_replies ]
          @
          match List.rev b_tail with
          | [] -> [ Send_and_vanish "" ]
          | last :: rest ->
              List.rev_map (fun p -> Send (1, p)) rest @ [ Send_and_vanish last ])
      in
      let want0, want1, twin = framing_twin config steps in
      let got0 = ref "" and got1 = ref "" in
      with_dir (fun state ->
          with_daemon ~state config (fun path ->
              let fds = [| connect_unix path; connect_unix path |] in
              let sync = connect_unix path in
              (* A ping answered on a third connection proves that the
                 daemon has read every byte sent before it, so each send
                 below is exactly one read. *)
              let settle () =
                send_all sync "{\"op\":\"ping\"}\n" 0;
                ignore (recv_lines sync 1)
              in
              List.iter
                (function
                  | Send (c, bytes) ->
                      send_all fds.(c) bytes 0;
                      settle ()
                  | Read_replies -> got1 := recv_lines fds.(1) (count_newlines want1)
                  | Send_and_vanish bytes ->
                      send_all fds.(1) bytes 0;
                      Unix.close fds.(1);
                      settle ())
                steps;
              got0 := recv_lines fds.(0) (count_newlines want0);
              Unix.close fds.(0);
              Unix.close sync);
          let store = store_exn ~dir:state config in
          let same_state =
            Serve.Cluster.state (Serve.Store.cluster store) = Serve.Cluster.state twin
          in
          Serve.Store.close store;
          if !got0 <> want0 then
            QCheck.Test.fail_reportf "client 0 read %S, the twin %S" !got0 want0;
          if !got1 <> want1 then
            QCheck.Test.fail_reportf "client 1 read %S, the twin %S" !got1 want1;
          same_state))

(* A line that reaches the cap without a newline is answered with one
   typed error after the client's earlier replies; the client then
   reads EOF, and other clients are served throughout. *)
let test_line_cap () =
  with_daemon (mk_config ~n:16 ~shards:2 ()) (fun path ->
      let probe_line = "{\"op\":\"probe\"}\n" in
      let other = connect_unix path in
      let probe () =
        send_all other probe_line 0;
        recv_lines other 1
      in
      let before = probe () in
      (* The longest line served: 65,535 bytes before its newline. *)
      let head = {|{"op":"ping","pad":"|} and tail = {|"}|} in
      let longest =
        head ^ String.make (65535 - String.length head - String.length tail) 'a' ^ tail
      in
      send_all other (longest ^ "\n") 0;
      Alcotest.(check string) "a 65,535-byte line is served"
        "{\"ok\":true,\"reply\":\"pong\"}\n" (recv_lines other 1);
      let hostile = connect_unix path in
      send_all hostile ("{\"op\":\"ping\"}\n" ^ String.make (1 lsl 20) 'x') 0;
      let got = recv_lines hostile max_int in
      Alcotest.(check string) "pong, one typed error, then EOF"
        "{\"ok\":true,\"reply\":\"pong\"}\n\
         {\"ok\":false,\"reply\":\"error\",\"error\":\"request line reaches \
         65536 bytes without a newline\"}\n"
        got;
      Alcotest.(check string) "other client still served" before (probe ());
      Unix.close hostile;
      Alcotest.(check string) "and after the hang-up" before (probe ());
      Unix.close other)

(* A client that sends requests and never reads its replies is held
   back once the daemon holds about 1 MiB of its replies, and every other
   client is served meanwhile.  The stalled client is closed before the
   daemon stops, so a daemon that blocks on it fails the test rather
   than hanging it. *)
let test_stalled_reader () =
  with_daemon (mk_config ~n:16 ~shards:2 ()) (fun path ->
      let stalled = connect_unix path in
      let offered = 16 lsl 20 in
      let sent =
        Fun.protect
          ~finally:(fun () -> Unix.close stalled)
          (fun () ->
            (* A send that makes no progress for 0.5 s gives up. *)
            Unix.setsockopt_float stalled Unix.SO_SNDTIMEO 0.5;
            let batch = String.concat "" (List.init 4096 (fun _ -> "{\"op\":\"probe\"}\n")) in
            let rec offer sent =
              if sent >= offered then sent
              else
                match Unix.write_substring stalled batch 0 (String.length batch) with
                | k -> offer (sent + k)
                | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> sent
            in
            let sent = offer 0 in
            let other = connect_unix path in
            send_all other "{\"op\":\"ping\"}\n" 0;
            let got = recv_lines other 1 in
            Unix.close other;
            Alcotest.(check string) "a ping beside the stalled client" "{\"ok\":true,\"reply\":\"pong\"}\n"
              got;
            sent)
      in
      Alcotest.(check bool)
        (Printf.sprintf "the stalled client was held back (%d of %d bytes taken)" sent offered)
        true
        (sent > 0 && sent < offered))

(* A client that keeps sending and reads 64 KiB every 10 ms, slower
   than the daemon answers, leaves the daemon holding a bounded share of
   its replies however many it reads: the heap (the daemon runs in this
   process) grows by less than 8 MiB while 16 MiB of replies pass. *)
let test_slow_reader () =
  with_daemon (mk_config ~n:16 ~shards:2 ()) (fun path ->
      let heap () =
        Gc.full_major ();
        (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)
      in
      let h0 = heap () in
      let fd = connect_unix path in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.set_nonblock fd;
          let batch = String.concat "" (List.init 4096 (fun _ -> "{\"op\":\"probe\"}\n")) in
          let chunk = Bytes.create 65536 in
          let deadline = Unix.gettimeofday () +. 30. in
          (* [off] keeps the sent lines whole across partial writes. *)
          let rec go off received =
            if received < 16 lsl 20 then begin
              if Unix.gettimeofday () > deadline then
                Alcotest.failf "only %d reply bytes within 30 s" received;
              let off =
                match Unix.write_substring fd batch off (String.length batch - off) with
                | k -> (off + k) mod String.length batch
                | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> off
              in
              let k =
                match Unix.read fd chunk 0 (Bytes.length chunk) with
                | k -> k
                | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
              in
              Unix.sleepf 0.01;
              go off (received + k)
            end
          in
          go 0 0;
          let grown = heap () - h0 in
          Alcotest.(check bool)
            (Printf.sprintf "the heap grew by %d bytes while 16 MiB of replies were read" grown)
            true (grown < 8 lsl 20)))

(* A client that sends 3,000 occupancy requests at n = 16,384 and never
   reads adds one of them to each round, so the daemon stops framing it
   once it holds about 1 MiB of its replies: the heap grows by less than
   16 MiB, where one read used to build all 3,000 n-int replies.  Another
   client is served meanwhile, and a client that reads gets every reply
   in order. *)
let test_occupancy_flood () =
  with_daemon (mk_config ~n:16384 ~shards:1 ()) (fun path ->
      let heap () =
        Gc.full_major ();
        (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8)
      in
      let h0 = heap () in
      let flood = connect_unix path in
      Fun.protect
        ~finally:(fun () -> Unix.close flood)
        (fun () ->
          Unix.setsockopt_float flood Unix.SO_SNDTIMEO 5.0;
          send_all flood (String.concat "" (List.init 3000 (fun _ -> "{\"op\":\"occupancy\"}\n"))) 0;
          Unix.sleepf 0.5;
          let other = connect_unix path in
          send_all other "{\"op\":\"ping\"}\n" 0;
          Alcotest.(check string) "a ping beside the flood" "{\"ok\":true,\"reply\":\"pong\"}\n"
            (recv_lines other 1);
          Unix.close other;
          let grown = heap () - h0 in
          Alcotest.(check bool)
            (Printf.sprintf "the heap grew by %d bytes under the flood" grown)
            true (grown < 16 lsl 20);
          let reader = connect_unix path in
          let k = 200 in
          let op i = if i mod 2 = 0 then "occupancy" else "probe" in
          send_all reader
            (String.concat ""
               (List.init k (fun i -> Printf.sprintf "{\"op\":%S,\"id\":%d}\n" (op i) i)))
            0;
          let got = String.split_on_char '\n' (recv_lines reader k) in
          Unix.close reader;
          Alcotest.(check int) "every reply" k (List.length got - 1);
          List.iteri
            (fun i line ->
              if i < k then begin
                let want =
                  Printf.sprintf "{\"id\":%d,\"ok\":true,\"reply\":\"%s\"" i
                    (if i mod 2 = 0 then "loads" else "level")
                in
                if not (String.starts_with ~prefix:want line) then
                  Alcotest.failf "reply %d reads %S" i
                    (String.sub line 0 (min 60 (String.length line)))
              end)
            got))

(* Read to EOF, taking at most 64 KiB every [pause] seconds. *)
let recv_to_eof ~pause fd =
  let buf = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.failf "no EOF within 5 s after %d bytes" (Buffer.length buf)
    | 0 -> Buffer.contents buf
    | k ->
        Buffer.add_subbytes buf chunk 0 k;
        Unix.sleepf pause;
        go ()
  in
  go ()

(* [got] holds [k] occupancy replies with ids 0 .. k-1, in order, then
   the lines [rest]. *)
let check_occupancy_replies k ~rest got =
  let lines = String.split_on_char '\n' got in
  Alcotest.(check int) "every reply" (k + List.length rest + 1) (List.length lines);
  List.iteri
    (fun i line ->
      let want = Printf.sprintf "{\"id\":%d,\"ok\":true,\"reply\":\"loads\"" i in
      if i < k && not (String.starts_with ~prefix:want line) then
        Alcotest.failf "reply %d reads %S" i
          (String.sub line 0 (min 60 (String.length line))))
    lines;
  Alcotest.(check (list string)) "then" (rest @ [ "" ])
    (List.filteri (fun i _ -> i >= k) lines)

let occupancy_lines k =
  String.concat ""
    (List.init k (fun i -> Printf.sprintf "{\"op\":\"occupancy\",\"id\":%d}\n" i))

(* A client that sends its requests and half-closes its write side
   gets every reply before EOF.  One reads 100 occupancy replies at
   n = 16,384, several times what its socket holds, 64 KiB every 2 ms.
   Another is refused at the line cap after 20 occupancy requests, which
   fill its socket first, and reads nothing until the daemon has seen
   its EOF: it still gets its error reply, after the others. *)
let test_half_closed_client () =
  with_daemon (mk_config ~n:16384 ~shards:1 ()) (fun path ->
      (* Send [request], half-close, sleep [wait] s, then read to EOF. *)
      let half_closed request ~wait ~pause =
        let fd = connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            send_all fd request 0;
            Unix.shutdown fd Unix.SHUTDOWN_SEND;
            Unix.sleepf wait;
            recv_to_eof ~pause fd)
      in
      check_occupancy_replies 100 ~rest:[]
        (half_closed (occupancy_lines 100) ~wait:0. ~pause:0.002);
      check_occupancy_replies 20
        ~rest:
          [
            "{\"ok\":false,\"reply\":\"error\",\"error\":\"request line \
             reaches 65536 bytes without a newline\"}";
          ]
        (half_closed (occupancy_lines 20 ^ String.make 70_000 'x') ~wait:0.5 ~pause:0.))

(* The load client's failure count reads "ok":false in place, with or
   without an id before it, and allocates nothing per reply. *)
let test_reply_failed () =
  let line f =
    let buf = Buffer.create 64 in
    f buf;
    Buffer.contents buf
  in
  let cases =
    [
      ("level", false, line (fun b -> Serve.Wire.add_reply b ~id:None (Engine.Event.Level 3)));
      ( "placed with id", false,
        line (fun b -> Serve.Wire.add_reply b ~id:(Some 7) (Engine.Event.Placed 17)) );
      ( "rejected", true,
        line (fun b -> Serve.Wire.add_reply b ~id:None (Engine.Event.Rejected "empty")) );
      ( "rejected with id", true,
        line (fun b -> Serve.Wire.add_reply b ~id:(Some (-4)) (Engine.Event.Rejected "empty")) );
      ("error", true, line (fun b -> Serve.Wire.add_error b ~id:(Some 1) "unknown op \"x\""));
      ("pong", false, line (fun b -> Serve.Wire.add_pong b ~id:None));
      ("cut marker", false, "{\"ok\":fals");
      ("empty", false, "");
    ]
  in
  List.iter
    (fun (name, want, l) -> Alcotest.(check bool) name want (Serve.Load_gen.reply_failed l))
    cases;
  let _, _, rejected = List.nth cases 3 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Sys.opaque_identity (Serve.Load_gen.reply_failed rejected))
  done;
  Alcotest.(check bool) "no allocation per reply" true (Gc.minor_words () -. w0 < 100.)

(* The decoder's one limit beyond the JSON grammar: objects and arrays
   nest at most 64 deep, the request object included.  The oracle has
   no limit. *)
let test_wire_nesting_limit () =
  let nested k = {|{"x":|} ^ String.make k '[' ^ String.make k ']' ^ {|,"op":"ping"}|} in
  Alcotest.(check string) "64 deep decodes" "Ok (None, ping)"
    (show_decoded (Serve.Wire.parse (nested 63)));
  Alcotest.(check string) "65 deep is refused at its 65th opening"
    "Error \"bad json: nesting deeper than 64 at offset 68\""
    (show_decoded (Serve.Wire.parse (nested 64)));
  Alcotest.(check string) "the oracle has no limit" "Ok (None, ping)"
    (show_decoded (Wire_oracle.parse (nested 64)))

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
        qcheck_state_roundtrip;
        qcheck_sampled_state_roundtrip;
        qcheck_rbb_state_roundtrip;
        qcheck_kill_and_restore;
        qcheck_sampled_kill_and_restore;
        qcheck_rbb_kill_and_restore;
        qcheck_torn_tail;
      ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_wire_oracle; qcheck_wire_framing ]
  @ [
      Alcotest.test_case "a line over the cap is refused" `Quick test_line_cap;
      Alcotest.test_case "load client reads ok:false in place" `Quick
        test_reply_failed;
      Alcotest.test_case "wire decoder nesting limit" `Quick
        test_wire_nesting_limit;
      Alcotest.test_case "a client that stops reading stalls nobody" `Quick
        test_stalled_reader;
      Alcotest.test_case "a slow reader's replies are held in bounded memory" `Quick
        test_slow_reader;
      Alcotest.test_case "an occupancy flood is held in bounded memory" `Quick
        test_occupancy_flood;
      Alcotest.test_case "a half-closed client gets every reply" `Quick
        test_half_closed_client;
      Alcotest.test_case "cluster replies pinned across refactors" `Quick
        test_pinned_replies;
    ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_json_oracle ]
