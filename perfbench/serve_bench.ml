(* The serve-read workload: the real `repro serve` daemon, restored from
   a crash-state fixture and driven over its Unix socket by this process
   as a closed-loop, single-connection client.

   One run:
   1. builds (once per build of this program) the fixture: the state
      directory a kill -9 leaves behind — a snapshot plus an uncompacted
      journal tail — written through the public Store API;
   2. encodes the request stream from the seed into flat per-batch
      buffers, and keeps the events they encode, before any timing;
   3. launches the daemon five times over the run, each on a fresh
      copy of the fixture, timing exec to the read of its banner
      (restore = snapshot load + journal replay); the third launch
      serves the timed window;
   4. sends batches back to back in slices of the window, recording
      every reply byte and the latency of every request (write of its
      batch to the read that returned its reply line);
   5. after each slice, replays the same events in-process on a second
      copy of the fixture, through the public calls the daemon makes
      each round, and compares every reply byte (with --trace 1, a third
      copy replays them inside layer spans);
   6. scrapes `stats`, reads CPU time and VmHWM from /proc, stops the
      daemon with SIGTERM and reads its GC totals.

   Slicing spreads the measured time over the whole run, which averages
   more of the host's speed drift, and bounds the reply bytes held at
   once. *)

module Vec = Sample.Vec

let cluster_config =
  { Serve.Cluster.n = 16384; m = 32768; shards = 4;
    process = Serve.Process.Sequential; scenario = Core.Scenario.A;
    rule = Core.Scheduling_rule.abku 2; repr = Core.Repr.Array_backed;
    seed = 0x5EED }

(* Snapshot cadence, in mutations: every timed run holds several
   snapshot cuts and journal compactions. *)
let snapshot_every = 131072

(* The fixture: mutations before the snapshot, and the journal tail
   after it.  The tail is sized so that restore, not process start,
   dominates setup_s. *)
let fixture_head = 65536
let fixture_tail = 1_000_000
let fixture_seed = 0xF17

let name = "serve-read"

(* Requests per batch. *)
let batch = 64

(* Distinct requests encoded per run; the client cycles through them. *)
let distinct_requests = 1 lsl 19

(* One batch as sent, and the events its lines encode. *)
type batch = { wire : Bytes.t; events : Engine.Event.t array }

(* 5% insert, 5% remove, 10% watermark, 80% probe. *)
let add_request buf g =
  let u = Prng.Rng.float g in
  if u < 0.05 then begin
    let key = Prng.Rng.int g 1_000_000_000 in
    Printf.bprintf buf "{\"op\":\"insert\",\"key\":%d}\n" key;
    Engine.Event.Insert key
  end
  else if u < 0.10 then begin
    Buffer.add_string buf "{\"op\":\"remove\"}\n";
    Engine.Event.Remove
  end
  else if u < 0.20 then begin
    Buffer.add_string buf "{\"op\":\"watermark\"}\n";
    Engine.Event.Watermark
  end
  else begin
    Buffer.add_string buf "{\"op\":\"probe\"}\n";
    Engine.Event.Probe
  end

let encode_batches ~seed =
  let g = Prng.Rng.create ~seed () in
  Array.init (distinct_requests / batch) (fun _ ->
      let buf = Buffer.create (batch * 32) in
      let events = Array.init batch (fun _ -> add_request buf g) in
      { wire = Buffer.to_bytes buf; events })

(* ---- fixture ---- *)

let apply_mutations store g count =
  let batch = 512 in
  let left = ref count in
  while !left > 0 do
    let k = min batch !left in
    let events =
      Array.init k (fun _ ->
          if Prng.Rng.bool g then
            Engine.Event.Insert (Prng.Rng.int g 1_000_000_000)
          else Engine.Event.Remove)
    in
    ignore (Serve.Store.apply_batch store events);
    left := !left - k
  done

let open_store dir =
  match
    Serve.Store.open_ ~snapshot_every:max_int ~dir cluster_config
  with
  | Ok s -> s
  | Error msg -> failwith ("perfbench: cannot open the store: " ^ msg)

(* The fixture is keyed by this executable's digest, so a change to the
   Store code it links rebuilds it. *)
let ensure_fixture ~work =
  let key = Digest.to_hex (Digest.file Sys.executable_name) in
  let dir = Filename.concat work ("fixture-" ^ key) in
  if not (Sys.file_exists (Filename.concat dir "journal.bin")) then begin
    Array.iter
      (fun f ->
        if String.length f > 8 && String.sub f 0 8 = "fixture-" then
          Proc.rm_rf (Filename.concat work f))
      (Sys.readdir work);
    let tmp = dir ^ ".tmp" in
    let store = open_store tmp in
    let g = Prng.Rng.create ~seed:fixture_seed () in
    apply_mutations store g fixture_head;
    Serve.Store.snapshot_now store;
    apply_mutations store g fixture_tail;
    (* No close: the directory stays as a kill -9 leaves it.  Every
       batch was flushed to the journal by apply_batch. *)
    Unix.rename tmp dir
  end;
  dir

(* ---- the daemon ---- *)

let launch ~repro ~dir ~sock ~stderr =
  Proc.spawn ~env:(Proc.gc_env ()) ~stderr repro
    [ "serve"; "-n"; string_of_int cluster_config.n; "-m";
      string_of_int cluster_config.m; "--shards";
      string_of_int cluster_config.shards; "--seed";
      string_of_int cluster_config.seed; "--rule"; "abku:2"; "--scenario"; "A";
      "--domains"; "1"; "--dir"; dir; "--snapshot-every";
      string_of_int snapshot_every; "--listen"; "unix:" ^ sock ]

let ready_banner c =
  let needle = "listening on" in
  let n = String.length needle and l = String.length c.Proc.ready in
  let rec at i = i + n <= l && (String.sub c.Proc.ready i n = needle || at (i + 1)) in
  if not (at 0) then failwith ("unexpected daemon banner: " ^ c.Proc.ready)

(* ---- the client ---- *)

(* Reply bytes, stored as read: chunks of [chunk_bytes], one segment
   per batch.  A batch never straddles two chunks. *)
let chunk_bytes = 1 lsl 24
let batch_reserve = 1 lsl 18

type window = {
  sent : Vec.t;  (** Batch index (into the encoded batches) per batch sent. *)
  seg_chunk : Vec.t;
  seg_off : Vec.t;
  seg_len : Vec.t;
  mutable chunks : Bytes.t array;
  lat_ns : Vec.t;  (** Latency of the requests completed by one read, ... *)
  lat_count : Vec.t;  (** ... how many it completed ... *)
  lat_end : Vec.t;  (** ... and when, since the window opened. *)
  mutable ops : int;
  mutable wall_s : float;
  mutable wait_s : float;
  mutable client_cpu_s : float;
  mutable daemon_cpu_s : float;
}

let count_newlines b off len =
  let c = ref 0 in
  for i = off to off + len - 1 do
    if Bytes.unsafe_get b i = '\n' then incr c
  done;
  !c

let rec write_all fd b off len =
  if len > 0 then begin
    let k = Unix.write fd b off len in
    write_all fd b (off + k) (len - k)
  end

(* One slice of the timed window, sending batches [first], [first + 1],
   ... of the cyclic stream. *)
let run_window fd batches ~first ~seconds ~daemon =
  let w =
    { sent = Vec.create (); seg_chunk = Vec.create (); seg_off = Vec.create ();
      seg_len = Vec.create (); chunks = [| Bytes.create chunk_bytes |];
      lat_ns = Vec.create (); lat_count = Vec.create (); lat_end = Vec.create ();
      ops = 0; wall_s = 0.;
      wait_s = 0.; client_cpu_s = 0.; daemon_cpu_s = 0. }
  in
  let nb = Array.length batches in
  let chunk = ref w.chunks.(0) and ci = ref 0 and pos = ref 0 in
  let wait_ns = ref 0L in
  let cpu0 = Proc.self_cpu_seconds () and dcpu0 = Proc.cpu_seconds daemon in
  let start = Proc.now_ns () in
  let deadline = Int64.add start (Int64.of_float (seconds *. 1e9)) in
  let i = ref 0 in
  let last = ref start in
  while Int64.compare !last deadline < 0 do
    if chunk_bytes - !pos < batch_reserve then begin
      chunk := Bytes.create chunk_bytes;
      w.chunks <- Array.append w.chunks [| !chunk |];
      incr ci;
      pos := 0
    end;
    let b = batches.((first + !i) mod nb).wire in
    let seg = !pos in
    let t0 = Proc.now_ns () in
    write_all fd b 0 (Bytes.length b);
    let remaining = ref batch in
    while !remaining > 0 do
      let room = min 65536 (chunk_bytes - !pos) in
      if room = 0 then failwith "perfbench: a batch's replies overflow a chunk";
      let r0 = Proc.now_ns () in
      let k = Unix.read fd !chunk !pos room in
      let r1 = Proc.now_ns () in
      wait_ns := Int64.add !wait_ns (Int64.sub r1 r0);
      if k = 0 then failwith "perfbench: the daemon closed the connection";
      let c = count_newlines !chunk !pos k in
      pos := !pos + k;
      remaining := !remaining - c;
      if c > 0 then begin
        Vec.push w.lat_ns (Int64.to_int (Int64.sub r1 t0));
        Vec.push w.lat_count c;
        Vec.push w.lat_end (Int64.to_int (Int64.sub r1 start))
      end;
      last := r1
    done;
    Vec.push w.sent ((first + !i) mod nb);
    Vec.push w.seg_chunk !ci;
    Vec.push w.seg_off seg;
    Vec.push w.seg_len (!pos - seg);
    w.ops <- w.ops + batch;
    incr i
  done;
  w.wall_s <- Proc.seconds_between start !last;
  w.client_cpu_s <- Proc.self_cpu_seconds () -. cpu0;
  w.daemon_cpu_s <- Proc.cpu_seconds daemon -. dcpu0;
  w.wait_s <- Int64.to_float !wait_ns /. 1e9;
  w

let segment w j =
  Bytes.sub_string
    w.chunks.(Vec.get w.seg_chunk j)
    (Vec.get w.seg_off j) (Vec.get w.seg_len j)

(* One request/reply exchange outside the timed window. *)
let request_line fd line =
  write_all fd (Bytes.of_string line) 0 (String.length line);
  let buf = Buffer.create 4096 and scratch = Bytes.create 65536 in
  let rec go () =
    let k = Unix.read fd scratch 0 (Bytes.length scratch) in
    if k = 0 then failwith "perfbench: the daemon closed the connection";
    Buffer.add_subbytes buf scratch 0 k;
    if count_newlines scratch 0 k = 0 then go ()
  in
  go ();
  Buffer.contents buf

let stats_counts fd =
  match Experiment.Json.of_string (String.trim (request_line fd "{\"op\":\"stats\"}\n")) with
  | Ok j ->
      let int k =
        match Experiment.Json.member k j with
        | Some (Experiment.Json.Int v) -> v
        | _ -> failwith ("perfbench: stats reply lacks " ^ k)
      in
      (int "events", int "rounds")
  | Error e -> failwith ("perfbench: bad stats reply: " ^ e)

(* ---- the in-process replay ---- *)

let layer_names =
  [ "serve.batch"; "wire.parse"; "journal.append"; "journal.flush";
    "cluster.apply"; "wire.reply"; "store.snapshot" ]

(* The daemon's state, rebuilt in-process, replaying the stream slice by
   slice.  A replayer that decodes parses every request line with
   Wire.parse, as the daemon does; one that does not applies the events
   kept at encoding, which gives the same replies in half the time.  A
   traced replayer spans one batch in [trace_every] (0: none) and every
   snapshot; [traced_requests] counts the requests of the spanned
   batches, the base of the per-request layer times. *)
type replayer = {
  store : Serve.Store.t;
  cluster : Serve.Cluster.t;
  fp : Serve.Journal.fingerprint;
  jpath : string;
  mutable writer : Serve.Journal.Writer.t;
  mutable last_snapshot : int;
  out : Buffer.t;
  decode : bool;
  trace_every : int;
  restore_s : float;
  replayed_events : int;
  mutable batches : int;
  mutable failed : int;
  mutable replay_s : float;
  mutable requests : int;
  mutable traced_requests : int;
  mutable request_bytes : int;
  mutable reply_bytes : int;
  mutable journaled_events : int;
  mutable journal_bytes : int;
}

let replayer ~fixture ~dir ~decode ~trace_every =
  Proc.copy_dir fixture dir;
  let replayed_events =
    Serve.Journal.fold ~path:(Filename.concat dir "journal.bin") ~init:0
      ~f:(fun acc ~seq:_ evs -> acc + Array.length evs)
  in
  let t_open = Proc.now_ns () in
  let store = open_store dir in
  let restore_s = Proc.seconds_between t_open (Proc.now_ns ()) in
  let cluster = Serve.Store.cluster store in
  let fp = Serve.Journal.fingerprint_of_config cluster_config in
  let jpath = Filename.concat dir "replay-journal.bin" in
  { store; cluster; fp; jpath; writer = Serve.Journal.Writer.create ~path:jpath fp;
    last_snapshot = Serve.Cluster.seq cluster; out = Buffer.create 65536;
    decode; trace_every; restore_s; replayed_events; batches = 0; failed = 0;
    replay_s = 0.; requests = 0; traced_requests = 0; request_bytes = 0;
    reply_bytes = 0; journaled_events = 0; journal_bytes = 0 }

let split_lines b =
  let s = Bytes.unsafe_to_string b in
  let lines = String.split_on_char '\n' s in
  Array.of_list (List.filter (fun l -> l <> "") lines)

(* Count the requests of one batch whose reply line differs from the
   expected one, or is missing. *)
let mismatches ~expected ~actual ~requests =
  if String.equal expected actual then 0
  else begin
    let e = Array.of_list (String.split_on_char '\n' expected)
    and a = Array.of_list (String.split_on_char '\n' actual) in
    let bad = ref 0 in
    for i = 0 to requests - 1 do
      if i >= Array.length a || i >= Array.length e || a.(i) <> e.(i) then incr bad
    done;
    !bad
  end

let replay_slice r batches (w : window) =
  let t0 = Proc.now_ns () in
  for j = 0 to Vec.length w.sent - 1 do
    let b = batches.(Vec.get w.sent j) in
    let traced = r.trace_every > 0 && r.batches mod r.trace_every = 0 in
    let span name f = if traced then Obs.with_span name f else f () in
    let sp = if traced then Obs.begin_span "serve.batch" else Obs.null_span in
    let events =
      if not r.decode then b.events
      else
        span "wire.parse" (fun () ->
            Array.map
              (fun l ->
                match Serve.Wire.parse l with
                | Ok (_, Serve.Wire.Event ev) -> ev
                | _ -> failwith ("perfbench: unexpected request " ^ l))
              (split_lines b.wire))
    in
    let muts = Array.of_list (List.filter Engine.Event.is_mutation (Array.to_list events)) in
    if Array.length muts > 0 then begin
      let before = Serve.Journal.Writer.bytes r.writer in
      span "journal.append" (fun () ->
          Serve.Journal.Writer.append r.writer ~seq:(Serve.Cluster.seq r.cluster) muts);
      span "journal.flush" (fun () -> Serve.Journal.Writer.flush r.writer);
      r.journaled_events <- r.journaled_events + Array.length muts;
      r.journal_bytes <- r.journal_bytes + Serve.Journal.Writer.bytes r.writer - before
    end;
    let replies = span "cluster.apply" (fun () -> Serve.Cluster.apply_batch r.cluster events) in
    Buffer.clear r.out;
    span "wire.reply" (fun () ->
        Array.iter (fun rep -> Serve.Wire.add_reply r.out ~id:None rep) replies);
    if Serve.Cluster.seq r.cluster - r.last_snapshot >= snapshot_every then begin
      let snapshot () =
        Serve.Store.snapshot_now r.store;
        Serve.Journal.Writer.close r.writer;
        r.writer <- Serve.Journal.Writer.create ~path:r.jpath r.fp;
        r.last_snapshot <- Serve.Cluster.seq r.cluster
      in
      if r.trace_every > 0 then Obs.with_span "store.snapshot" snapshot else snapshot ()
    end;
    Obs.end_span sp;
    let expected = Buffer.contents r.out in
    let n = Array.length events in
    r.failed <- r.failed + mismatches ~expected ~actual:(segment w j) ~requests:n;
    r.batches <- r.batches + 1;
    r.requests <- r.requests + n;
    if traced then r.traced_requests <- r.traced_requests + n;
    r.request_bytes <- r.request_bytes + Bytes.length b.wire;
    r.reply_bytes <- r.reply_bytes + String.length expected
  done;
  r.replay_s <- r.replay_s +. Proc.seconds_between t0 (Proc.now_ns ())

let close_replayer r =
  Serve.Journal.Writer.close r.writer;
  Serve.Store.close r.store

(* ---- one run ---- *)

(* Length of one slice of the timed window. *)
let slice_seconds = 5.

(* Latency sub-windows within a slice. *)
let sub_window_ns = 500_000_000

(* The traced replay spans one batch in this many, which keeps the trace
   to about a hundred thousand events. *)
let trace_every = 8

let run ~repro ~checker ~work ~seed ~seconds ~trace =
  let fixture = ensure_fixture ~work in
  let batches = encode_batches ~seed in
  let run_dir = Filename.concat work (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  Proc.rm_rf run_dir;
  Unix.mkdir run_dir 0o755;
  let daemons = ref [] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun c -> ignore (Proc.stop ~signal:Sys.sigkill c)) !daemons;
      Proc.rm_rf run_dir)
    (fun () ->
      let sock = Filename.concat run_dir "s.sock" in
      let start k =
        let dir = Filename.concat run_dir (Printf.sprintf "state%d" k) in
        Proc.copy_dir fixture dir;
        let err = Filename.concat run_dir (Printf.sprintf "daemon%d.err" k) in
        let c =
          try launch ~repro ~dir ~sock ~stderr:err
          with Failure msg -> failwith (msg ^ ": " ^ Proc.read_file err)
        in
        daemons := c :: !daemons;
        ready_banner c;
        c
      in
      let finish ?signal c =
        daemons := List.filter (fun d -> d != c) !daemons;
        ignore (Proc.stop ?signal c)
      in
      let gc k =
        Proc.gc_totals
          (Proc.read_file (Filename.concat run_dir (Printf.sprintf "daemon%d.err" k)))
      in
      (* Set-up launches, spread over the run so that their median does
         not rest on one moment of the host's load: two before the
         window, the serving daemon, and two after it.  The first stops
         gracefully: its GC totals (restore + shutdown, no traffic) are
         the baseline subtracted from the serving daemon's. *)
      let setups = ref [] in
      let probe ?signal k =
        let c = start k in
        setups := c.Proc.setup_s :: !setups;
        finish ?signal c
      in
      probe 1;
      probe ~signal:Sys.sigkill 2;
      (* The check decodes only in a traced run, where its time is the
         untraced base of trace.overhead. *)
      let plain =
        replayer ~fixture ~dir:(Filename.concat run_dir "replay0") ~decode:trace
          ~trace_every:0
      in
      let traced =
        if trace then
          Some
            (replayer ~fixture ~dir:(Filename.concat run_dir "replay1") ~decode:true
               ~trace_every)
        else None
      in
      Obs.reset ();
      let c = start 3 in
      setups := c.Proc.setup_s :: !setups;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let ops = ref 0 and wall = ref 0. and wait = ref 0. in
      let client_cpu = ref 0. and daemon_cpu = ref 0. in
      let groups = ref [] and pooled = ref [] in
      let ticks = Proc.cpu_ticks () in
      let events, rounds =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX sock);
            let first = ref 0 and left = ref seconds in
            while !left > 0. do
              let w =
                run_window fd batches ~first:!first
                  ~seconds:(Float.min slice_seconds !left) ~daemon:c.Proc.pid
              in
              first := !first + Vec.length w.sent;
              left := !left -. slice_seconds;
              ops := !ops + w.ops;
              wall := !wall +. w.wall_s;
              wait := !wait +. w.wait_s;
              client_cpu := !client_cpu +. w.client_cpu_s;
              daemon_cpu := !daemon_cpu +. w.daemon_cpu_s;
              let samples =
                List.init (Vec.length w.lat_ns) (fun i ->
                    ( Vec.get w.lat_end i,
                      float_of_int (Vec.get w.lat_ns i) /. 1e3,
                      Vec.get w.lat_count i ))
              in
              groups :=
                Sample.sub_windows ~width_ns:sub_window_ns
                  ~span_ns:(int_of_float (w.wall_s *. 1e9)) samples
                @ !groups;
              pooled := List.rev_map (fun (_, v, n) -> (v, n)) samples @ !pooled;
              replay_slice plain batches w;
              Option.iter
                (fun t ->
                  Obs.enable ();
                  replay_slice t batches w;
                  Obs.disable ())
                traced
            done;
            stats_counts fd)
      in
      let steal = Proc.steal_note ticks in
      let rss = Proc.peak_rss_mb c.Proc.pid in
      finish c;
      let gc_delta k = List.assoc k (gc 3) -. List.assoc k (gc 1) in
      probe ~signal:Sys.sigkill 4;
      probe ~signal:Sys.sigkill 5;
      close_replayer plain;
      Option.iter close_replayer traced;
      let ops_f = float_of_int !ops in
      let requests = List.fold_left (fun acc (_, n) -> acc + n) 0 !pooled in
      let p99 = Sample.weighted_quantile !pooled 0.99 in
      let problems = ref [] in
      let failed =
        match traced with Some t -> max plain.failed t.failed | None -> plain.failed
      in
      if failed > 0 then
        problems := Printf.sprintf "%d replies differ from the replay" failed :: !problems;
      let server_cpu_ns = !daemon_cpu *. 1e9 /. ops_f in
      let e2e =
        [ ("setup_s", Sample.median !setups); ("ops_per_s", ops_f /. !wall);
          ("p50_us", Sample.mean_quantile !groups 0.5);
          ("p90_us", Sample.mean_quantile !groups 0.9); ("peak_rss_mb", rss) ]
      in
      let client =
        [ ("server.cpu_us_per_op", server_cpu_ns /. 1e3);
          ("server.events_per_round", float_of_int events /. float_of_int rounds);
          ("client.cpu_us_per_op", !client_cpu *. 1e6 /. ops_f);
          ("ipc.wait_share", !wait /. !wall);
          ("gc.minor_words_per_op", gc_delta "minor_words" /. ops_f);
          ("gc.promoted_words_per_op", gc_delta "promoted_words" /. ops_f);
          ("gc.major_collections", gc_delta "major_collections") ]
      in
      let layer_metrics, trace_notes =
        match traced with
        | None -> ([], [])
        | Some t ->
            let path = Filename.concat work (name ^ "-trace.json") in
            Obs.write_trace ~path;
            (match Layers.check_trace ~checker path with
            | Ok () -> ()
            | Error e -> problems := e :: !problems);
            let selfs = Layers.self_times layer_names in
            Obs.reset ();
            let self n = (List.assoc n selfs).Layers.self_ns in
            let per_req n = self n /. float_of_int t.traced_requests in
            let journal_batches =
              max 1 (List.assoc "journal.append" selfs).Layers.calls
            in
            let snaps = List.assoc "store.snapshot" selfs in
            (* Snapshots are spanned on every batch, so their share per
               request divides by all requests replayed. *)
            let attributed =
              List.fold_left (fun acc n -> acc +. per_req n) 0.
                [ "wire.parse"; "journal.append"; "journal.flush"; "cluster.apply";
                  "wire.reply" ]
              +. self "store.snapshot" /. float_of_int t.requests
            in
            ( [ ("wire.decode_ns", per_req "wire.parse");
                ("wire.encode_ns", per_req "wire.reply");
                ("wire.request_bytes",
                 float_of_int t.request_bytes /. float_of_int t.requests);
                ("wire.reply_bytes",
                 float_of_int t.reply_bytes /. float_of_int t.requests);
                ("cluster.apply_ns", per_req "cluster.apply");
                ("journal.append_ns", self "journal.append" /. float_of_int journal_batches);
                ("journal.flush_ns", self "journal.flush" /. float_of_int journal_batches);
                ("journal.bytes_per_event",
                 float_of_int t.journal_bytes /. float_of_int (max 1 t.journaled_events));
                ("store.snapshot_ms",
                 if snaps.Layers.calls = 0 then 0.
                 else Sample.median snaps.Layers.durations /. 1e6);
                ("store.snapshots", float_of_int snaps.Layers.calls);
                ("store.restore_s", t.restore_s);
                ("store.replayed_events", float_of_int t.replayed_events);
                ("server.unattributed_ns", server_cpu_ns -. attributed);
                ("trace.overhead", t.replay_s /. plain.replay_s) ],
              [ Printf.sprintf
                  "trace: %s (%d batches replayed, one in %d spanned; %.3f s \
                   traced, %.3f s untraced)"
                  path t.batches t.trace_every t.replay_s plain.replay_s ] )
      in
      { Report.workload = name; correct = !problems = []; attempted = !ops;
        failed; metrics = e2e @ client @ layer_metrics;
        samples =
          [ ("setup_s", List.length !setups); ("ops_per_s", !ops);
            ("p50_us", List.length !groups); ("p90_us", List.length !groups);
            ("peak_rss_mb", 1) ];
        notes =
          [ Printf.sprintf
              "window %.3f s in slices of %.0f s, %d batches of %d; daemon %.0f \
               ns CPU/request, client %.0f ns CPU/request, client blocked \
               %.1f%% of the window"
              !wall slice_seconds plain.batches batch server_cpu_ns
              (!client_cpu *. 1e9 /. ops_f) (100. *. !wait /. !wall);
            Report.p99_note ~p99 ~n:requests; steal ]
          @ trace_notes;
        problems = !problems })
