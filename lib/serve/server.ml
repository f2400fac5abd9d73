(* The serve daemon: a single-threaded select loop feeding the sharded
   cluster, with shard application fanned out over a {!Parallel.Pool}.

   Each select round drains every readable client, parses the complete
   lines into one batch (arrival order), applies the batch — in chunks
   of at most [max_batch]; chunking cannot change the outcome because
   cluster application is batch-invariant — and appends the replies to
   each client's output buffer in request order.  Ping and stats are
   answered by the server itself, after the batch, so a client that
   interleaves them with events still sees ordered replies.

   Telemetry is always on: every request is timed through its
   lifecycle stages (decode here, route/apply in the cluster, reply
   here) into a {!Telemetry} bank.  The [stats] op renders the bank's
   registry, where the server, the cluster and the store also register
   their counters and gauges.  When
   [trace] is set, the daemon additionally records Obs spans for a
   sampled 1-in-[trace_sample] request per round — a full
   request/decode/apply/reply span tree per sample — and writes the
   Perfetto trace on graceful shutdown.

   SIGTERM / SIGINT stop the loop; shutdown flushes output buffers
   best-effort, snapshots the store and removes a Unix socket file, so
   `kill` is a clean restart point — and `kill -9` is recovered by
   journal replay, which the CI smoke exercises. *)

type config = {
  listen : Wire.address;
  cluster : Cluster.config;
  dir : string option;  (* None = ephemeral (no snapshot/journal) *)
  snapshot_every : int;
  sync : bool;
  domains : int;
  max_batch : int;
  quiet : bool;
  trace : string option;  (* Perfetto trace path, written on shutdown *)
  trace_sample : int;  (* trace every Nth request (at most 1 per round) *)
}

let default_config ~listen ~cluster =
  { listen; cluster; dir = None; snapshot_every = 1_000_000; sync = false;
    domains = 1; max_batch = 8192; quiet = false; trace = None;
    trace_sample = 64 }

type backend = Durable of Store.t | Ephemeral of Cluster.t

let backend_apply b events =
  match b with
  | Durable s -> Store.apply_batch s events
  | Ephemeral c -> Cluster.apply_batch c events

let backend_close = function
  | Durable s -> Store.close s
  | Ephemeral _ -> ()

type client = {
  fd : Unix.file_descr;
  pending : Buffer.t;  (* bytes read, not yet terminated by '\n' *)
  out : Buffer.t;
  mutable out_pos : int;
  mutable dead : bool;
}

(* What each parsed request of the current round owes its client. *)
type slot =
  | Reply of int  (* index into the round's event array *)
  | Immediate of string  (* preformatted line(s) *)
  | Stats_slot of Wire.stats_format

(* A parsed request of the current round, tagged for telemetry: its op
   index, its decode-start timestamp (the service-time origin) and —
   when sampled — its in-flight "serve.request" span. *)
type pending = {
  pc : client;
  pid : int option;
  pslot : slot;
  pop : int;
  pt0 : int64;
  pspan : Obs.span;
  ptraced : bool;
}

type stats = {
  mutable connections : int;
  mutable live : int;
  mutable requests : int;
  mutable events : int;
  mutable errors : int;
  mutable rounds : int;
}

let listen_socket addr =
  match addr with
  | Wire.Unix_sock path ->
      (try if (Unix.lstat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
       with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
  | Wire.Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 64;
      fd

let run ?on_ready config =
  if config.max_batch <= 0 then
    invalid_arg "Serve.Server.run: max_batch must be positive";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = ref false in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true)) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true)) in
  let pool =
    if config.domains > 1 then Some (Parallel.Pool.create ~domains:config.domains ())
    else None
  in
  let backend =
    match config.dir with
    | None -> Ephemeral (Cluster.create ?pool config.cluster)
    | Some dir -> (
        match
          Store.open_ ?pool ~snapshot_every:config.snapshot_every
            ~sync:config.sync ~dir config.cluster
        with
        | Ok store -> Durable store
        | Error msg -> failwith ("repro serve: " ^ msg))
  in
  let lsock = listen_socket config.listen in
  let stats =
    { connections = 0; live = 0; requests = 0; events = 0; errors = 0;
      rounds = 0 }
  in
  let tel = Telemetry.create ~shards:config.cluster.Cluster.shards in
  (match backend with
  | Durable s -> Store.set_telemetry s tel
  | Ephemeral c -> Cluster.set_telemetry c tel);
  let registry = Telemetry.registry tel in
  let counter name help read = Obs.Registry.counter registry name ~help read in
  counter "connections" "Connections accepted" (fun () -> stats.connections);
  Obs.Registry.gauge registry "clients" ~help:"Currently connected clients"
    (fun () -> stats.live);
  counter "requests" "Requests parsed" (fun () -> stats.requests);
  counter "events" "Events applied" (fun () -> stats.events);
  counter "errors" "Error replies" (fun () -> stats.errors);
  counter "rounds" "Select rounds with traffic" (fun () -> stats.rounds);
  (match config.trace with Some _ -> Obs.enable () | None -> ());
  let trace_on = config.trace <> None && config.trace_sample > 0 in
  (* Next request count at which to sample a trace; starts at 1 so even
     a short run records at least one request tree. *)
  let next_trace = ref 1 in
  if not config.quiet then begin
    Printf.printf
      "repro serve: listening on %s (n=%d m=%d shards=%d process=%s rule=%s \
       scenario=%s%s)\n"
      (Wire.address_to_string config.listen)
      config.cluster.Cluster.n config.cluster.Cluster.m
      config.cluster.Cluster.shards
      (Process.name config.cluster.Cluster.process)
      (Core.Scheduling_rule.name config.cluster.Cluster.rule)
      (Core.Scenario.name config.cluster.Cluster.scenario)
      (match config.dir with None -> ", ephemeral" | Some d -> ", dir=" ^ d);
    flush stdout
  end;
  (match on_ready with Some f -> f () | None -> ());
  let clients : (Unix.file_descr, client) Hashtbl.t = Hashtbl.create 16 in
  let scratch = Bytes.create 65536 in
  let line_buf = Buffer.create 256 in
  let close_client c =
    if not c.dead then begin
      c.dead <- true;
      stats.live <- stats.live - 1;
      Hashtbl.remove clients c.fd;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    end
  in
  (* Split [c.pending] into complete lines, appending each to [lines]
     tagged with its client; the last partial line stays pending. *)
  let extract_lines c lines =
    let s = Buffer.contents c.pending in
    Buffer.clear c.pending;
    let n = String.length s in
    let start = ref 0 in
    for i = 0 to n - 1 do
      if s.[i] = '\n' then begin
        let line = String.sub s !start (i - !start) in
        let line =
          (* Tolerate CRLF clients. *)
          if line <> "" && line.[String.length line - 1] = '\r' then
            String.sub line 0 (String.length line - 1)
          else line
        in
        if line <> "" then lines := (c, line) :: !lines;
        start := i + 1
      end
    done;
    if !start < n then Buffer.add_substring c.pending s !start (n - !start)
  in
  let apply_chunked events =
    let n = Array.length events in
    if n <= config.max_batch then backend_apply backend events
    else begin
      let replies = Array.make n Engine.Event.Ack in
      let pos = ref 0 in
      while !pos < n do
        let len = min config.max_batch (n - !pos) in
        let chunk = Array.sub events !pos len in
        let rs = backend_apply backend chunk in
        Array.blit rs 0 replies !pos len;
        pos := !pos + len
      done;
      replies
    end
  in
  let process_round ready =
    (* 1. drain readable clients *)
    let lines = ref [] in
    List.iter
      (fun fd ->
        match Hashtbl.find_opt clients fd with
        | None -> ()
        | Some c -> (
            match Unix.read fd scratch 0 (Bytes.length scratch) with
            | 0 -> close_client c
            | k ->
                Buffer.add_subbytes c.pending scratch 0 k;
                extract_lines c lines
            | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _)
              -> close_client c
            | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()))
      ready;
    let lines = List.rev !lines in
    if lines <> [] then begin
      stats.rounds <- stats.rounds + 1;
      let t_round = Obs.Clock.now_ns () in
      (* At most one sampled request per round, so its span cleanly
         contains the round-level apply span and its own reply span. *)
      let traced_this_round = ref false in
      (* 2. parse into one batch *)
      let events = ref [] and nevents = ref 0 in
      let slots =
        (* fold_left, not map: the slot builder mutates the event
           accumulator, so evaluation order must be the arrival order. *)
        List.rev
          (List.fold_left
             (fun acc (c, line) ->
               stats.requests <- stats.requests + 1;
               let traced =
                 trace_on
                 && (not !traced_this_round)
                 && stats.requests >= !next_trace
               in
               if traced then begin
                 traced_this_round := true;
                 next_trace := stats.requests + config.trace_sample
               end;
               let pspan =
                 if traced then Obs.begin_span "serve.request"
                 else Obs.null_span
               in
               let dspan =
                 if traced then Obs.begin_span "serve.decode"
                 else Obs.null_span
               in
               let t0 = Obs.Clock.now_ns () in
               let parsed = Wire.parse line in
               let decode_ns = Obs.Clock.ns_since t0 in
               Obs.end_span dspan;
               let op, pid, pslot =
                 match parsed with
                 | Error msg ->
                     stats.errors <- stats.errors + 1;
                     Buffer.clear line_buf;
                     Wire.add_error line_buf ~id:None msg;
                     ( Telemetry.op_error, None,
                       Immediate (Buffer.contents line_buf) )
                 | Ok (id, Wire.Ping) ->
                     Buffer.clear line_buf;
                     Wire.add_pong line_buf ~id;
                     (Telemetry.op_ping, id, Immediate (Buffer.contents line_buf))
                 | Ok (id, Wire.Stats fmt) ->
                     (Telemetry.op_stats, id, Stats_slot fmt)
                 | Ok (id, Wire.Event ev) ->
                     let ix = !nevents in
                     events := ev :: !events;
                     incr nevents;
                     stats.events <- stats.events + 1;
                     (Telemetry.op_of_event ev, id, Reply ix)
               in
               Telemetry.observe_stage tel Telemetry.Decode ~op decode_ns;
               { pc = c; pid; pslot; pop = op; pt0 = t0; pspan;
                 ptraced = traced }
               :: acc)
             [] lines)
      in
      (* 3. apply *)
      let events = Array.of_list (List.rev !events) in
      let aspan =
        if !traced_this_round then
          Obs.begin_span "serve.apply"
            ~args:[ ("events", Obs.Int (Array.length events)) ]
        else Obs.null_span
      in
      let replies = apply_chunked events in
      Obs.end_span aspan;
      (* 4. answer in request order *)
      List.iter
        (fun p ->
          if not p.pc.dead then begin
            let t_reply = Obs.Clock.now_ns () in
            let rspan =
              if p.ptraced then Obs.begin_span "serve.reply" else Obs.null_span
            in
            (match p.pslot with
            | Immediate s -> Buffer.add_string p.pc.out s
            | Reply ix ->
                (match replies.(ix) with
                | Engine.Event.Rejected _ -> stats.errors <- stats.errors + 1
                | _ -> ());
                Wire.add_reply p.pc.out ~id:p.pid replies.(ix)
            | Stats_slot Wire.Stats_json ->
                Wire.add_stats p.pc.out ~id:p.pid
                  (Obs.Registry.to_json registry)
            | Stats_slot Wire.Stats_prom ->
                Wire.add_stats_text p.pc.out ~id:p.pid
                  (Obs.Registry.to_prom ~prefix:"repro_serve_" registry));
            Obs.end_span rspan;
            let t_end = Obs.Clock.now_ns () in
            Telemetry.observe_stage tel Telemetry.Reply ~op:p.pop
              (Int64.sub t_end t_reply);
            Telemetry.observe_latency tel ~op:p.pop (Int64.sub t_end p.pt0);
            if p.ptraced then
              Obs.end_span p.pspan
                ~args:[ ("op", Obs.Str (Telemetry.op_name p.pop)) ]
          end)
        slots;
      Telemetry.observe_batch tel (Array.length events);
      Telemetry.observe_round tel (Obs.Clock.ns_since t_round)
    end
  in
  let flush_client c =
    let len = Buffer.length c.out - c.out_pos in
    if len > 0 then begin
      let bytes = Bytes.unsafe_of_string (Buffer.contents c.out) in
      match Unix.write c.fd bytes c.out_pos len with
      | k ->
          c.out_pos <- c.out_pos + k;
          if c.out_pos = Buffer.length c.out then begin
            Buffer.clear c.out;
            c.out_pos <- 0
          end
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
          close_client c
      | exception Unix.Unix_error (Unix.EAGAIN, _, _) -> ()
    end
  in
  (while not !stop do
       let rfds = lsock :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [] in
       let wfds =
         Hashtbl.fold
           (fun fd c acc -> if Buffer.length c.out > c.out_pos then fd :: acc else acc)
           clients []
       in
       match Unix.select rfds wfds [] 0.2 with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | ready_r, ready_w, _ ->
           if List.mem lsock ready_r then begin
             match Unix.accept lsock with
             | fd, _ ->
                 stats.connections <- stats.connections + 1;
                 stats.live <- stats.live + 1;
                 Hashtbl.replace clients fd
                   { fd; pending = Buffer.create 1024; out = Buffer.create 4096;
                     out_pos = 0; dead = false }
             | exception Unix.Unix_error _ -> ()
           end;
           process_round (List.filter (fun fd -> fd <> lsock) ready_r);
           List.iter
             (fun fd ->
               match Hashtbl.find_opt clients fd with
               | Some c -> flush_client c
               | None -> ())
             ready_w;
           (* Answer fresh replies eagerly instead of waiting a round. *)
           Hashtbl.iter
             (fun _ c -> if Buffer.length c.out > c.out_pos then flush_client c)
             clients
   done);
  (* Graceful shutdown: flush what we can, persist, release. *)
  Hashtbl.iter (fun _ c -> try flush_client c with _ -> ()) clients;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with _ -> ()) clients;
  Hashtbl.reset clients;
  (try Unix.close lsock with Unix.Unix_error _ -> ());
  (match config.listen with
  | Wire.Unix_sock path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
  | Wire.Tcp _ -> ());
  backend_close backend;
  (match pool with Some p -> Parallel.Pool.shutdown p | None -> ());
  (match config.trace with
  | Some path ->
      Obs.write_trace ~path;
      if not config.quiet then begin
        Printf.printf "repro serve: trace written to %s\n" path;
        flush stdout
      end
  | None -> ());
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int;
  if not config.quiet then begin
    Printf.printf
      "repro serve: stopped after %d requests (%d events, %d errors)\n"
      stats.requests stats.events stats.errors;
    flush stdout
  end
