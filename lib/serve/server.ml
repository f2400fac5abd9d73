(* The serve daemon: a single-threaded select loop feeding the sharded
   cluster, which applies each event as it arrives.

   Framing is in place.  Each client owns one [max_line]-byte input
   buffer: [Unix.read] writes into it after the bytes still pending,
   only the new bytes are scanned for '\n', and each complete line is
   decoded where it lies ({!Wire.decode} on the slice, one trailing
   '\r' dropped, empty lines skipped).  The unterminated rest then moves
   to the front of the buffer, so a byte is moved at most once.  A line
   that reaches [max_line] bytes without a '\n' is answered with a
   typed error after the client's earlier replies; the daemon then
   half-closes the connection, discards that client's input, and closes
   it when the client hangs up.  No client ever holds more than
   [max_line] pending bytes.

   Each select round decodes lines into one batch (arrival order) held
   in arrays reused across rounds, applies the batch, and appends the
   replies to each client's output buffer in request order.  Ping and
   stats are answered by the server itself, after the batch, so a
   client that interleaves them with events still sees ordered replies.
   A client's framing stops after an occupancy or stats request, whose
   replies are large (an n-int array, the whole registry): the
   client's later lines stay in its buffer, [scan] marks where framing
   resumes, and the next round frames them before any read.  A client
   with such a backlog is not read, and it is framed at most once per
   round, so one read adds at most one large reply per client.

   Client sockets are non-blocking: a write takes what the socket
   accepts and the rest waits in the client's output buffer.  A client
   whose unwritten output exceeds [max_out] is neither read nor framed
   until it reads, so a client that sends without reading is held back
   at about [max_out] of replies and never stalls the others.  A buffer
   that never empties, because its client reads slower than it is
   answered, drops its written part once that reaches [max_out], so no
   client's buffer outgrows about twice [max_out] plus the replies to
   one read.

   Telemetry is always on: every request is timed through its
   lifecycle stages (decode here, route/apply in the cluster, reply
   here) into a {!Telemetry} bank.  Adjacent stages share one clock
   reading: a line's decode stage ends where the next line's begins
   (the chain restarts after each read), and the reply stages chain the
   same way, so a request costs about one reading per stage.  The
   [stats] op renders the bank's registry, where the server, the
   cluster and the store also register their counters and gauges.
   When [trace] is set, the daemon additionally records Obs spans for a
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
  quiet : bool;
  trace : string option;  (* Perfetto trace path, written on shutdown *)
  trace_sample : int;  (* trace every Nth request (at most 1 per round) *)
}

let default_config ~listen ~cluster =
  { listen; cluster; dir = None; snapshot_every = 1_000_000; sync = false;
    quiet = false; trace = None; trace_sample = 64 }

let max_line = 65536

(* A client with more unwritten reply bytes than this is not read until
   it reads: the most a client that stops reading makes the daemon hold,
   give or take the replies to one read.  It is also the written prefix
   a client's output buffer may keep before it is dropped. *)
let max_out = 16 * max_line

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
  inb : Bytes.t;  (* [start, fill): pending bytes; [start, scan) holds no '\n' *)
  mutable start : int;
  mutable scan : int;  (* below [fill]: complete lines wait for the next round *)
  mutable fill : int;
  out : Buffer.t;
  mutable out_pos : int;
  mutable dead : bool;
  mutable refused : bool;
      (* sent a line over the cap: its input is discarded, and the
         connection half-closes once its replies are written *)
  mutable half_closed : bool;
}

(* The requests of one round, in arrival order, in arrays that grow and
   are reused.  [owed.(i)] is what request [i] owes its client: an
   index into [events], or one of the codes below. *)
type round = {
  mutable size : int;
  mutable clients : client array;
  mutable ids : int option array;
  mutable owed : int array;
  mutable ops : int array;
  mutable starts : int array;  (* decode start: the latency origin *)
  mutable errors : string array;
  mutable events : Engine.Event.t array;
  mutable nevents : int;
}

let owe_pong = -1
let owe_error = -2
let owe_stats_json = -3
let owe_stats_prom = -4

let grow a fill = Array.append a (Array.make (Array.length a) fill)

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

(* Requests whose replies grow with n or with the registry. *)
let large_reply =
  let occupancy = Telemetry.op_of_event Engine.Event.Occupancy in
  fun op -> op = Telemetry.op_stats || op = occupancy

let line_too_long =
  Printf.sprintf "request line reaches %d bytes without a newline" max_line

let run ?on_ready config =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let stop = ref false in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true)) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true)) in
  let backend =
    match config.dir with
    | None -> Ephemeral (Cluster.create config.cluster)
    | Some dir -> (
        match
          Store.open_ ~snapshot_every:config.snapshot_every
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
  let tel = Telemetry.create () in
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
  (* Staging for writes: [Unix.write] takes bytes, and a [Buffer] lends
     its contents only by copy, so each flush copies just the unwritten
     part, in pieces of this size. *)
  let scratch = Bytes.create 65536 in
  let nobody =
    { fd = lsock; inb = Bytes.empty; start = 0; scan = 0; fill = 0; out = Buffer.create 1;
      out_pos = 0; dead = true; refused = false; half_closed = false }
  in
  let cap = 256 in
  let r =
    { size = 0; clients = Array.make cap nobody; ids = Array.make cap None;
      owed = Array.make cap 0; ops = Array.make cap 0; starts = Array.make cap 0;
      errors = Array.make cap ""; events = Array.make cap Engine.Event.Step;
      nevents = 0 }
  in
  (* The round's sampled request, when tracing: its index and span. *)
  let traced = ref (-1) and traced_span = ref Obs.null_span in
  let close_client c =
    if not c.dead then begin
      c.dead <- true;
      stats.live <- stats.live - 1;
      Hashtbl.remove clients c.fd;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    end
  in
  let add_request c ~id ~owed ~op ~start =
    if r.size = Array.length r.owed then begin
      r.clients <- grow r.clients nobody;
      r.ids <- grow r.ids None;
      r.owed <- grow r.owed 0;
      r.ops <- grow r.ops 0;
      r.starts <- grow r.starts 0;
      r.errors <- grow r.errors ""
    end;
    let i = r.size in
    r.clients.(i) <- c;
    r.ids.(i) <- id;
    r.owed.(i) <- owed;
    r.ops.(i) <- op;
    r.starts.(i) <- start;
    r.size <- i + 1;
    stats.requests <- stats.requests + 1;
    i
  in
  let add_error c ~start msg =
    let i = add_request c ~id:None ~owed:owe_error ~op:Telemetry.op_error ~start in
    r.errors.(i) <- msg;
    stats.errors <- stats.errors + 1
  in
  let add_event c ~id ev ~start =
    if r.nevents = Array.length r.events then
      r.events <- grow r.events Engine.Event.Step;
    r.events.(r.nevents) <- ev;
    ignore (add_request c ~id ~owed:r.nevents ~op:(Telemetry.op_of_event ev) ~start);
    r.nevents <- r.nevents + 1;
    stats.events <- stats.events + 1
  in
  (* Decode the line [s, e) of [c]'s buffer as one request of the round;
     its decode stage began at [start].  Returns the stage's end. *)
  let decode_line c s e ~start =
    let e = if e > s && Bytes.get c.inb (e - 1) = '\r' then e - 1 else e in
    if e = s then start
    else begin
      let sampled =
        trace_on && !traced < 0 && stats.requests + 1 >= !next_trace
      in
      let dspan =
        if sampled then begin
          traced_span := Obs.begin_span "serve.request";
          Obs.begin_span "serve.decode"
        end
        else Obs.null_span
      in
      (match Wire.decode c.inb s (e - s) with
      | Error msg -> add_error c ~start msg
      | Ok (id, Wire.Event ev) -> add_event c ~id ev ~start
      | Ok (id, Wire.Ping) ->
          ignore (add_request c ~id ~owed:owe_pong ~op:Telemetry.op_ping ~start)
      | Ok (id, Wire.Stats fmt) ->
          let owed =
            match fmt with
            | Wire.Stats_json -> owe_stats_json
            | Wire.Stats_prom -> owe_stats_prom
          in
          ignore (add_request c ~id ~owed ~op:Telemetry.op_stats ~start));
      Obs.end_span dspan;
      if sampled then begin
        traced := r.size - 1;
        next_trace := stats.requests + config.trace_sample
      end;
      let now = Obs.Clock.now_int () in
      Telemetry.observe_stage tel Telemetry.Decode ~op:r.ops.(r.size - 1) (now - start);
      now
    end
  in
  (* Frame and decode [c]'s bytes from [c.scan] to [c.fill], stopping
     after a request with a large reply. *)
  let frame c =
    let t = ref (Obs.Clock.now_int ()) in
    let i = ref c.scan and held = ref false in
    while !i < c.fill && not !held do
      if Bytes.unsafe_get c.inb !i = '\n' then begin
        let size = r.size in
        t := decode_line c c.start !i ~start:!t;
        c.start <- !i + 1;
        held := r.size > size && large_reply r.ops.(size)
      end;
      incr i
    done;
    c.scan <- !i;
    if c.scan < c.fill then ()
    else if c.start = c.fill then begin
      c.start <- 0;
      c.scan <- 0;
      c.fill <- 0
    end
    else if c.start > 0 then begin
      Bytes.blit c.inb c.start c.inb 0 (c.fill - c.start);
      c.fill <- c.fill - c.start;
      c.scan <- c.fill;
      c.start <- 0
    end
    else if c.fill = max_line then begin
      add_error c ~start:!t line_too_long;
      let now = Obs.Clock.now_int () in
      Telemetry.observe_stage tel Telemetry.Decode ~op:Telemetry.op_error (now - !t);
      c.refused <- true;
      c.scan <- 0;
      c.fill <- 0
    end
  in
  let held_back c = Buffer.length c.out - c.out_pos > max_out in
  let read_client c =
    let room = if c.refused then max_line else max_line - c.fill in
    match Unix.read c.fd c.inb (if c.refused then 0 else c.fill) room with
    | 0 -> close_client c
    | k ->
        if not c.refused then begin
          c.fill <- c.fill + k;
          frame c
        end
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        close_client c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let answer replies i =
    let c = r.clients.(i) and id = r.ids.(i) in
    let owed = r.owed.(i) in
    if owed >= 0 then begin
      (match replies.(owed) with
      | Engine.Event.Rejected _ -> stats.errors <- stats.errors + 1
      | _ -> ());
      Wire.add_reply c.out ~id replies.(owed)
    end
    else if owed = owe_pong then Wire.add_pong c.out ~id
    else if owed = owe_error then Wire.add_error c.out ~id r.errors.(i)
    else if owed = owe_stats_json then
      Wire.add_stats c.out ~id (Obs.Registry.to_json registry)
    else
      Wire.add_stats_text c.out ~id
        (Obs.Registry.to_prom ~prefix:"repro_serve_" registry)
  in
  let process_round ready =
    let t_round = Obs.Clock.now_int () in
    (* 1. frame the lines held from the last round, then read the
       readable clients, decoding as the bytes arrive *)
    Hashtbl.iter (fun _ c -> if c.scan < c.fill && not (held_back c) then frame c) clients;
    List.iter
      (fun fd ->
        match Hashtbl.find_opt clients fd with
        | None -> ()
        | Some c -> read_client c)
      ready;
    if r.size > 0 then begin
      stats.rounds <- stats.rounds + 1;
      (* 2. apply *)
      let events = Array.sub r.events 0 r.nevents in
      let aspan =
        if !traced >= 0 then
          Obs.begin_span "serve.apply"
            ~args:[ ("events", Obs.Int (Array.length events)) ]
        else Obs.null_span
      in
      let replies = backend_apply backend events in
      Obs.end_span aspan;
      (* 3. answer in request order *)
      let t = ref (Obs.Clock.now_int ()) in
      for i = 0 to r.size - 1 do
        if not r.clients.(i).dead then begin
          let rspan =
            if i = !traced then Obs.begin_span "serve.reply" else Obs.null_span
          in
          answer replies i;
          Obs.end_span rspan;
          let now = Obs.Clock.now_int () in
          let op = r.ops.(i) in
          Telemetry.observe_stage tel Telemetry.Reply ~op (now - !t);
          Telemetry.observe_latency tel ~op (now - r.starts.(i));
          t := now;
          if i = !traced then
            Obs.end_span !traced_span
              ~args:[ ("op", Obs.Str (Telemetry.op_name op)) ]
        end;
        r.clients.(i) <- nobody
      done;
      Telemetry.observe_batch tel r.nevents;
      Telemetry.observe_round tel (!t - t_round);
      r.size <- 0;
      r.nevents <- 0;
      traced := -1;
      traced_span := Obs.null_span
    end
  in
  let flush_client c =
    let rec go () =
      let len = min (Buffer.length c.out - c.out_pos) (Bytes.length scratch) in
      if len > 0 then begin
        Buffer.blit c.out c.out_pos scratch 0 len;
        match Unix.write c.fd scratch 0 len with
        | k ->
            c.out_pos <- c.out_pos + k;
            go ()
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            close_client c
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      end
    in
    go ();
    if c.dead then ()
    else if c.out_pos = Buffer.length c.out then begin
      Buffer.clear c.out;
      c.out_pos <- 0;
      if c.refused && not c.half_closed then begin
        c.half_closed <- true;
        try Unix.shutdown c.fd Unix.SHUTDOWN_SEND
        with Unix.Unix_error _ -> close_client c
      end
    end
    else if c.out_pos >= max_out && 2 * c.out_pos >= Buffer.length c.out then begin
      (* A client that reads slower than it is answered never empties
         its buffer: drop the written part once it is [max_out] and at
         least the unwritten rest, so the copy costs at most one byte
         per byte written. *)
      let rest = Buffer.sub c.out c.out_pos (Buffer.length c.out - c.out_pos) in
      Buffer.clear c.out;
      Buffer.add_string c.out rest;
      c.out_pos <- 0
    end
  in
  (while not !stop do
       (* A client with held lines is framed, not read; while one can be
          framed, select only polls. *)
       let backlog = ref false in
       let rfds =
         Hashtbl.fold
           (fun fd c acc ->
             if held_back c then acc
             else if c.scan < c.fill then begin
               backlog := true;
               acc
             end
             else fd :: acc)
           clients [ lsock ]
       in
       let wfds =
         Hashtbl.fold
           (fun fd c acc -> if Buffer.length c.out > c.out_pos then fd :: acc else acc)
           clients []
       in
       match Unix.select rfds wfds [] (if !backlog then 0. else 0.2) with
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
       | ready_r, ready_w, _ ->
           if List.mem lsock ready_r then begin
             match Unix.accept lsock with
             | fd, _ ->
                 Unix.set_nonblock fd;
                 stats.connections <- stats.connections + 1;
                 stats.live <- stats.live + 1;
                 Hashtbl.replace clients fd
                   { fd; inb = Bytes.create max_line; start = 0; scan = 0; fill = 0;
                     out = Buffer.create 4096; out_pos = 0; dead = false;
                     refused = false; half_closed = false }
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
