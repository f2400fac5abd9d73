(* Pipelined load driver for the serve daemon.

   Traffic is generated from a seeded {!Prng.Rng}, so a load run is
   reproducible; requests go out in batches of [batch] lines per write
   and the driver reads the matching batch of reply lines before the
   next write (half-duplex pipelining — one syscall pair per batch,
   which is what makes six-figure ops/sec reachable over a Unix
   socket). *)

type mix = { insert_pct : int; remove_pct : int; probe_pct : int }

let default_mix = { insert_pct = 45; remove_pct = 45; probe_pct = 10 }

let validate_mix m =
  if m.insert_pct < 0 || m.remove_pct < 0 || m.probe_pct < 0
     || m.insert_pct + m.remove_pct + m.probe_pct <> 100
  then invalid_arg "Serve.Load_gen: mix percentages must sum to 100"

type result = {
  ops : int;
  errors : int;
  seconds : float;
  ops_per_sec : float;
  latency : Obs.Hist.snapshot;
}

let connect addr =
  match addr with
  | Wire.Unix_sock path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
  | Wire.Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      Unix.connect fd (Unix.ADDR_INET (inet, port));
      fd

let with_connection addr f =
  match connect addr with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot connect to %s: %s"
           (Wire.address_to_string addr)
           (Unix.error_message e))
  | fd ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> f ic oc)

(* Count the "ok":false replies without parsing, and without
   allocating: the server formats every reply with the ok field first
   (after the optional id), so a scan for the marker is enough. *)
let failed_marker = "\"ok\":false"

let rec marker_at line i j =
  j = String.length failed_marker
  || String.unsafe_get line (i + j) = String.unsafe_get failed_marker j
     && marker_at line i (j + 1)

let rec marker_from line i =
  i + String.length failed_marker <= String.length line
  && (marker_at line i 0 || marker_from line (i + 1))

let reply_failed line = marker_from line 0

let add_request buf g mix =
  let r = Prng.Rng.int g 100 in
  if r < mix.insert_pct then begin
    Buffer.add_string buf "{\"op\":\"insert\",\"key\":";
    Buffer.add_string buf
      (string_of_int (Int64.to_int (Int64.shift_right_logical (Prng.Rng.bits64 g) 2)));
    Buffer.add_string buf "}\n"
  end
  else if r < mix.insert_pct + mix.remove_pct then
    Buffer.add_string buf "{\"op\":\"remove\"}\n"
  else Buffer.add_string buf "{\"op\":\"probe\"}\n"

let run ~connect:addr ?(ops = 200_000) ?(batch = 512) ?(mix = default_mix)
    ?(seed = 0x10AD) () =
  validate_mix mix;
  if ops <= 0 then invalid_arg "Serve.Load_gen.run: ops must be positive";
  if batch <= 0 then invalid_arg "Serve.Load_gen.run: batch must be positive";
  let g = Prng.Rng.create ~seed () in
  with_connection addr (fun ic oc ->
      let buf = Buffer.create (batch * 32) in
      let errors = ref 0 in
      let sent = ref 0 in
      (* Client-observed round-trip per reply, measured from the
         batch's write: the honest closed-loop number — it includes
         queueing behind the pipeline, not just server service time. *)
      let lat = Obs.Hist.create () in
      let t0 = Obs.Clock.now_ns () in
      (try
         while !sent < ops do
           let k = min batch (ops - !sent) in
           Buffer.clear buf;
           for _ = 1 to k do
             add_request buf g mix
           done;
           Buffer.output_buffer oc buf;
           flush oc;
           let t_send = Obs.Clock.now_ns () in
           for _ = 1 to k do
             let line = input_line ic in
             Obs.Hist.observe lat (Int64.to_int (Obs.Clock.ns_since t_send));
             if reply_failed line then incr errors
           done;
           sent := !sent + k
         done;
         let seconds = Obs.Clock.seconds_since t0 in
         Ok
           { ops = !sent; errors = !errors; seconds;
             ops_per_sec = (if seconds > 0. then float_of_int !sent /. seconds else 0.);
             latency = Obs.Hist.snapshot lat }
       with
      | End_of_file -> Error "server closed the connection mid-run"
      | Sys_error msg -> Error msg))

(* {2 One-shot queries} *)

let query ~connect:addr lines =
  with_connection addr (fun ic oc ->
      try
        let replies =
          List.map
            (fun line ->
              output_string oc line;
              output_char oc '\n';
              flush oc;
              input_line ic)
            lines
        in
        Ok replies
      with
      | End_of_file -> Error "server closed the connection"
      | Sys_error msg -> Error msg)
