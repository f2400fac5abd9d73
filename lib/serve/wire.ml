(* JSON-lines protocol of the allocation service.

   Requests (one object per line):

     {"op":"insert","key":123,"id":7}   -> {"id":7,"ok":true,"reply":"placed","bin":17}
     {"op":"remove"}                    -> {"ok":true,"reply":"removed","bin":4}
     {"op":"step"}                      -> {"ok":true,"reply":"ack"}
     {"op":"round"}                     -> {"ok":true,"reply":"ack"}
     {"op":"probe"}                     -> {"ok":true,"reply":"level","value":3}
     {"op":"watermark"}                 -> {"ok":true,"reply":"level","value":5}
     {"op":"occupancy"}                 -> {"ok":true,"reply":"loads","loads":[...]}
     {"op":"ping"}                      -> {"ok":true,"reply":"pong"}
     {"op":"stats"}                     -> {"ok":true,"reply":"stats",...}
     {"op":"stats","format":"prom"}     -> {"ok":true,"reply":"stats","format":"prom","text":"..."}

   "stats" renders the daemon's instrument registry (per-op stage and
   latency histograms, per-shard gauges, durability state): its JSON
   view as top-level fields by default or, with "format":"prom", its
   Prometheus text view carried in the "text" field.

   "id" is optional and echoed back verbatim when present; replies are
   written in request order, so correlation works without ids too.
   Rejected mutations and malformed requests answer with "ok":false.

   Parsing and escaping go through [Common.Json], the repo's one
   codec; responses are hand-formatted into a caller-owned [Buffer] so
   the server's hot path allocates no intermediate strings. *)

module Json = Common.Json

type address = Unix_sock of string | Tcp of string * int

let address_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let parse_address s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if path = "" then Error "unix: needs a socket path"
      else Ok (Unix_sock path)
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | None -> Error "tcp: needs host:port"
      | Some j -> (
          let host = String.sub rest 0 j in
          let host = if host = "" then "127.0.0.1" else host in
          match int_of_string_opt (String.sub rest (j + 1) (String.length rest - j - 1)) with
          | Some port when port > 0 && port < 65536 -> Ok (Tcp (host, port))
          | _ -> Error "tcp: bad port"))
  | _ ->
      Error
        (Printf.sprintf "bad address %S (use unix:PATH or tcp:HOST:PORT)" s)

type stats_format = Stats_json | Stats_prom

type request =
  | Event of Engine.Event.t
  | Ping
  | Stats of stats_format

let parse line =
  match Json.of_string line with
  | Error e -> Error ("bad json: " ^ e)
  | Ok json -> (
      let id =
        match Json.member "id" json with
        | Some (Json.Int i) -> Some i
        | _ -> None
      in
      match Json.member "op" json with
      | Some (Json.String op) -> (
          match op with
          | "step" -> Ok (id, Event Engine.Event.Step)
          | "round" -> Ok (id, Event Engine.Event.Round)
          | "insert" -> (
              match Json.member "key" json with
              | Some (Json.Int key) ->
                  Ok (id, Event (Engine.Event.Insert key))
              | _ -> Error "insert needs an integer \"key\"")
          | "remove" -> Ok (id, Event Engine.Event.Remove)
          | "probe" -> Ok (id, Event Engine.Event.Probe)
          | "occupancy" -> Ok (id, Event Engine.Event.Occupancy)
          | "watermark" -> Ok (id, Event Engine.Event.Watermark)
          | "ping" -> Ok (id, Ping)
          | "stats" -> (
              match Json.member "format" json with
              | None | Some (Json.String "json") ->
                  Ok (id, Stats Stats_json)
              | Some (Json.String "prom") ->
                  Ok (id, Stats Stats_prom)
              | Some (Json.String f) ->
                  Error
                    (Printf.sprintf "unknown stats format %S (json | prom)" f)
              | Some _ -> Error "stats \"format\" must be a string")
          | op -> Error (Printf.sprintf "unknown op %S" op))
      | _ -> Error "missing \"op\"")

(* {2 Response formatting} *)

let open_reply buf ~id ~ok ~reply =
  Buffer.add_char buf '{';
  (match id with
  | Some i ->
      Buffer.add_string buf "\"id\":";
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ','
  | None -> ());
  Buffer.add_string buf (if ok then "\"ok\":true" else "\"ok\":false");
  Buffer.add_string buf ",\"reply\":\"";
  Buffer.add_string buf reply;
  Buffer.add_char buf '"'

let close_reply buf =
  Buffer.add_char buf '}';
  Buffer.add_char buf '\n'

let add_reply buf ~id reply =
  (match reply with
  | Engine.Event.Ack -> open_reply buf ~id ~ok:true ~reply:"ack"
  | Engine.Event.Placed bin ->
      open_reply buf ~id ~ok:true ~reply:"placed";
      Buffer.add_string buf ",\"bin\":";
      Buffer.add_string buf (string_of_int bin)
  | Engine.Event.Removed bin ->
      open_reply buf ~id ~ok:true ~reply:"removed";
      Buffer.add_string buf ",\"bin\":";
      Buffer.add_string buf (string_of_int bin)
  | Engine.Event.Level v ->
      open_reply buf ~id ~ok:true ~reply:"level";
      Buffer.add_string buf ",\"value\":";
      Buffer.add_string buf (string_of_int v)
  | Engine.Event.Loads loads ->
      open_reply buf ~id ~ok:true ~reply:"loads";
      Buffer.add_string buf ",\"loads\":[";
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int v))
        loads;
      Buffer.add_char buf ']'
  | Engine.Event.Rejected msg ->
      open_reply buf ~id ~ok:false ~reply:"rejected";
      Buffer.add_string buf ",\"error\":\"";
      Json.add_escaped buf msg;
      Buffer.add_char buf '"');
  close_reply buf

let add_pong buf ~id =
  open_reply buf ~id ~ok:true ~reply:"pong";
  close_reply buf

let add_error buf ~id msg =
  open_reply buf ~id ~ok:false ~reply:"error";
  Buffer.add_string buf ",\"error\":\"";
  Json.add_escaped buf msg;
  Buffer.add_char buf '"';
  close_reply buf

let add_stats buf ~id fields =
  open_reply buf ~id ~ok:true ~reply:"stats";
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      Json.add_escaped buf k;
      Buffer.add_string buf "\":";
      Buffer.add_string buf (Json.to_string ~indent:0 v))
    fields;
  close_reply buf

let add_stats_text buf ~id text =
  open_reply buf ~id ~ok:true ~reply:"stats";
  Buffer.add_string buf ",\"format\":\"prom\",\"text\":\"";
  Json.add_escaped buf text;
  Buffer.add_char buf '"';
  close_reply buf
