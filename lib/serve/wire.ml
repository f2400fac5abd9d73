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

   Decoding is one pass over a byte slice on [Common.Json]'s scanner,
   so it accepts the text [Common.Json.of_string] accepts and fails
   with the same message at the same offset, with one limit of its own:
   objects and arrays nest at most [max_depth] deep.  The four known
   fields ("op", "id", "key", "format") are read as a field lookup on
   the parsed object reads them: the first of duplicate keys wins.  A
   known key, and an op name, without escapes is matched where it lies;
   every other key is read with [Json.read_string] and every other
   value with [Json.read_value], which builds the tree of that value
   only.  A request with neither an id nor a payload decodes to a
   preallocated value, so probe, watermark, remove and the other bare
   ops allocate nothing.

   Replies are written into a caller-owned [Buffer] as a constant
   prefix plus digits, with no intermediate strings. *)

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

(* {2 Decoding}

   Positions are absolute indices into the bytes and [lim] is the end
   of the slice. *)

let max_depth = 64
let fail msg pos = raise (Json.Parse_error (msg, pos))

(* [peek], [skip_ws], [expect] and [same_at] repeat helpers of the
   [Common.Json] scanner on purpose: the dev profile compiles with
   -opaque, so a call into another module is never inlined, and these
   run several times per request on the path that matches names in
   place. *)
let[@inline] peek b pos lim = if pos < lim then Bytes.unsafe_get b pos else '\000'

let rec skip_spaces b pos lim =
  if pos < lim then
    match Bytes.unsafe_get b pos with
    | ' ' | '\t' | '\n' | '\r' -> skip_spaces b (pos + 1) lim
    | _ -> pos
  else pos

(* Most tokens follow no whitespace: test one byte before looping. *)
let[@inline] skip_ws b pos lim =
  match peek b pos lim with
  | ' ' | '\t' | '\n' | '\r' -> skip_spaces b (pos + 1) lim
  | _ -> pos

let expected c pos = fail (Printf.sprintf "expected '%c'" c) pos
let[@inline] expect b pos lim c = if peek b pos lim = c then pos + 1 else expected c pos

(* Whether [s] lies in the bytes at [pos] (the caller checked the
   length fits). *)
let rec same_at b pos s i =
  i = String.length s
  || (Bytes.unsafe_get b (pos + i) = String.unsafe_get s i && same_at b pos s (i + 1))

let rec find_in names str i =
  if i = Array.length names then -1
  else if String.equal names.(i) str then i
  else find_in names str (i + 1)

(* The index in [names] of the name that lies at [pos] followed by a
   closing quote, or -1: a string body without escapes, matched in
   place. *)
let rec quoted_at names b pos lim i =
  if i = Array.length names then -1
  else
    let name = names.(i) in
    let k = String.length name in
    if pos + k < lim
       && Bytes.unsafe_get b pos = String.unsafe_get name 0
       && Bytes.unsafe_get b (pos + k) = '"'
       && same_at b pos name 1
    then i
    else quoted_at names b pos lim (i + 1)

(* The vocabulary.  A known field's state is [absent], [wrong] (a value
   of another type), [unknown] (a string outside its vocabulary), or,
   for a string, its index in the vocabulary and, for an integer,
   [present]. *)
let keys = [| "op"; "id"; "key"; "format" |]

let ops =
  [| "step"; "round"; "insert"; "remove"; "probe"; "occupancy"; "watermark";
     "ping"; "stats" |]

let formats = [| "json"; "prom" |]
let op_insert = 2
let op_stats = 8
let format_prom = 1
let absent = -1
let wrong = -2
let unknown = -3
let present = 0

(* The request of every op but insert, which carries its key; the
   insert slot holds a placeholder. *)
let no_payload =
  Engine.Event.
    [| Event Step; Event Round; Event (Insert 0); Event Remove; Event Probe;
       Event Occupancy; Event Watermark; Ping; Stats Stats_json |]

let no_payload_ok = Array.map (fun r -> Ok (None, r)) no_payload
let prom_ok = Ok (None, Stats Stats_prom)
let missing_op = Error "missing \"op\""

(* The state of a string-valued field that holds [v]. *)
let string_state names = function
  | Json.String s ->
      let i = find_in names s 0 in
      if i < 0 then unknown else i
  | _ -> wrong

let text = function Json.String s -> s | _ -> ""

let decode_exn b off lim =
  let pos = skip_ws b off lim in
  if peek b pos lim <> '{' then begin
    (* Valid or not, a value other than an object names no op. *)
    let _, pos = Json.read_value ~max_depth ~depth:0 b pos lim in
    let pos = skip_ws b pos lim in
    if pos <> lim then fail "trailing input after value" pos;
    missing_op
  end
  else begin
    let op = ref absent and op_text = ref "" in
    let id_state = ref absent and id_value = ref 0 in
    let key = ref absent and key_value = ref 0 in
    let format = ref absent and format_text = ref "" in
    let pos = ref (skip_ws b (pos + 1) lim) in
    let more = ref (peek b !pos lim <> '}') in
    if not !more then incr pos;
    while !more do
      let ks = expect b (skip_ws b !pos lim) lim '"' in
      let known = quoted_at keys b ks lim 0 in
      let field, ke =
        if known >= 0 then (known, ks + String.length keys.(known) + 1)
        else
          let name, ke = Json.read_string b ks lim in
          (find_in keys name 0, ke)
      in
      let vs = skip_ws b (expect b (skip_ws b ke lim) lim ':') lim in
      let fast =
        if field = 0 && !op = absent && peek b vs lim = '"' then
          quoted_at ops b (vs + 1) lim 0
        else -1
      in
      let ve =
        if fast >= 0 then begin
          op := fast;
          vs + String.length ops.(fast) + 2
        end
        else begin
          (* The first of duplicate keys wins; a later one is only
             validated. *)
          let v, ve = Json.read_value ~max_depth ~depth:1 b vs lim in
          (match (field, v) with
          | 0, _ when !op = absent ->
              op := string_state ops v;
              op_text := text v
          | 1, Json.Int i when !id_state = absent ->
              id_state := present;
              id_value := i
          | 2, Json.Int k when !key = absent ->
              key := present;
              key_value := k
          | 1, _ when !id_state = absent -> id_state := wrong
          | 2, _ when !key = absent -> key := wrong
          | 3, _ when !format = absent ->
              format := string_state formats v;
              format_text := text v
          | _ -> ());
          ve
        end
      in
      let p = skip_ws b ve lim in
      match peek b p lim with
      | ',' -> pos := p + 1
      | '}' ->
          pos := p + 1;
          more := false
      | _ -> fail "expected ',' or '}'" p
    done;
    let p = skip_ws b !pos lim in
    if p <> lim then fail "trailing input after value" p;
    let id = if !id_state = present then Some !id_value else None in
    if !op = unknown then Error (Printf.sprintf "unknown op %S" !op_text)
    else if !op < 0 then missing_op
    else if !op = op_insert then
      if !key = present then Ok (id, Event (Engine.Event.Insert !key_value))
      else Error "insert needs an integer \"key\""
    else if !op = op_stats && !format = format_prom then
      if !id_state = present then Ok (id, Stats Stats_prom) else prom_ok
    else if !op = op_stats && !format = unknown then
      Error
        (Printf.sprintf "unknown stats format %S (json | prom)" !format_text)
    else if !op = op_stats && !format = wrong then
      Error "stats \"format\" must be a string"
    else if !id_state = present then Ok (id, no_payload.(!op))
    else no_payload_ok.(!op)
  end

let decode b off len =
  try decode_exn b off (off + len)
  with Json.Parse_error (msg, pos) ->
    Error (Printf.sprintf "bad json: %s at offset %d" msg (pos - off))

let parse line = decode (Bytes.unsafe_of_string line) 0 (String.length line)

(* {2 Response formatting}

   Every reply line is '{', an optional "id":N and comma, a constant
   body, the payload, and '}' plus a newline. *)

let ack = "\"ok\":true,\"reply\":\"ack\""
let placed = "\"ok\":true,\"reply\":\"placed\",\"bin\":"
let removed = "\"ok\":true,\"reply\":\"removed\",\"bin\":"
let level = "\"ok\":true,\"reply\":\"level\",\"value\":"
let loads = "\"ok\":true,\"reply\":\"loads\",\"loads\":["
let rejected = "\"ok\":false,\"reply\":\"rejected\",\"error\":\""
let pong = "\"ok\":true,\"reply\":\"pong\""
let error = "\"ok\":false,\"reply\":\"error\",\"error\":\""
let stats = "\"ok\":true,\"reply\":\"stats\""
let stats_text = "\"ok\":true,\"reply\":\"stats\",\"format\":\"prom\",\"text\":\""

(* The decimal digits of [-v] for [v <= 0], which covers [min_int]. *)
let rec add_neg_digits buf v =
  if v <= -10 then add_neg_digits buf (v / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (v mod 10)))

(* [string_of_int v], without the string. *)
let add_int buf v =
  if v < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf v
  end
  else add_neg_digits buf (-v)

let open_reply buf ~id body =
  Buffer.add_char buf '{';
  (match id with
  | None -> ()
  | Some i ->
      Buffer.add_string buf "\"id\":";
      add_int buf i;
      Buffer.add_char buf ',');
  Buffer.add_string buf body

let close_reply buf = Buffer.add_string buf "}\n"

let add_reply buf ~id reply =
  match reply with
  | Engine.Event.Ack ->
      open_reply buf ~id ack;
      close_reply buf
  | Engine.Event.Placed bin ->
      open_reply buf ~id placed;
      add_int buf bin;
      close_reply buf
  | Engine.Event.Removed bin ->
      open_reply buf ~id removed;
      add_int buf bin;
      close_reply buf
  | Engine.Event.Level v ->
      open_reply buf ~id level;
      add_int buf v;
      close_reply buf
  | Engine.Event.Loads ls ->
      open_reply buf ~id loads;
      for i = 0 to Array.length ls - 1 do
        if i > 0 then Buffer.add_char buf ',';
        add_int buf ls.(i)
      done;
      Buffer.add_string buf "]}\n"
  | Engine.Event.Rejected msg ->
      open_reply buf ~id rejected;
      Json.add_escaped buf msg;
      Buffer.add_string buf "\"}\n"

let add_pong buf ~id =
  open_reply buf ~id pong;
  close_reply buf

let add_error buf ~id msg =
  open_reply buf ~id error;
  Json.add_escaped buf msg;
  Buffer.add_string buf "\"}\n"

let add_stats buf ~id fields =
  open_reply buf ~id stats;
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      Json.add_escaped buf k;
      Buffer.add_string buf "\":";
      Buffer.add_string buf (Json.to_string ~indent:0 v))
    fields;
  close_reply buf

let add_stats_text buf ~id text =
  open_reply buf ~id stats_text;
  Json.add_escaped buf text;
  Buffer.add_string buf "\"}\n"
