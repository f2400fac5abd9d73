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

   Decoding is one pass over a byte slice that builds no JSON tree.  It
   accepts the text the [Common.Json] parser accepts and fails with the
   same message at the same offset, with one limit of its own: objects
   and arrays nest at most [max_depth] deep.  The four known fields
   ("op", "id", "key", "format") are read where they lie, as a field
   lookup on the parsed object reads them: the first of duplicate keys
   wins, and a number is an integer exactly when [int_of_string_opt]
   reads it.
   Every other value is validated and skipped.  Strings without
   escapes are compared in place; only a string with escapes is
   unescaped into a fresh string.  A request with neither an id nor a
   payload decodes to a preallocated value, so probe, watermark, remove
   and the other bare ops allocate nothing.

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

   Positions are absolute indices into the bytes; [lim] is the end of
   the slice.  Every scanner mirrors one function of the [Common.Json]
   parser and returns the position after what it read. *)

exception Syntax of string * int

let max_depth = 64
let fail msg pos = raise (Syntax (msg, pos))
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

let literal b pos lim word =
  if pos + String.length word <= lim && same_at b pos word 0 then
    pos + String.length word
  else fail "invalid literal" pos

let hex_digit b pos =
  match Bytes.unsafe_get b pos with
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> fail "invalid hex digit in \\u escape" pos

let hex4 b pos lim =
  if pos + 4 > lim then fail "truncated \\u escape" pos;
  let d0 = hex_digit b pos in
  let d1 = hex_digit b (pos + 1) in
  let d2 = hex_digit b (pos + 2) in
  let d3 = hex_digit b (pos + 3) in
  (d0 lsl 12) lor (d1 lsl 8) lor (d2 lsl 4) lor d3

let add_to into c = match into with Some buf -> Buffer.add_char buf c | None -> ()

(* A \u escape from just after its 'u': the position after it (and
   after the low half of a surrogate pair), its code point appended to
   [into] when given. *)
let unicode_escape b pos lim into =
  let cp = hex4 b pos lim in
  let pos = pos + 4 in
  if cp >= 0xD800 && cp <= 0xDBFF then
    (* High surrogate: a low surrogate must follow. *)
    if pos + 1 < lim && Bytes.unsafe_get b pos = '\\' && Bytes.unsafe_get b (pos + 1) = 'u'
    then begin
      let lo = hex4 b (pos + 2) lim in
      let pos = pos + 6 in
      if lo < 0xDC00 || lo > 0xDFFF then fail "invalid low surrogate" pos;
      (match into with
      | Some buf -> Json.add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00))
      | None -> ());
      pos
    end
    else fail "lone high surrogate" pos
  else if cp >= 0xDC00 && cp <= 0xDFFF then fail "lone low surrogate" pos
  else begin
    (match into with Some buf -> Json.add_utf8 buf cp | None -> ());
    pos
  end

(* A string body from just after its opening quote: the position after
   its closing quote, the body unescaped into [into] when given. *)
let rec string_body b pos lim into =
  if pos >= lim then fail "unterminated string" pos;
  match Bytes.unsafe_get b pos with
  | '"' -> pos + 1
  | '\\' ->
      let pos = pos + 1 in
      if pos >= lim then fail "truncated escape" pos;
      let pos =
        match Bytes.unsafe_get b pos with
        | ('"' | '\\' | '/') as c -> add_to into c; pos + 1
        | 'n' -> add_to into '\n'; pos + 1
        | 'r' -> add_to into '\r'; pos + 1
        | 't' -> add_to into '\t'; pos + 1
        | 'b' -> add_to into '\b'; pos + 1
        | 'f' -> add_to into '\012'; pos + 1
        | 'u' -> unicode_escape b (pos + 1) lim into
        | _ -> fail "invalid escape" (pos + 1)
      in
      string_body b pos lim into
  | c ->
      add_to into c;
      string_body b (pos + 1) lim into

let rec has_escape b s e = s < e && (Bytes.unsafe_get b s = '\\' || has_escape b (s + 1) e)

(* The text of a validated string whose body lies in [s, e). *)
let unescape b s e =
  if has_escape b s e then begin
    let buf = Buffer.create (e - s) in
    ignore (string_body b s (e + 1) (Some buf));
    Buffer.contents buf
  end
  else Bytes.sub_string b s (e - s)

let rec number_chars b pos lim =
  if pos < lim then
    match Bytes.unsafe_get b pos with
    | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> number_chars b (pos + 1) lim
    | _ -> pos
  else pos

let number_end b pos lim =
  number_chars b (if peek b pos lim = '-' then pos + 1 else pos) lim

let rec all_digits b i e =
  i = e || (match Bytes.unsafe_get b i with '0' .. '9' -> all_digits b (i + 1) e | _ -> false)

(* Whether the number literal [s, e) is an optional minus and 1 to 18
   digits: an integer [int_of_string_opt] reads without overflow. *)
let short_int b s e =
  let d = if Bytes.unsafe_get b s = '-' then s + 1 else s in
  e > d && e - d <= 18 && all_digits b d e

(* Whether the number literal [s, e) reads as an [Int] in
   [Common.Json]'s sense; fails "invalid number" when it is no number. *)
let int_literal b s e =
  short_int b s e
  ||
  let lit = Bytes.sub_string b s (e - s) in
  let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit in
  if (not is_float) && int_of_string_opt lit <> None then true
  else if float_of_string_opt lit <> None then false
  else fail "invalid number" e

(* Whether the validated value [s, e) is an integer. *)
let is_int b s e =
  match Bytes.unsafe_get b s with
  | '-' | '0' .. '9' -> int_literal b s e
  | _ -> false

let rec digits_value b i e v =
  if i = e then v
  else digits_value b (i + 1) e ((v * 10) + Char.code (Bytes.unsafe_get b i) - Char.code '0')

let int_value b s e =
  if short_int b s e then
    if Bytes.unsafe_get b s = '-' then - digits_value b (s + 1) e 0
    else digits_value b s e 0
  else int_of_string (Bytes.sub_string b s (e - s))

(* Validate and skip one value inside [depth] containers. *)
let rec skip_value b pos lim depth =
  let pos = skip_ws b pos lim in
  match peek b pos lim with
  | ('{' | '[') as c ->
      if depth >= max_depth then
        fail (Printf.sprintf "nesting deeper than %d" max_depth) pos;
      let pos = skip_ws b (pos + 1) lim in
      if c = '{' then
        if peek b pos lim = '}' then pos + 1 else skip_fields b pos lim (depth + 1)
      else if peek b pos lim = ']' then pos + 1
      else skip_elems b pos lim (depth + 1)
  | '"' -> string_body b (pos + 1) lim None
  | 't' -> literal b pos lim "true"
  | 'f' -> literal b pos lim "false"
  | 'n' -> literal b pos lim "null"
  | '-' | '0' .. '9' ->
      let e = number_end b pos lim in
      ignore (int_literal b pos e);
      e
  | _ -> fail "unexpected character" pos

and skip_fields b pos lim depth =
  let pos = skip_ws b pos lim in
  let pos = string_body b (expect b pos lim '"') lim None in
  let pos = expect b (skip_ws b pos lim) lim ':' in
  let pos = skip_ws b (skip_value b pos lim depth) lim in
  match peek b pos lim with
  | ',' -> skip_fields b (pos + 1) lim depth
  | '}' -> pos + 1
  | _ -> fail "expected ',' or '}'" pos

and skip_elems b pos lim depth =
  let pos = skip_ws b (skip_value b pos lim depth) lim in
  match peek b pos lim with
  | ',' -> skip_elems b (pos + 1) lim depth
  | ']' -> pos + 1
  | _ -> fail "expected ',' or ']'" pos

let rec find_in names str i =
  if i = Array.length names then -1
  else if String.equal names.(i) str then i
  else find_in names str (i + 1)

(* The index in [names] of the name that lies at [pos] followed by a
   closing quote, or -1: a string body without escapes, matched as it
   is scanned. *)
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

(* The index in [names] of the string whose body lies in [s, e), or
   -1. *)
let lookup names b s e =
  if has_escape b s e then find_in names (unescape b s e) 0
  else quoted_at names b s (e + 1) 0

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

(* The state of a string-valued field whose value lies in [s, e). *)
let string_field names b s e =
  if Bytes.unsafe_get b s <> '"' then wrong
  else
    let i = lookup names b (s + 1) (e - 1) in
    if i < 0 then unknown else i

let decode_exn b off lim =
  let pos = skip_ws b off lim in
  if peek b pos lim <> '{' then begin
    (* Valid or not, a value other than an object names no op. *)
    let pos = skip_ws b (skip_value b pos lim 0) lim in
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
      let ke =
        if known >= 0 then ks + String.length keys.(known) + 1
        else string_body b ks lim None
      in
      let field = if known >= 0 then known else lookup keys b ks (ke - 1) in
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
          let ve = skip_value b vs lim 1 in
          (match field with
          | 0 when !op = absent ->
              op := string_field ops b vs ve;
              if !op = unknown then op_text := unescape b (vs + 1) (ve - 1)
          | 1 when !id_state = absent ->
              if is_int b vs ve then begin
                id_state := present;
                id_value := int_value b vs ve
              end
              else id_state := wrong
          | 2 when !key = absent ->
              if is_int b vs ve then begin
                key := present;
                key_value := int_value b vs ve
              end
              else key := wrong
          | 3 when !format = absent ->
              format := string_field formats b vs ve;
              if !format = unknown then format_text := unescape b (vs + 1) (ve - 1)
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
  with Syntax (msg, pos) ->
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
