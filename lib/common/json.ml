type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Shortest decimal representation that round-trips; non-finite floats
   have no JSON encoding and collapse to null. *)
let float_repr x =
  let s = Printf.sprintf "%.15g" x in
  let s = if float_of_string s = x then s else Printf.sprintf "%.17g" x in
  if String.contains s '.' || String.contains s 'e' || String.contains s 'E'
  then s
  else s ^ ".0"

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let escape_string buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

let rec write buf ~indent ~level v =
  let pad n = if indent > 0 then Buffer.add_string buf (String.make (n * indent) ' ') in
  let nl () = if indent > 0 then Buffer.add_char buf '\n' in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x ->
      if Float.is_finite x then Buffer.add_string buf (float_repr x)
      else Buffer.add_string buf "null"
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List xs ->
      Buffer.add_char buf '[';
      nl ();
      List.iteri
        (fun i x ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (level + 1);
          write buf ~indent ~level:(level + 1) x)
        xs;
      nl ();
      pad level;
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj kvs ->
      Buffer.add_char buf '{';
      nl ();
      List.iteri
        (fun i (k, x) ->
          if i > 0 then begin
            Buffer.add_char buf ',';
            nl ()
          end;
          pad (level + 1);
          escape_string buf k;
          Buffer.add_string buf (if indent > 0 then ": " else ":");
          write buf ~indent ~level:(level + 1) x)
        kvs;
      nl ();
      pad level;
      Buffer.add_char buf '}'

let to_string ?(indent = 2) v =
  let buf = Buffer.create 4096 in
  write buf ~indent ~level:0 v;
  Buffer.contents buf

let rec strip_keys ~keys = function
  | Obj kvs ->
      Obj
        (List.filter_map
           (fun (k, v) ->
             if List.mem k keys then None else Some (k, strip_keys ~keys v))
           kvs)
  | List xs -> List (List.map (strip_keys ~keys) xs)
  | v -> v

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

(* {2 Parser}

   One scanner and one recursive descent over a byte slice, shared by
   [of_string] and the serve wire decoder.  Positions are absolute
   indices into the bytes and [lim] is the end of the slice; every
   reader returns the position after what it read.  Standard JSON only
   (with \uXXXX escapes and surrogate pairs), no extensions. *)

exception Parse_error of string * int

let fail msg pos = raise (Parse_error (msg, pos))
let[@inline] peek b pos lim = if pos < lim then Bytes.unsafe_get b pos else '\000'

let rec skip_ws b pos lim =
  if pos < lim then
    match Bytes.unsafe_get b pos with
    | ' ' | '\t' | '\n' | '\r' -> skip_ws b (pos + 1) lim
    | _ -> pos
  else pos

let expect b pos lim c =
  if peek b pos lim = c then pos + 1 else fail (Printf.sprintf "expected '%c'" c) pos

(* Whether [s] lies in the bytes at [pos] (the caller checked the
   length fits). *)
let rec same_at b pos s i =
  i = String.length s
  || (Bytes.unsafe_get b (pos + i) = String.unsafe_get s i && same_at b pos s (i + 1))

let literal b pos lim word v =
  let k = String.length word in
  if pos + k <= lim && same_at b pos word 0 then (v, pos + k) else fail "invalid literal" pos

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

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

(* A \u escape from just after its 'u', and the low half that must
   follow a high surrogate: its code point appended to [buf]. *)
let unicode_escape buf b pos lim =
  let cp = hex4 b pos lim in
  let pos = pos + 4 in
  if cp >= 0xD800 && cp <= 0xDBFF then
    if pos + 1 < lim && Bytes.unsafe_get b pos = '\\' && Bytes.unsafe_get b (pos + 1) = 'u'
    then begin
      let lo = hex4 b (pos + 2) lim in
      let pos = pos + 6 in
      if lo < 0xDC00 || lo > 0xDFFF then fail "invalid low surrogate" pos;
      add_utf8 buf (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00));
      pos
    end
    else fail "lone high surrogate" pos
  else if cp >= 0xDC00 && cp <= 0xDFFF then fail "lone low surrogate" pos
  else begin
    add_utf8 buf cp;
    pos
  end

(* The rest of a string body from [pos], unescaped into [buf]. *)
let rec unescape buf b pos lim =
  if pos >= lim then fail "unterminated string" pos;
  match Bytes.unsafe_get b pos with
  | '"' -> pos + 1
  | '\\' ->
      let pos = pos + 1 in
      if pos >= lim then fail "truncated escape" pos;
      let pos =
        match Bytes.unsafe_get b pos with
        | 'u' -> unicode_escape buf b (pos + 1) lim
        | c ->
            Buffer.add_char buf
              (match c with
              | '"' | '\\' | '/' -> c
              | 'n' -> '\n'
              | 'r' -> '\r'
              | 't' -> '\t'
              | 'b' -> '\b'
              | 'f' -> '\012'
              | _ -> fail "invalid escape" (pos + 1));
            pos + 1
      in
      unescape buf b pos lim
  | c ->
      Buffer.add_char buf c;
      unescape buf b (pos + 1) lim

(* The first quote or backslash at or after [i], or [lim]. *)
let rec plain_end b i lim =
  if i < lim && (match Bytes.unsafe_get b i with '"' | '\\' -> false | _ -> true)
  then plain_end b (i + 1) lim
  else i

let read_string b pos lim =
  let i = plain_end b pos lim in
  if i < lim && Bytes.unsafe_get b i = '"' then (Bytes.sub_string b pos (i - pos), i + 1)
  else begin
    let buf = Buffer.create (i - pos + 16) in
    Buffer.add_subbytes buf b pos (i - pos);
    let e = unescape buf b i lim in
    (Buffer.contents buf, e)
  end

let rec number_end b pos lim =
  if pos < lim then
    match Bytes.unsafe_get b pos with
    | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> number_end b (pos + 1) lim
    | _ -> pos
  else pos

let rec all_digits b i e =
  i = e || (match Bytes.unsafe_get b i with '0' .. '9' -> all_digits b (i + 1) e | _ -> false)

let rec digits_value b i e v =
  if i = e then v
  else digits_value b (i + 1) e ((v * 10) + Char.code (Bytes.unsafe_get b i) - Char.code '0')

(* A literal without a fraction or exponent is an [Int] when
   [int_of_string_opt] reads it; every other literal is a [Float]. *)
let number b pos lim =
  let e = number_end b pos lim in
  let d = if Bytes.unsafe_get b pos = '-' then pos + 1 else pos in
  if e > d && e - d <= 18 && all_digits b d e then begin
    (* No 18-digit literal overflows a native int: read it in place. *)
    let v = digits_value b d e 0 in
    (Int (if d > pos then -v else v), e)
  end
  else
    let lit = Bytes.sub_string b pos (e - pos) in
    let int =
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then None
      else int_of_string_opt lit
    in
    match int with
    | Some i -> (Int i, e)
    | None -> (
        match float_of_string_opt lit with
        | Some x -> (Float x, e)
        | None -> fail "invalid number" e)

let rec read_value ~max_depth ~depth b pos lim =
  let pos = skip_ws b pos lim in
  match peek b pos lim with
  | ('{' | '[') as c ->
      if depth >= max_depth then
        fail (Printf.sprintf "nesting deeper than %d" max_depth) pos;
      let depth = depth + 1 in
      let pos = skip_ws b (pos + 1) lim in
      if c = '{' then
        if peek b pos lim = '}' then (Obj [], pos + 1)
        else fields ~max_depth ~depth b pos lim []
      else if peek b pos lim = ']' then (List [], pos + 1)
      else elems ~max_depth ~depth b pos lim []
  | '"' ->
      let s, e = read_string b (pos + 1) lim in
      (String s, e)
  | 't' -> literal b pos lim "true" (Bool true)
  | 'f' -> literal b pos lim "false" (Bool false)
  | 'n' -> literal b pos lim "null" Null
  | '-' | '0' .. '9' -> number b pos lim
  | _ -> fail "unexpected character" pos

and fields ~max_depth ~depth b pos lim acc =
  let k, pos = read_string b (expect b (skip_ws b pos lim) lim '"') lim in
  let v, pos = read_value ~max_depth ~depth b (expect b (skip_ws b pos lim) lim ':') lim in
  let acc = (k, v) :: acc in
  let pos = skip_ws b pos lim in
  match peek b pos lim with
  | ',' -> fields ~max_depth ~depth b (pos + 1) lim acc
  | '}' -> (Obj (List.rev acc), pos + 1)
  | _ -> fail "expected ',' or '}'" pos

and elems ~max_depth ~depth b pos lim acc =
  let v, pos = read_value ~max_depth ~depth b pos lim in
  let acc = v :: acc in
  let pos = skip_ws b pos lim in
  match peek b pos lim with
  | ',' -> elems ~max_depth ~depth b (pos + 1) lim acc
  | ']' -> (List (List.rev acc), pos + 1)
  | _ -> fail "expected ',' or ']'" pos

let of_string text =
  let b = Bytes.unsafe_of_string text and lim = String.length text in
  match
    let v, pos = read_value ~max_depth:max_int ~depth:0 b 0 lim in
    let pos = skip_ws b pos lim in
    if pos <> lim then fail "trailing input after value" pos;
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, p) -> Error (Printf.sprintf "%s at offset %d" msg p)
