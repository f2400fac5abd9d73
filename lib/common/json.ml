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

(* Recursive-descent parser, the inverse of [to_string].  Exists so the
   trace checker and tests can validate emitted artifacts without
   external dependencies; accepts standard JSON (with \uXXXX escapes and
   surrogate pairs), not extensions. *)

exception Parse_error of string * int

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

let of_string text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (msg, !pos)) in
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let k = String.length word in
    if !pos + k <= n && String.sub text !pos k = word then begin
      pos := !pos + k;
      v
    end
    else fail "invalid literal"
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match text.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      incr pos
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match text.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          if !pos >= n then fail "truncated escape";
          let c = text.[!pos] in
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
              let cp = hex4 () in
              let cp =
                if cp >= 0xD800 && cp <= 0xDBFF then begin
                  (* High surrogate: a low surrogate must follow. *)
                  if !pos + 1 < n && text.[!pos] = '\\' && text.[!pos + 1] = 'u'
                  then begin
                    pos := !pos + 2;
                    let lo = hex4 () in
                    if lo < 0xDC00 || lo > 0xDFFF then
                      fail "invalid low surrogate";
                    0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                  end
                  else fail "lone high surrogate"
                end
                else if cp >= 0xDC00 && cp <= 0xDFFF then
                  fail "lone low surrogate"
                else cp
              in
              add_utf8 buf cp
          | _ -> fail "invalid escape");
          go ()
      | c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = '-' then advance ();
    while
      !pos < n
      &&
      match text.[!pos] with
      | '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true
      | _ -> false
    do
      incr pos
    done;
    let lit = String.sub text start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit
    in
    if is_float then
      match float_of_string_opt lit with
      | Some x -> Float x
      | None -> fail "invalid number"
    else
      match int_of_string_opt lit with
      | Some i -> Int i
      | None -> (
          (* Integer literal outside the native int range. *)
          match float_of_string_opt lit with
          | Some x -> Float x
          | None -> fail "invalid number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin
          advance ();
          Obj []
        end
        else begin
          let acc = ref [] in
          let rec fields () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            acc := (k, v) :: !acc;
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                fields ()
            | '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          fields ();
          Obj (List.rev !acc)
        end
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin
          advance ();
          List []
        end
        else begin
          let acc = ref [] in
          let rec elems () =
            let v = parse_value () in
            acc := v :: !acc;
            skip_ws ();
            match peek () with
            | ',' ->
                advance ();
                elems ()
            | ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          elems ();
          List (List.rev !acc)
        end
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> parse_number ()
    | _ -> fail "unexpected character"
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing input after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (msg, p) ->
      Error (Printf.sprintf "%s at offset %d" msg p)
