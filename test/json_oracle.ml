(* The JSON parser as it read before [Common.Json] scanned byte slices:
   a recursive descent over a string that builds [Common.Json.t], kept
   verbatim as the oracle that [Common.Json.of_string] (and, through
   [test/wire_oracle.ml], [Serve.Wire.decode]) must match document for
   document, error messages and offsets included. *)

open Common.Json

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
