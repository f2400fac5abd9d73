(* The one binary encoding of the durable files: int64 LE integers,
   binary64 LE floats, length-prefixed strings and arrays, one
   bounds-checked cursor and one typed error. *)

type error = Truncated of int | Corrupt of int * string

exception Error of error

let describe ~path = function
  | Truncated at -> Printf.sprintf "%s: truncated at byte %d" path at
  | Corrupt (at, what) ->
      Printf.sprintf "%s: corrupt at byte %d (%s)" path at what

let corrupt at what = raise (Error (Corrupt (at, what)))

(* {2 Encoding} *)

let put_int64 = Buffer.add_int64_le
let put_int buf v = put_int64 buf (Int64.of_int v)
let put_float buf v = put_int64 buf (Int64.bits_of_float v)
let put_byte = Buffer.add_uint8

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

let put_int_slice buf a ~pos ~len =
  for i = pos to pos + len - 1 do
    put_int buf a.(i)
  done

let put_float_slice buf a ~pos ~len =
  for i = pos to pos + len - 1 do
    put_float buf a.(i)
  done

let put_prefixed put buf a =
  put_int buf (Array.length a);
  put buf a ~pos:0 ~len:(Array.length a)

let put_ints = put_prefixed put_int_slice
let put_floats = put_prefixed put_float_slice

let put_int64s buf a =
  put_int buf (Array.length a);
  Array.iter (put_int64 buf) a

(* {2 Decoding} *)

(* [base] is the file offset of [data.[0]], so errors name file bytes
   whether the cursor holds a whole file or one positioned read. *)
type cursor = { data : string; base : int; mutable pos : int }

let cursor data = { data; base = 0; pos = 0 }
let offset c = c.base + c.pos
let at_end c = c.pos = String.length c.data

(* [n] items of [size] bytes must fit in what is left. *)
let check_items c n ~size =
  if n < 0 then corrupt (offset c) "negative length"
  else if n > (String.length c.data - c.pos) / size then
    raise (Error (Truncated (offset c)))

(* Claim the next [n] bytes; their start in [data]. *)
let advance c n =
  check_items c n ~size:1;
  c.pos <- c.pos + n;
  c.pos - n

let get_int64 c = String.get_int64_le c.data (advance c 8)
let get_int c = Int64.to_int (get_int64 c)
let get_float c = Int64.float_of_bits (get_int64 c)

let get_tag c n what =
  let t = Char.code c.data.[advance c 1] in
  if t >= n then corrupt (offset c - 1) what else t

let get_count c ~size =
  let n = get_int c in
  check_items c n ~size;
  n

let get_string c =
  let n = get_count c ~size:1 in
  String.sub c.data (advance c n) n

(* Where [n] 8-byte items start in [data]. *)
let slice c n =
  check_items c n ~size:8;
  advance c (8 * n)

let get_int_slice c n =
  let p = slice c n in
  Array.init n (fun i ->
      Int64.to_int (String.get_int64_le c.data (p + (8 * i))))

(* A loop, not [Array.init], so no value is boxed on the way. *)
let get_float_slice c n =
  let p = slice c n in
  let a = Array.create_float n in
  for i = 0 to n - 1 do
    a.(i) <- Int64.float_of_bits (String.get_int64_le c.data (p + (8 * i)))
  done;
  a

let get_ints c = get_int_slice c (get_count c ~size:8)
let get_floats c = get_float_slice c (get_count c ~size:8)
let get_int64s c = Array.init (get_count c ~size:8) (fun _ -> get_int64 c)

let expect c lit =
  let at = offset c and n = String.length lit in
  if String.sub c.data (advance c n) n <> lit then
    corrupt at (Printf.sprintf "want %S" lit)

let finish c = if not (at_end c) then corrupt (offset c) "trailing bytes"

(* {2 Files} *)

let read_file path =
  if not (Sys.file_exists path) then None
  else
    In_channel.with_open_bin path (fun ch ->
        Some (really_input_string ch (in_channel_length ch)))

let read_at ch ~pos ~len =
  if pos < 0 || len < 0 || len > in_channel_length ch - pos then
    raise (Error (Truncated (Stdlib.max 0 pos)));
  seek_in ch pos;
  { data = really_input_string ch len; base = pos; pos = 0 }

let write_file path buf =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun ch -> Buffer.output_buffer ch buf);
  Sys.rename tmp path
