(* The four state words live in one 32-byte buffer, read and written as
   raw 64-bit loads and stores, so a step keeps them unboxed.  A record
   of [mutable int64] fields would box every word it stores, and under
   the dev profile's -opaque no caller in another module can see through
   a returned [int64] either; so the int views [next_int] and
   [next_top53] return tagged ints. *)
type t = Bytes.t

external get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let make s0 s1 s2 s3 =
  let g = Bytes.create 32 in
  set g 0 s0;
  set g 8 s1;
  set g 16 s2;
  set g 24 s3;
  g

let of_splitmix sm =
  let s0 = Splitmix64.next sm in
  let s1 = Splitmix64.next sm in
  let s2 = Splitmix64.next sm in
  let s3 = Splitmix64.next sm in
  (* An all-zero state is a fixed point of the recurrence; SplitMix64 cannot
     produce four zero words from mixing, but guard anyway. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then make 1L s1 s2 s3
  else make s0 s1 s2 s3

let of_seed seed = of_splitmix (Splitmix64.create seed)

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let[@inline] advance g =
  let open Int64 in
  let s0 = get g 0 and s1 = get g 8 and s2 = get g 16 and s3 = get g 24 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let t = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set g 8 (logxor s1 s2);
  set g 0 (logxor s0 s3);
  set g 16 (logxor s2 t);
  set g 24 (rotl s3 45);
  result

let next g = advance g
let next_int g = Int64.to_int (advance g)
let next_top53 g = Int64.to_int (Int64.shift_right_logical (advance g) 11)

let jump_table = [| 0x180EC6D33CFD0ABAL; 0xD5A61266F0C9392CL; 0xA9582618E03FC9AAL; 0x39ABDC4529B1661CL |]

let jump g =
  let s0 = ref 0L and s1 = ref 0L and s2 = ref 0L and s3 = ref 0L in
  Array.iter
    (fun jump_word ->
      for b = 0 to 63 do
        if Int64.logand jump_word (Int64.shift_left 1L b) <> 0L then begin
          s0 := Int64.logxor !s0 (get g 0);
          s1 := Int64.logxor !s1 (get g 8);
          s2 := Int64.logxor !s2 (get g 16);
          s3 := Int64.logxor !s3 (get g 24)
        end;
        ignore (advance g)
      done)
    jump_table;
  set g 0 !s0;
  set g 8 !s1;
  set g 16 !s2;
  set g 24 !s3

let state g = [| get g 0; get g 8; get g 16; get g 24 |]

let of_state words =
  if Array.length words <> 4 then invalid_arg "Xoshiro.of_state: need 4 words";
  if Array.for_all (Int64.equal 0L) words then
    invalid_arg "Xoshiro.of_state: all-zero state";
  make words.(0) words.(1) words.(2) words.(3)
