type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () =
  { data = Array.make (Stdlib.max capacity 1) 0; len = 0 }

let length v = v.len

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Int_vec: index out of bounds"

let get v i = check v i; v.data.(i)
let set v i x = check v i; v.data.(i) <- x

let push v x =
  if v.len = Array.length v.data then begin
    let data = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 data 0 v.len;
    v.data <- data
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Int_vec.pop: empty";
  v.len <- v.len - 1;
  v.data.(v.len)

let swap_remove v i =
  check v i;
  let x = v.data.(i) in
  v.len <- v.len - 1;
  v.data.(i) <- v.data.(v.len);
  x
