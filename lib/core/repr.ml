(* Which state representation backs a stepper.  The array backend is
   the oracle every other backend is checked against; the count
   backends trade the O(n) sorted array for the O(L) multiset of
   Loadvec.Count_vector.  See DESIGN.md, "The representation layer". *)

type t =
  | Array_backed  (* sorted load array (Mutable_vector / Bins) — oracle *)
  | Count_backed  (* count vector, same RNG draw order as the array *)
  | Count_sampled  (* count vector + cutoff-table d-choice sampling *)

let all = [ Array_backed; Count_backed; Count_sampled ]

let name = function
  | Array_backed -> "array"
  | Count_backed -> "counts"
  | Count_sampled -> "counts-sampled"

let of_string = function
  | "array" -> Ok Array_backed
  | "counts" -> Ok Count_backed
  | "counts-sampled" -> Ok Count_sampled
  | s ->
      Error
        (Printf.sprintf
           "unknown representation %S (expected one of: %s)" s
           (String.concat ", " (List.map name all)))

let help = "array | counts | counts-sampled"
