(** Minimal JSON values, serializer and parser: the one JSON codec of
    the repository (result sinks, the serve wire protocol, telemetry
    views, trace export).

    The parser is the only JSON scanner in the repository: one
    recursive descent over a byte slice ({!read_value}), which
    {!of_string} runs over a whole string and the serve wire decoder
    over a request line for every value it does not match in place.

    Kept dependency-free on purpose: the toolchain is pinned, so no
    layer can assume yojson. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Serialize. [indent] spaces per level (default 2); [~indent:0] is
    compact one-line output.  Non-finite floats serialize as [null]
    (JSON has no encoding for them); finite floats use the shortest
    representation that round-trips through [float_of_string]. *)

val add_escaped : Buffer.t -> string -> unit
(** Append the body of a JSON string literal (no surrounding quotes):
    quote, backslash and control characters escaped, every other byte
    (UTF-8 included) as is.  The serializer's own escaper. *)

val strip_keys : keys:string list -> t -> t
(** Recursively drop every object field whose name is in [keys].  Used
    to remove wall-clock fields before determinism comparisons. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on other constructors. *)

val float_repr : float -> string
(** The serializer's representation of a finite float. *)

val of_string : string -> (t, string) result
(** Parse standard JSON text (the inverse of [to_string]), with no
    nesting limit.  Number literals without a fraction or exponent that
    fit in a native [int] parse as [Int]; everything else numeric
    parses as [Float].  [Error] carries a message with the byte offset
    of the failure, ["<what> at offset <n>"]. *)

(** {2 Reading a byte slice}

    Positions are absolute indices into the bytes, [lim] is the end of
    the slice, and each reader returns what it read with the position
    just after it. *)

exception Parse_error of string * int
(** Malformed text: what is wrong, and the position where it was
    found. *)

val read_value :
  max_depth:int -> depth:int -> Bytes.t -> int -> int -> t * int
(** [read_value ~max_depth ~depth b pos lim] reads one value after
    optional whitespace at [pos], inside [depth] enclosing objects or
    arrays.  Objects and arrays nest at most [max_depth] deep, the
    enclosing ones included: one more fails with ["nesting deeper than
    <max_depth>"] at its opening bracket.
    @raise Parse_error on malformed text. *)

val read_string : Bytes.t -> int -> int -> string * int
(** [read_string b pos lim] reads a string literal whose opening quote
    lies just before [pos]: its unescaped text and the position after
    its closing quote.
    @raise Parse_error on malformed text. *)
