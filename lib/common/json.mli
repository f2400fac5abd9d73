(** Minimal JSON values, serializer and parser: the one JSON codec of
    the repository (result sinks, the serve wire protocol, telemetry
    views, trace export).

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

val add_utf8 : Buffer.t -> int -> unit
(** Append the UTF-8 encoding of a code point (at most [0x10FFFF]), as
    the parser decodes a [\u] escape. *)

val strip_keys : keys:string list -> t -> t
(** Recursively drop every object field whose name is in [keys].  Used
    to remove wall-clock fields before determinism comparisons. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on other constructors. *)

val float_repr : float -> string
(** The serializer's representation of a finite float. *)

val of_string : string -> (t, string) result
(** Parse standard JSON text (the inverse of [to_string]).  Number
    literals without a fraction or exponent that fit in a native [int]
    parse as [Int]; everything else numeric parses as [Float].  [Error]
    carries a message with the byte offset of the failure. *)
