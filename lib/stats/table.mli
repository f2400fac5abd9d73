(** Plain-text tables.

    Every experiment in the benchmark harness prints its result as one of
    these, mirroring how the paper's claims would appear as tables. *)

type t

val create : title:string -> columns:string list -> t
(** [create ~title ~columns] starts an empty table. *)

val add_row : t -> string list -> unit
(** Append a row.
    @raise Invalid_argument if the arity differs from [columns]. *)

val add_note : t -> string -> unit
(** Append a free-form footnote rendered under the table. *)

val pp : Format.formatter -> t -> unit
val print : t -> unit
(** [pp]/[print] render with a title line, aligned columns and rules. *)

val to_csv : ?notes:bool -> t -> string
(** RFC 4180 CSV: header row then data rows.  Cells containing commas,
    quotes, CR or LF are quoted, with embedded quotes doubled, so the
    output round-trips through any conforming parser (records are
    LF-separated; RFC 4180 parsers accept both).  With [~notes:true]
    each footnote is appended as a trailing record of the form
    [note,<text>,...] padded to the header arity; the default omits
    notes, matching the historical layout. *)

val title : t -> string
val columns : t -> string list
val rows : t -> string list list
(** Rows in insertion order. *)

val notes : t -> string list
(** Notes in insertion order. *)
