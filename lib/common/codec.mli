(** The binary encoding of every durable file: the serve snapshot and
    journal ([Serve.Journal]), the exact-analysis checkpoint
    ([Markov.Exact_checkpoint]) and the blocked-CSR spill
    ([Markov.Blocked_csr]).  Those modules keep their field layouts;
    this one owns the primitives.

    Integers are int64 little-endian, floats IEEE-754 binary64
    little-endian; strings and arrays carry such an integer as a length
    prefix, {e slices} (whose length the layout fixes) do not.  Writers
    append to a [Buffer.t]; readers walk a bounds-checked {!cursor}
    that raises {!Error} at the file offset of the first field it
    cannot read. *)

type error =
  | Truncated of int  (** The field at this offset runs past the end. *)
  | Corrupt of int * string  (** The field at this offset is not [what]. *)

exception Error of error

val describe : path:string -> error -> string
(** ["PATH: truncated at byte N"] or ["PATH: corrupt at byte N (WHAT)"]. *)

val corrupt : int -> string -> 'a
(** [corrupt offset what] raises [Error (Corrupt (offset, what))]. *)

(** {1 Encoding} *)

val put_int : Buffer.t -> int -> unit
val put_float : Buffer.t -> float -> unit
val put_byte : Buffer.t -> int -> unit
val put_string : Buffer.t -> string -> unit
val put_ints : Buffer.t -> int array -> unit
val put_int64s : Buffer.t -> int64 array -> unit
val put_floats : Buffer.t -> float array -> unit

val put_int_slice : Buffer.t -> int array -> pos:int -> len:int -> unit
(** [a.(pos) .. a.(pos + len - 1)], unprefixed. *)

val put_float_slice : Buffer.t -> float array -> pos:int -> len:int -> unit

(** {1 Decoding} *)

type cursor

val cursor : string -> cursor
(** A cursor at offset 0 of a whole file's bytes. *)

val offset : cursor -> int
val at_end : cursor -> bool
val get_int : cursor -> int
val get_float : cursor -> float
val get_string : cursor -> string
val get_ints : cursor -> int array
val get_int64s : cursor -> int64 array
val get_floats : cursor -> float array
val get_int_slice : cursor -> int -> int array
val get_float_slice : cursor -> int -> float array

val get_tag : cursor -> int -> string -> int
(** A byte below [n]; [Corrupt] naming [what] otherwise. *)

val get_count : cursor -> size:int -> int
(** A length prefix for items of at least [size] bytes each: [Corrupt]
    when negative, [Truncated] when the rest cannot hold that many. *)

val expect : cursor -> string -> unit
(** The literal bytes of a magic string or trailer. *)

val finish : cursor -> unit
(** [Corrupt] unless the cursor is at the end. *)

(** {1 Files} *)

val read_file : string -> string option
(** The whole file; [None] when it does not exist. *)

val read_at : in_channel -> pos:int -> len:int -> cursor
(** [len] bytes from [pos], as a cursor reporting file offsets;
    [Truncated] when they are not all in the file. *)

val write_file : string -> Buffer.t -> unit
(** Write [path ^ ".tmp"] and rename it over [path]: a kill leaves the
    old file or the new one, never part of either. *)
