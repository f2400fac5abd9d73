(** A declarative experiment spec.

    Identity, the paper claim it checks, selection tags, the quick/full
    grid it sweeps, and the measurement body wired through {!Ctx}. *)

type t = private {
  id : string;  (** CLI id, lower case: ["e1"] .. ["e22"], ["micro"]. *)
  claim : string;  (** One-line paper claim, shown in headings and [--list]. *)
  tags : string list;
  grid : Grid.t option;
  default : bool;  (** Included in the no-argument run. *)
  auto_heading : bool;  (** Driver prints the ["#### ID — claim"] heading. *)
  run : Ctx.t -> unit;
}

val v :
  ?tags:string list ->
  ?grid:Grid.t ->
  ?default:bool ->
  ?auto_heading:bool ->
  id:string ->
  claim:string ->
  (Ctx.t -> unit) ->
  t
(** [default] and [auto_heading] default to [true].
    @raise Invalid_argument on an empty id. *)

val has_tag : t -> string -> bool
