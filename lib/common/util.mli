(** Filesystem helpers shared by the result sinks and the serve store. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents, like [mkdir -p].  Safe
    against a concurrent process or domain creating the same component
    (the lost race is detected and ignored).
    @raise Sys_error if a path component exists but is not a directory. *)

val sanitize_component : string -> string
(** Replace every character outside [A-Za-z0-9_-] with ['_'], making an
    arbitrary table title usable as a file-name component. *)
