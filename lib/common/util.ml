(* Filesystem helpers shared by the result sinks and the serve store. *)

(* Like mkdir -p; tolerates another process or domain creating the same
   component between the existence check and the mkdir. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755
    with Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end

(* Keep only [A-Za-z0-9_-] so a table title is a safe file name. *)
let sanitize_component s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> c
      | _ -> '_')
    s
