(* A declarative experiment: identity, the paper claim it checks, tags
   for selection, the quick/full grid it sweeps, and the measurement
   body.  The 22 bench experiments and the micro benchmark are all
   values of this type, registered in Bench.Registry. *)

type t = {
  id : string;  (* CLI id, lower case: "e1" .. "e22", "micro" *)
  claim : string;  (* one-line paper claim, shown in headings and --list *)
  tags : string list;
  grid : Grid.t option;
  default : bool;  (* part of the no-argument run? *)
  auto_heading : bool;  (* driver prints the "#### ID — claim" heading *)
  run : Ctx.t -> unit;
}

let v ?(tags = []) ?grid ?(default = true) ?(auto_heading = true) ~id ~claim
    run =
  if id = "" then invalid_arg "Spec.v: empty id";
  { id; claim; tags; grid; default; auto_heading; run }

let has_tag t tag = List.mem tag t.tags
