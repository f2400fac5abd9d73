(* The exact one-step law as first written: one outcome per (removal
   load class × insertion rank), the rank law recomputed for every
   removal class, duplicates left for the row builder to merge.
   [Core.Dynamic_process.exact_transitions] now emits one outcome per
   (removal class × insertion class); this is the reference its law is
   tested against. *)

module Lv = Loadvec.Load_vector

let exact_transitions process lv =
  let scenario = Core.Dynamic_process.scenario process in
  let rule = Core.Dynamic_process.rule process in
  let loads = Lv.to_array lv in
  let removal = Core.Scenario.removal_distribution scenario ~loads in
  let out = ref [] in
  let nranks = Array.length loads in
  let i = ref 0 in
  while !i < nranks do
    let v_i = loads.(!i) in
    let j = ref !i in
    let p_class = ref 0. in
    while !j < nranks && loads.(!j) = v_i do
      p_class := !p_class +. removal.(!j);
      incr j
    done;
    if !p_class > 0. then begin
      let after_removal = Lv.ominus lv !i in
      let loads' = Lv.to_array after_removal in
      let insertion =
        Core.Scheduling_rule.rank_distribution rule ~loads:loads'
      in
      Array.iteri
        (fun r p_ins ->
          if p_ins > 0. then
            out := (Lv.oplus after_removal r, !p_class *. p_ins) :: !out)
        insertion
    end;
    i := !j
  done;
  !out
