type 'state t = { states : 'state array; index : ('state, int) Hashtbl.t }

let make states =
  if Array.length states = 0 then invalid_arg "Space.make: empty state space";
  let index = Hashtbl.create (2 * Array.length states) in
  Array.iteri
    (fun i s ->
      if Hashtbl.mem index s then invalid_arg "Space.make: duplicate state";
      Hashtbl.add index s i)
    states;
  { states = Array.copy states; index }

let size t = Array.length t.states
let state t i = t.states.(i)
let find_opt t s = Hashtbl.find_opt t.index s

let dense_law t law =
  let v = Array.make (size t) 0. in
  let mass = ref 0. in
  List.iter
    (fun (s, p) ->
      match find_opt t s with
      | Some i ->
          v.(i) <- v.(i) +. p;
          mass := !mass +. p
      | None -> invalid_arg "Space.dense_law: successor outside the space")
    law;
  if Float.abs (!mass -. 1.) > 1e-9 then
    invalid_arg "Space.dense_law: law does not sum to 1";
  v

type counts = { freq : Stats.Freq.t; escapes : int }

let samples_counter = Obs.Counter.make "validate.samples"
let escapes_counter = Obs.Counter.make "validate.escapes"

(* The fan-out returns raw observations per repetition; indexing happens
   on the calling domain so the (read-mostly) hash table never races
   with anything. *)
let collect ?domains ~rng ~reps t ~sample =
  let r = Engine.Runner.run ?domains ~rng ~reps (fun g _metrics -> sample g) in
  let freq = Stats.Freq.create ~size:(size t) in
  let escapes = ref 0 in
  Array.iter
    (fun obs ->
      Array.iter
        (fun s ->
          match find_opt t s with
          | Some i -> Stats.Freq.observe freq i
          | None -> incr escapes)
        obs)
    r.Engine.Runner.observations;
  Obs.Counter.add samples_counter (Stats.Freq.total freq + !escapes);
  Obs.Counter.add escapes_counter !escapes;
  { freq; escapes = !escapes }
