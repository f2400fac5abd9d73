type t = {
  mutable steps : int;
  mutable probes : int;
  mutable rng_draws : int;
  mutable watermark : int;
  phases : (string, float) Hashtbl.t;
}

type snapshot = {
  steps : int;
  probes : int;
  rng_draws : int;
  watermark : int;
  phases : (string * float) list;
}

let create () : t =
  {
    steps = 0;
    probes = 0;
    rng_draws = 0;
    watermark = min_int;
    phases = Hashtbl.create 4;
  }

let add_step (m : t) = m.steps <- m.steps + 1

let steps (m : t) = m.steps

(* Probes per insertion is one of the paper's headline distributions
   (ADAP vs ABKU[d]); every adapter report feeds the shared telemetry
   histogram when tracing is on. *)
let probes_hist = Obs.Histogram.make "engine.probes_per_insertion"

let add_probes (m : t) k =
  if k < 0 then invalid_arg "Metrics.add_probes: negative count";
  m.probes <- m.probes + k;
  Obs.Histogram.observe probes_hist k

let add_draws (m : t) k =
  if k < 0 then invalid_arg "Metrics.add_draws: negative count";
  m.rng_draws <- m.rng_draws + k

let watermark (m : t) level = if level > m.watermark then m.watermark <- level
let watermark_level (m : t) = m.watermark

let add_phase (m : t) name seconds =
  let prev = match Hashtbl.find_opt m.phases name with Some s -> s | None -> 0. in
  Hashtbl.replace m.phases name (prev +. seconds)

(* Phase timing rides on the obs primitives: the monotonic clock (an
   NTP adjustment under Unix.gettimeofday could record a negative or
   inflated duration; deltas are additionally clamped at zero), and a
   span of the same name so traced runs see every phase. *)
let time m name f =
  let sp = Obs.begin_span name in
  let t0 = Obs.Clock.now_ns () in
  Fun.protect
    ~finally:(fun () ->
      add_phase m name (Obs.Clock.seconds_since t0);
      Obs.end_span sp)
    f

let snapshot (m : t) : snapshot =
  {
    steps = m.steps;
    probes = m.probes;
    rng_draws = m.rng_draws;
    watermark = m.watermark;
    phases =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.phases []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b);
  }

let zero =
  { steps = 0; probes = 0; rng_draws = 0; watermark = min_int; phases = [] }

let sum_phases (a : (string * float) list) (b : (string * float) list) =
  let tbl = Hashtbl.create 4 in
  List.iter (fun (k, v) -> Hashtbl.replace tbl k v) a;
  List.iter
    (fun (k, v) ->
      let prev = match Hashtbl.find_opt tbl k with Some s -> s | None -> 0. in
      Hashtbl.replace tbl k (prev +. v))
    b;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merge (a : snapshot) (b : snapshot) =
  {
    steps = a.steps + b.steps;
    probes = a.probes + b.probes;
    rng_draws = a.rng_draws + b.rng_draws;
    watermark = Stdlib.max a.watermark b.watermark;
    phases = sum_phases a.phases b.phases;
  }

let run_seconds (s : snapshot) =
  match List.assoc_opt "run" s.phases with
  | Some t -> t
  | None -> List.fold_left (fun acc (_, t) -> acc +. t) 0. s.phases

let per f num den = if den = 0 then "-" else Printf.sprintf f (float_of_int num /. float_of_int den)

let to_table ?(title = "engine metrics") (s : snapshot) =
  let table = Stats.Table.create ~title ~columns:[ "counter"; "value" ] in
  let add name value = Stats.Table.add_row table [ name; value ] in
  add "steps" (string_of_int s.steps);
  add "probes" (string_of_int s.probes);
  add "probes/step" (per "%.3f" s.probes s.steps);
  add "rng draws" (string_of_int s.rng_draws);
  add "draws/step" (per "%.3f" s.rng_draws s.steps);
  add "max-load watermark"
    (if s.watermark = min_int then "-" else string_of_int s.watermark);
  List.iter (fun (name, t) -> add (name ^ " seconds") (Printf.sprintf "%.3f" t))
    s.phases;
  let secs = run_seconds s in
  if secs > 0. && s.steps > 0 then
    add "steps/sec" (Printf.sprintf "%.3e" (float_of_int s.steps /. secs));
  table

(* The experiment harness sets this from its [--metrics] flag (or
   [BENCH_METRICS]); the engine itself only holds the flag. *)
let dump_flag = ref false
let set_dump on = dump_flag := on
let dump_enabled () = !dump_flag

let dump ?(label = "engine metrics") s =
  if dump_enabled () then Stats.Table.print (to_table ~title:label s)
