(* Tracing and telemetry.  The whole module is gated on one static flag:
   every recording entry point opens with [if not !on then ...], so the
   disabled path is a single load-and-branch with no allocation, and the
   hot step loops of the simulation engine keep their throughput.  When
   enabled, spans and instants accumulate in per-domain buffers (domain-
   local storage, registered under a mutex) and are merged after the
   parallel joins by sorting on the deterministic (track, seq) key, so
   the exported trace does not depend on the domain fan-out. *)

let on = ref false

module Clock = struct
  (* CLOCK_MONOTONIC via bechamel's stub: immune to NTP adjustments,
     which can make Unix.gettimeofday deltas negative or inflated. *)
  let now_ns () = Monotonic_clock.now ()

  (* The stub returns an unboxed int64 and [Monotonic_clock.now] inlines
     here, so the conversion allocates nothing; callers in other
     modules get an immediate. *)
  let now_int () = Int64.to_int (Monotonic_clock.now ())

  let ns_since t0 =
    let d = Int64.sub (now_ns ()) t0 in
    if Int64.compare d 0L < 0 then 0L else d

  let seconds_of_ns ns = Int64.to_float ns /. 1e9
  let seconds_since t0 = seconds_of_ns (ns_since t0)
end

let enabled () = !on

(* ---- log-bucketed histograms (the pure data structure) ---- *)

module Hist = struct
  (* Power-of-two buckets: bucket 0 holds values <= 0, bucket k >= 1
     holds [2^(k-1), 2^k - 1] (the k-bit values).  All cells are atomic
     so observation is safe from any domain; sums commute, so the merged
     totals are deterministic whatever the fan-out. *)
  let bucket_count = 63

  type t = {
    buckets : int Atomic.t array;
    count : int Atomic.t;
    sum : int Atomic.t;
    max : int Atomic.t;
  }

  let create () =
    {
      buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      sum = Atomic.make 0;
      max = Atomic.make min_int;
    }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 in
      let v = ref v in
      while !v > 0 do
        incr b;
        v := !v lsr 1
      done;
      !b
    end

  let rec raise_max cell v =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then raise_max cell v

  let observe h v =
    ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
    ignore (Atomic.fetch_and_add h.count 1);
    ignore (Atomic.fetch_and_add h.sum v);
    raise_max h.max v

  type snapshot = {
    count : int;
    sum : int;
    max : int;  (** [min_int] when empty. *)
    buckets : (int * int * int) list;
        (** Non-empty buckets as (lo, hi, count), in value order. *)
  }

  let snapshot (h : t) =
    let buckets = ref [] in
    for k = bucket_count - 1 downto 0 do
      let c = Atomic.get h.buckets.(k) in
      if c > 0 then begin
        let lo = if k = 0 then 0 else 1 lsl (k - 1) in
        let hi = if k = 0 then 0 else (1 lsl k) - 1 in
        buckets := (lo, hi, c) :: !buckets
      end
    done;
    {
      count = Atomic.get h.count;
      sum = Atomic.get h.sum;
      max = Atomic.get h.max;
      buckets = !buckets;
    }

  let reset (h : t) =
    Array.iter (fun c -> Atomic.set c 0) h.buckets;
    Atomic.set h.count 0;
    Atomic.set h.sum 0;
    Atomic.set h.max min_int

  let mean (s : snapshot) =
    if s.count = 0 then nan else float_of_int s.sum /. float_of_int s.count

  let empty : snapshot = { count = 0; sum = 0; max = min_int; buckets = [] }

  (* Buckets are keyed by their lower bound: two snapshots' bucket lists
     are aligned like a sorted merge, so merging is associative and
     commutative cell-by-cell (integer sums and max), which the qcheck
     properties pin down. *)
  let merge (a : snapshot) (b : snapshot) : snapshot =
    let rec go xs ys =
      match (xs, ys) with
      | [], rest | rest, [] -> rest
      | ((alo, ahi, ac) as x) :: xs', ((blo, _, bc) as y) :: ys' ->
          if alo = blo then (alo, ahi, ac + bc) :: go xs' ys'
          else if alo < blo then x :: go xs' ys
          else y :: go xs ys'
    in
    {
      count = a.count + b.count;
      sum = a.sum + b.sum;
      max = Stdlib.max a.max b.max;
      buckets = go a.buckets b.buckets;
    }

  (* Within-bucket linear interpolation: walk the buckets to the one
     holding rank [q * count] and place the estimate proportionally
     inside its [lo, hi] range.  The last bucket's upper edge is pulled
     in to the recorded max (the true largest observation lives there),
     so p999 never exceeds an observed value.  The estimate is exact to
     within the width of the bucket containing the true order statistic
     — the resolution contract of a log-bucketed histogram. *)
  let quantile (s : snapshot) q =
    if s.count = 0 then nan
    else begin
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      let interpolate lo hi c remaining =
        let frac =
          Float.max 0. (Float.min 1. (remaining /. float_of_int c))
        in
        float_of_int lo +. (frac *. float_of_int (hi - lo))
      in
      let rec go remaining = function
        | [] -> float_of_int s.max
        | [ (lo, hi, c) ] ->
            let hi = if s.max >= lo && s.max <= hi then s.max else hi in
            interpolate lo hi c remaining
        | (lo, hi, c) :: rest ->
            let fc = float_of_int c in
            if remaining <= fc then interpolate lo hi c remaining
            else go (remaining -. fc) rest
      in
      go (q *. float_of_int s.count) s.buckets
    end

  let points = [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999) ]
  let percentiles (s : snapshot) =
    List.map (fun (name, q) -> (name, quantile s q)) points
end

(* ---- the instrument registry ---- *)

let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

module Registry = struct
  module Json = Common.Json

  type kind = Counter | Gauge | Histogram
  type value = Int of int | Float of float | Hist of Hist.snapshot

  (* What a scrape reads.  The gated globals keep their cell or bank
     here, so [Counter.make] can hand back the instrument registered
     under a name and [reset] can zero it. *)
  type source =
    | Cell of int Atomic.t
    | Bank of Hist.t
    | Read of (unit -> value option)

  type series = {
    name : string;
    labels : (string * string) list;
    help : string;
    kind : kind;
    source : source;
  }

  type t = { mutable series : series list (* newest first *) }

  let create () = { series = [] }
  let global = create ()

  let add t ?(labels = []) ~help kind name source =
    with_lock (fun () ->
        if
          List.exists
            (fun s -> s.name = name && (s.labels = labels || s.kind <> kind))
            t.series
        then invalid_arg ("Obs.Registry: series registered twice: " ^ name);
        t.series <- { name; labels; help; kind; source } :: t.series)

  let int_series kind t ?labels ~help name read =
    add t ?labels ~help kind name (Read (fun () -> Some (Int (read ()))))

  let counter t = int_series Counter t
  let gauge t = int_series Gauge t

  let gauge_float t ?labels ~help name read =
    add t ?labels ~help Gauge name
      (Read (fun () -> Option.map (fun f -> Float f) (read ())))

  let histogram t ?labels ~help name h = add t ?labels ~help Histogram name (Bank h)

  (* The gated globals: the source registered under [name], or a fresh
     one registered now. *)
  let find_or_add t kind name fresh =
    with_lock (fun () ->
        match List.find_opt (fun s -> s.name = name) t.series with
        | Some s -> s.source
        | None ->
            let source = fresh () in
            t.series <- { name; labels = []; help = name; kind; source } :: t.series;
            source)

  let reset t =
    with_lock (fun () ->
        List.iter
          (fun s ->
            match s.source with
            | Cell c -> Atomic.set c 0
            | Bank h -> Hist.reset h
            | Read _ -> ())
          t.series)

  (* A series with nothing to show reads [None]: an empty histogram, a
     gated counter that never fired, a gauge with no value yet. *)
  let read s =
    match s.source with
    | Cell c -> ( match Atomic.get c with 0 -> None | v -> Some (Int v))
    | Bank h ->
        let snap = Hist.snapshot h in
        if snap.Hist.count = 0 then None else Some (Hist snap)
    | Read f -> f ()

  (* One scrape, grouped into families in registration order; each
     family is its non-empty list of present series. *)
  let families t =
    let present =
      List.filter_map
        (fun s -> Option.map (fun v -> (s, v)) (read s))
        (with_lock (fun () -> List.rev t.series))
    in
    List.fold_left
      (fun names (s, _) -> if List.mem s.name names then names else s.name :: names)
      [] present
    |> List.rev_map (fun name -> List.filter (fun (s, _) -> s.name = name) present)

  let snapshot_fields (h : Hist.snapshot) =
    [ ("count", Json.Int h.count); ("sum", Json.Int h.sum);
      ("max", Json.Int h.max); ("mean", Json.Float (Hist.mean h)) ]
    @ List.map (fun (k, q) -> (k, Json.Float q)) (Hist.percentiles h)
    @ [
        ( "buckets",
          Json.List
            (List.map
               (fun (lo, hi, c) ->
                 Json.Obj
                   [ ("lo", Json.Int lo); ("hi", Json.Int hi); ("count", Json.Int c) ])
               h.buckets) );
      ]

  let value_json = function
    | Int i -> Json.Int i
    | Float f -> Json.Float f
    | Hist h -> Json.Obj (snapshot_fields h)

  (* An unlabelled series is one field; a labelled family is a list of
     objects, each its labels as strings plus [value] or the histogram
     fields. *)
  let to_json t =
    List.map
      (fun family ->
        match family with
        | [ (s, v) ] when s.labels = [] -> (s.name, value_json v)
        | _ ->
            let series_json (s, v) =
              let fields =
                match v with
                | Hist h -> snapshot_fields h
                | v -> [ ("value", value_json v) ]
              in
              Json.Obj (List.map (fun (k, l) -> (k, Json.String l)) s.labels @ fields)
            in
            ((fst (List.hd family)).name, Json.List (List.map series_json family)))
      (families t)

  let prom_number f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.6g" f

  (* The Prometheus metrics of one series, as (name suffix, type, help
     suffix, samples): histograms become quantile gauges with [_count]
     and [_sum] companions.  Series of one family share a kind, so they
     list the same metrics in the same order. *)
  let prom_metrics kind labels = function
    | Int i when kind = Counter ->
        [ ("_total", "counter", "", [ (labels, string_of_int i) ]) ]
    | Int i -> [ ("", "gauge", "", [ (labels, string_of_int i) ]) ]
    | Float f -> [ ("", "gauge", "", [ (labels, prom_number f) ]) ]
    | Hist h ->
        [
          ( "", "gauge", "",
            List.map
              (fun (_, q) ->
                ( labels @ [ ("quantile", Printf.sprintf "%g" q) ],
                  prom_number (Hist.quantile h q) ))
              Hist.points );
          ("_count", "counter", " (observations)", [ (labels, string_of_int h.count) ]);
          ("_sum", "counter", " (total)", [ (labels, string_of_int h.sum) ]);
        ]

  let rec transpose = function
    | [] | [] :: _ -> []
    | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)

  (* Label values are escaped once, as the text format specifies; every
     other byte (UTF-8 included) passes through. *)
  let label_value v =
    String.to_seq v
    |> Seq.map (function
         | '\\' -> "\\\\"
         | '"' -> "\\\""
         | '\n' -> "\\n"
         | c -> String.make 1 c)
    |> List.of_seq |> String.concat ""

  let add_sample buf name (labels, sample) =
    let labels =
      List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (label_value v)) labels
    in
    Printf.bprintf buf "%s%s %s\n" name
      (if labels = [] then "" else "{" ^ String.concat "," labels ^ "}")
      sample

  (* Each metric's HELP and TYPE once, then the samples of every series
     of its family. *)
  let to_prom ~prefix t =
    let buf = Buffer.create 4096 in
    List.iter
      (fun family ->
        let help = (fst (List.hd family)).help in
        let family_name = prefix ^ (fst (List.hd family)).name in
        List.iter
          (fun metric ->
            let suffix, typ, help_suffix, _ = List.hd metric in
            let name = family_name ^ suffix in
            Printf.bprintf buf "# HELP %s %s%s\n# TYPE %s %s\n" name help
              help_suffix name typ;
            List.iter
              (fun (_, _, _, samples) -> List.iter (add_sample buf name) samples)
              metric)
          (transpose
             (List.map (fun (s, v) -> prom_metrics s.kind s.labels v) family)))
      (families t);
    Buffer.contents buf
end

module Counter = struct
  type t = int Atomic.t

  let make name =
    match
      Registry.(find_or_add global Counter name (fun () -> Cell (Atomic.make 0)))
    with
    | Registry.Cell c -> c
    | _ -> invalid_arg ("Obs.Counter.make: not a counter: " ^ name)

  let add t k = if !on then ignore (Atomic.fetch_and_add t k)
  let incr t = add t 1
  let value t = Atomic.get t
end

module Histogram = struct
  type t = Hist.t

  let make name =
    match
      Registry.(find_or_add global Histogram name (fun () -> Bank (Hist.create ())))
    with
    | Registry.Bank h -> h
    | _ -> invalid_arg ("Obs.Histogram.make: not a histogram: " ^ name)

  let observe t v = if !on then Hist.observe t v
  let snapshot = Hist.snapshot
end

(* The global counters that fired, sorted by name: a flat view for
   callers that look one counter up by name. *)
let counters () =
  List.concat_map
    (List.filter_map (fun ((s : Registry.series), v) ->
         match (s.kind, v) with
         | Registry.Counter, Registry.Int v -> Some (s.name, v)
         | _ -> None))
    (Registry.families Registry.global)
  |> List.sort compare

(* ---- trace events ---- *)

type arg = Int of int | Float of float | Str of string

type phase = Complete | Instant | Counter_sample

type event = {
  name : string;
  ph : phase;
  track : int;
  seq : int;
  ts_ns : int64;
  dur_ns : int64;  (* 0 unless Complete *)
  args : (string * arg) list;
}

(* Per-domain buffer.  [track] and [seq] form the deterministic merge
   key: tasks (replications, per-start searches) are given explicit
   globally-unique track ids from [task_base] before the fan-out, and
   [seq] numbers the spans begun within a task, so the same logical work
   yields the same keys whatever domain it lands on.  A buffer created
   outside any task (a worker domain doing untasked work) gets a unique
   anonymous track well away from the task range. *)
type buffer = {
  mutable track : int;
  mutable seq : int;
  mutable events : event list; (* reversed *)
}

let buffers : buffer list ref = ref []
let anon_track = Atomic.make (1 lsl 40)

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        { track = Atomic.fetch_and_add anon_track 1; seq = 0; events = [] }
      in
      with_lock (fun () -> buffers := b :: !buffers);
      b)

let buffer () = Domain.DLS.get buffer_key

let task_counter = Atomic.make 1

let task_base ~count =
  if count < 0 then invalid_arg "Obs.task_base: negative count";
  Atomic.fetch_and_add task_counter count

let in_task track f =
  if not !on then f ()
  else begin
    let b = buffer () in
    let old_track = b.track and old_seq = b.seq in
    b.track <- track;
    b.seq <- 0;
    Fun.protect
      ~finally:(fun () ->
        b.track <- old_track;
        b.seq <- old_seq)
      f
  end

(* A span in flight.  [None] when tracing is disabled, so the disabled
   begin/end pair is two branches and no allocation. *)
type span = (string * (string * arg) list * int64 * int * int) option

let null_span : span = None

let begin_span ?(args = []) name : span =
  if not !on then None
  else begin
    let b = buffer () in
    let seq = b.seq in
    b.seq <- seq + 1;
    Some (name, args, Clock.now_ns (), b.track, seq)
  end

let end_span ?(args = []) (s : span) =
  match s with
  | None -> ()
  | Some (name, args0, t0, track, seq) ->
      let b = buffer () in
      b.events <-
        {
          name;
          ph = Complete;
          track;
          seq;
          ts_ns = t0;
          dur_ns = Clock.ns_since t0;
          args = args0 @ args;
        }
        :: b.events

let with_span ?args name f =
  if not !on then f ()
  else begin
    let s = begin_span ?args name in
    Fun.protect ~finally:(fun () -> end_span s) f
  end

let record ph ?(args = []) name =
  if !on then begin
    let b = buffer () in
    let seq = b.seq in
    b.seq <- seq + 1;
    b.events <-
      { name; ph; track = b.track; seq; ts_ns = Clock.now_ns (); dur_ns = 0L; args }
      :: b.events
  end

let instant ?args name = record Instant ?args name
let counter_sample name v = record Counter_sample ~args:[ ("value", Int v) ] name

let events () =
  let all = with_lock (fun () -> List.map (fun b -> b.events) !buffers) in
  List.concat_map List.rev all
  |> List.sort (fun (a : event) (b : event) ->
         match Int.compare a.track b.track with
         | 0 -> Int.compare a.seq b.seq
         | c -> c)

(* ---- control ---- *)

let enable () =
  (* Pin the calling domain's buffer to track 0 so top-level spans sort
     first; worker-domain buffers keep their anonymous tracks unless the
     work runs under [in_task]. *)
  (buffer ()).track <- 0;
  on := true

let disable () = on := false

let reset () =
  with_lock (fun () ->
      List.iter
        (fun b ->
          b.events <- [];
          b.seq <- 0)
        !buffers);
  Registry.reset Registry.global;
  Atomic.set task_counter 1

(* ---- Chrome/Perfetto trace-event JSON ---- *)

let escape buf s =
  Buffer.add_char buf '"';
  Common.Json.add_escaped buf s;
  Buffer.add_char buf '"'

let add_arg buf (k, v) =
  escape buf k;
  Buffer.add_char buf ':';
  match v with
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else Buffer.add_string buf "null"
  | Str s -> escape buf s

let ph_letter = function
  | Complete -> "X"
  | Instant -> "i"
  | Counter_sample -> "C"

(* One event per line: ts/dur in microseconds (the unit the trace-event
   format specifies), pid constant, tid = the deterministic track. *)
let add_event buf e =
  Buffer.add_string buf "{\"name\":";
  escape buf e.name;
  Buffer.add_string buf (Printf.sprintf ",\"ph\":%S" (ph_letter e.ph));
  Buffer.add_string buf
    (Printf.sprintf ",\"ts\":%.3f" (Int64.to_float e.ts_ns /. 1e3));
  if e.ph = Complete then
    Buffer.add_string buf
      (Printf.sprintf ",\"dur\":%.3f" (Int64.to_float e.dur_ns /. 1e3));
  Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d" e.track);
  if e.args <> [] then begin
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_char buf ',';
        add_arg buf a)
      e.args
  end
  else Buffer.add_string buf ",\"args\":{";
  Buffer.add_string buf "}}"

let trace_json () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_event buf e)
    (events ());
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_trace ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (trace_json ()))
