(* The analysis workloads, run in a worker process of their own so that
   setup_s is measured from process start and peak_rss_mb is the
   worker's own VmHWM.

   exact-mix: one op solves one chain end to end with
   Markov.Exact_builder.build_mix (domains = 1) and checks its exact
   τ(1/4).  A round solves a fixed list of chains; a run measures whole
   rounds, so every run weighs the chains alike.

   coalesce-sim: one op is one coalescence run of the monotone coupling
   of Id-ABKU[2] (Coupling.Coalescence over Engine.Sim and
   Loadvec.Mutable_vector) from (all-in-one, uniform), n = m = 256. *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector

let eps = 0.25
let max_t = 1_000_000

(* ---- exact-mix ---- *)

type chain = {
  scenario : Core.Scenario.t;
  nm : int;  (** n = m. *)
  extremal : bool;
      (** Search only the all-in-one and uniform starts, as e7 does above
          |Ω| = 2000: the monotone coupling puts every other start
          between them. *)
  expect : int option;  (** τ(1/4) as BENCH_RESULTS.json records it for e7. *)
}

(* Small chains searched from every start are kernel-bound (spmv in the
   mixing search); large ones searched from the two extremal starts are
   build-bound.  Latencies are spread so the median lands inside one
   chain's group. *)
let round =
  [
    { scenario = Core.Scenario.B; nm = 12; extremal = false; expect = Some 50 };
    { scenario = Core.Scenario.B; nm = 14; extremal = false; expect = Some 70 };
    { scenario = Core.Scenario.A; nm = 20; extremal = false; expect = Some 44 };
    { scenario = Core.Scenario.A; nm = 30; extremal = true; expect = Some 75 };
    { scenario = Core.Scenario.A; nm = 34; extremal = true; expect = None };
  ]

(* Solved once during set-up, outside the timed window. *)
let warmup = { scenario = Core.Scenario.A; nm = 16; extremal = false; expect = None }

let label c =
  Printf.sprintf "%s-ABKU[2] n=m=%d (%s)"
    (match c.scenario with Core.Scenario.A -> "Id" | B -> "Ib")
    c.nm
    (if c.extremal then "extremal starts" else "all starts")

let bound c =
  match c.scenario with
  | Core.Scenario.A -> Theory.Bounds.theorem1 ~m:c.nm ~eps
  | Core.Scenario.B -> Theory.Bounds.claim53 ~n:c.nm ~m:c.nm ~eps

let transitions c =
  Core.Dynamic_process.exact_transitions
    (Core.Dynamic_process.make c.scenario (Core.Scheduling_rule.abku 2) ~n:c.nm)

let starts c =
  if c.extremal then
    Some [| Lv.all_in_one ~n:c.nm ~m:c.nm; Lv.uniform ~n:c.nm ~m:c.nm |]
  else None

let solve c =
  let a =
    Markov.Exact_builder.build_mix ~eps ~max_t ~domains:1 ?starts:(starts c)
      (Markov.Exact_builder.enumerated
         (Markov.Partition_space.enumerate ~n:c.nm ~m:c.nm))
      ~transitions:(transitions c)
  in
  a.Markov.Exact_builder.tau

let check c tau =
  if float_of_int tau > bound c then
    Some (Printf.sprintf "%s: tau %d above the bound %.0f" (label c) tau (bound c))
  else
    match c.expect with
    | Some e when e <> tau ->
        Some (Printf.sprintf "%s: tau %d, e7 records %d" (label c) tau e)
    | _ -> None

(* The same solve, one layer call at a time, inside layer spans. *)
let solve_traced c =
  let span = Obs.with_span in
  let states =
    span "partition_space.enumerate" (fun () ->
        Markov.Partition_space.enumerate ~n:c.nm ~m:c.nm)
  in
  let chain =
    span "exact_builder.build" (fun () ->
        Markov.Exact_builder.build
          (Markov.Exact_builder.enumerated states)
          ~transitions:(transitions c))
  in
  ignore (span "exact.stationary" (fun () -> Markov.Exact.stationary ~domains:1 chain));
  let starts = Option.map (Array.map (Markov.Exact.index chain)) (starts c) in
  let tau =
    span "exact.mixing_time" (fun () ->
        Markov.Exact.mixing_time ~eps ~max_t ~domains:1 ?starts chain)
  in
  (tau, chain)

let spmv_counter () =
  Option.value (List.assoc_opt "bcsr.spmv_calls" (Obs.counters ())) ~default:0

(* Repeated products on one chain's kernel, from a dense vector so that
   every row is read: (median ns per call, computed bytes per call). *)
let time_spmv chain =
  let mat = Markov.Exact.blocked chain in
  let k = Markov.Blocked_csr.kernel mat in
  let rows = Markov.Blocked_csr.rows mat and cols = Markov.Blocked_csr.cols mat in
  let src = Array.make rows (1. /. float_of_int rows) in
  let dst = Array.make cols 0. in
  let times =
    List.init 2000 (fun _ ->
        let t0 = Proc.now_ns () in
        Markov.Blocked_csr.spmv k ~src ~dst;
        Int64.to_float (Int64.sub (Proc.now_ns ()) t0))
  in
  (* Column index and value per non-zero, a row pointer per row, src
     read and dst written once. *)
  let bytes = (16 * Markov.Blocked_csr.nnz mat) + (16 * rows) + 8 + (8 * cols) in
  (Sample.median times, float_of_int bytes)

(* Whole rounds until the window has passed: (ops, failed, latencies
   in us per chain, latency groups per round, seconds, peak RSS read as
   the window closes, problems). *)
let exact_window ~seconds =
  let lat = ref [] and rounds = ref [] and problems = ref [] in
  let ops = ref 0 and failed = ref 0 in
  let t_start = Proc.now_ns () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  while Int64.compare (Proc.now_ns ()) deadline < 0 do
    let this_round =
      List.map
        (fun c ->
          let t0 = Proc.now_ns () in
          let tau = solve c in
          let us = Proc.seconds_between t0 (Proc.now_ns ()) *. 1e6 in
          lat := (c, us) :: !lat;
          incr ops;
          (match check c tau with
          | Some p ->
              incr failed;
              problems := p :: !problems
          | None -> ());
          (us, 1))
        round
    in
    rounds := this_round :: !rounds
  done;
  let elapsed = Proc.seconds_between t_start (Proc.now_ns ()) in
  let rss = Proc.peak_rss_mb (Unix.getpid ()) in
  (!ops, !failed, !lat, !rounds, elapsed, rss, List.rev !problems)

let exact_traced () =
  let t0 = Proc.now_ns () in
  List.iter (fun c -> ignore (solve c)) round;
  let plain_s = Proc.seconds_between t0 (Proc.now_ns ()) in
  Obs.reset ();
  Obs.enable ();
  let calls0 = spmv_counter () in
  let t1 = Proc.now_ns () in
  let solved = List.map (fun c -> (c, solve_traced c)) round in
  let traced_s = Proc.seconds_between t1 (Proc.now_ns ()) in
  let calls = spmv_counter () - calls0 in
  let selfs =
    Layers.self_times
      [ "partition_space.enumerate"; "exact_builder.build"; "exact.stationary";
        "exact.mixing_time" ]
  in
  (* The kernel-bound regime: the first chain searched from every start
     that is large enough to time (the n = m = 20 chain). *)
  let _, (_, small) =
    List.find (fun (c, _) -> c.scenario = Core.Scenario.A && not c.extremal) solved
  in
  let spmv_ns, bytes = time_spmv small in
  let ops = float_of_int (List.length round) in
  let per_op n = (List.assoc n selfs).Layers.self_ns /. 1e9 /. ops in
  let mean f =
    List.fold_left (fun acc (_, (_, ch)) -> acc +. f ch) 0. solved /. ops
  in
  let problems =
    List.filter_map (fun (c, (tau, _)) -> check c tau) solved
  in
  ( [ ("exact_builder.enumerate_s", per_op "partition_space.enumerate");
      ("exact_builder.build_s", per_op "exact_builder.build");
      ("exact.stationary_s", per_op "exact.stationary");
      ("exact.mix_s", per_op "exact.mixing_time");
      ("exact.states", mean (fun ch -> float_of_int (Markov.Exact.size ch)));
      ("exact.nnz",
       mean (fun ch -> float_of_int (Markov.Blocked_csr.nnz (Markov.Exact.blocked ch))));
      ("blocked_csr.spmv_ns", spmv_ns);
      ("blocked_csr.spmv_calls", float_of_int calls /. ops);
      ("blocked_csr.bytes_per_spmv", bytes);
      ("blocked_csr.gb_per_s", bytes /. spmv_ns);
      ("trace.overhead", traced_s /. plain_s) ],
    List.length round,
    problems )

(* ---- coalesce-sim ---- *)

let coalesce_n = 256

let coupled =
  Core.Coupled.monotone
    (Core.Dynamic_process.make Core.Scenario.A (Core.Scheduling_rule.abku 2)
       ~n:coalesce_n)

let init _ =
  ( Mv.of_load_vector (Lv.all_in_one ~n:coalesce_n ~m:coalesce_n),
    Mv.of_load_vector (Lv.uniform ~n:coalesce_n ~m:coalesce_n) )

let coalesce_bound = Theory.Bounds.theorem1 ~m:coalesce_n ~eps

(* Op [i] of a run draws from its own generator, so the coalescence time
   of op [i] depends on the seed and [i] alone. *)
let coalesce_op ~seed i =
  let rng = Prng.Rng.create ~seed:((seed * 1_000_003) + i) () in
  let meas, metrics =
    Coupling.Coalescence.measure_with_metrics ~domains:1 ~reps:1 ~limit:max_t
      ~rng coupled ~init
  in
  if meas.Coupling.Coalescence.failures > 0 then None
  else Some (meas.Coupling.Coalescence.times.(0), metrics.Engine.Metrics.steps)

(* Ops recomputed after the window to show the times repeat exactly. *)
let recheck_ops = 200

(* Latency sub-windows, and the most ops one may hold: at about 3 ms an
   op, a sub-window holds under 200. *)
let sub_window_ns = 500_000_000
let sub_window_cap = 1 lsl 16

(* Coalescence times are counted up to this many steps, far above
   Theorem 1's bound; a longer time counts in the last bucket. *)
let time_cap = 1 lsl 14

type coalesce_result = {
  ops : int;
  failed : int;
  p50_us : float;  (** Means over the sub-windows of each one's order statistic. *)
  p90_us : float;
  groups : int;  (** Sub-windows. *)
  elapsed : float;
  rss : float;  (** Peak RSS in MiB, read as the window closes. *)
  median_time : float;
  problems : string list;
}

(* The window keeps fixed-size buffers only, so that the worker's peak
   RSS does not grow with the ops a run completes: the latencies of the
   open sub-window, whose order statistics are taken in place when it
   closes; a count per coalescence time; the first [recheck_ops] times. *)
let coalesce_window ~seed ~seconds =
  let max_groups = (int_of_float (seconds *. 1e9) / sub_window_ns) + 1 in
  let p50 = Array.make max_groups 0. and p90 = Array.make max_groups 0. in
  let groups = ref 0 and open_group = ref 0 in
  let lat = Array.make sub_window_cap 0 and len = ref 0 in
  let counts = Array.make (time_cap + 1) 0 in
  let first = Array.make recheck_ops (-1) in
  let ops = ref 0 and failed = ref 0 in
  let t_start = Proc.now_ns () in
  let deadline = Int64.add t_start (Int64.of_float (seconds *. 1e9)) in
  let last = ref t_start in
  while Int64.compare !last deadline < 0 do
    let t0 = Proc.now_ns () in
    let r = coalesce_op ~seed !ops in
    let t1 = Proc.now_ns () in
    (* An op that ends in a later sub-window closes the open one; the
       sub-window open when the window ends is partial and dropped. *)
    let g = Int64.to_int (Int64.sub t1 t_start) / sub_window_ns in
    if g > !open_group then begin
      if !len > 0 then begin
        p50.(!groups) <- float_of_int (Sample.int_quantile lat ~len:!len 0.5) /. 1e3;
        p90.(!groups) <- float_of_int (Sample.int_quantile lat ~len:!len 0.9) /. 1e3;
        incr groups
      end;
      len := 0;
      open_group := g
    end;
    if !len = sub_window_cap then failwith "perfbench: a latency sub-window is full";
    lat.(!len) <- Int64.to_int (Int64.sub t1 t0);
    incr len;
    let t =
      match r with
      | Some (t, _) ->
          let b = min t time_cap in
          counts.(b) <- counts.(b) + 1;
          t
      | None ->
          incr failed;
          -1
    in
    if !ops < recheck_ops then first.(!ops) <- t;
    incr ops;
    last := t1
  done;
  let rss = Proc.peak_rss_mb (Unix.getpid ()) in
  let ops = !ops in
  let problems = ref [] in
  if !failed > 0 then
    problems := Printf.sprintf "%d runs hit the step limit" !failed :: !problems;
  let mismatched = ref 0 in
  for j = 0 to min ops recheck_ops - 1 do
    let again = match coalesce_op ~seed j with Some (t, _) -> t | None -> -1 in
    if again <> first.(j) then incr mismatched
  done;
  if !mismatched > 0 then
    problems :=
      Printf.sprintf "%d of the first %d coalescence times did not repeat"
        !mismatched (min ops recheck_ops)
      :: !problems;
  (* The median of the completed runs' times, from their counts. *)
  let median_time =
    let n = ops - !failed in
    if n = 0 then infinity
    else
      let r = Sample.rank ~n 0.5 in
      let rec go t acc =
        let acc = acc + counts.(t) in
        if acc >= r then if t = time_cap then infinity else float_of_int t
        else go (t + 1) acc
      in
      go 0 0
  in
  if median_time > coalesce_bound then
    problems :=
      Printf.sprintf "median coalescence time %.0f above the Theorem 1 bound %.0f"
        median_time coalesce_bound
      :: !problems;
  let mean a = Sample.mean (List.init !groups (Array.get a)) in
  { ops; failed = !failed + !mismatched; p50_us = mean p50; p90_us = mean p90;
    groups = !groups; elapsed = Proc.seconds_between t_start !last; rss; median_time;
    problems = List.rev !problems }

(* Ops of a traced run: the same ops untraced, then traced. *)
let traced_ops = 500

let coalesce_traced ~seed =
  let t0 = Proc.now_ns () in
  let w0 = Gc.minor_words () in
  let plain = List.init traced_ops (coalesce_op ~seed) in
  let words = Gc.minor_words () -. w0 in
  let plain_s = Proc.seconds_between t0 (Proc.now_ns ()) in
  Obs.reset ();
  Obs.enable ();
  let t1 = Proc.now_ns () in
  let traced =
    List.init traced_ops (fun i ->
        Obs.with_span "coalescence.run" (fun () -> coalesce_op ~seed i))
  in
  let traced_s = Proc.seconds_between t1 (Proc.now_ns ()) in
  let selfs = Layers.self_times [ "coalescence.run" ] in
  let steps =
    List.fold_left
      (fun acc r -> match r with Some (_, s) -> acc + s | None -> acc)
      0 traced
    |> float_of_int
  in
  let problems =
    if plain <> traced then [ "traced coalescence times differ from untraced ones" ]
    else []
  in
  ( [ ("coalescence.steps_per_op", steps /. float_of_int traced_ops);
      ("coalescence.ns_per_step",
       (List.assoc "coalescence.run" selfs).Layers.self_ns /. steps);
      ("coalescence.minor_words_per_step", words /. steps);
      ("trace.overhead", traced_s /. plain_s) ],
    traced_ops,
    problems )

(* ---- the worker ---- *)

(* ops_per_s over the whole window; p50 and p90 as means over
   sub-windows of each one's order statistic. *)
let finish_metrics ~ops ~elapsed ~p50 ~p90 ~rss =
  [ ("ops_per_s", float_of_int ops /. elapsed); ("p50_us", p50); ("p90_us", p90);
    ("peak_rss_mb", rss) ]

(* Set up, announce readiness on stdout, run, and marshal the report
   (setup_s is measured by the parent).  A traced run writes its spans
   to [trace_file]. *)
let worker ~workload ~seed ~seconds ~trace ~trace_file ~setup_only =
  let announce () =
    print_endline "ready";
    flush stdout
  in
  let report =
    match workload with
    | "exact-mix" ->
        ignore (solve warmup);
        announce ();
        if setup_only then None
        else if trace then
          let layers, ops, problems = exact_traced () in
          Some
            { Report.workload; correct = problems = []; attempted = ops;
              failed = List.length problems; metrics = layers; samples = [];
              notes = List.map label round; problems }
        else
          let ticks = Proc.cpu_ticks () in
          let ops, failed, lat, rounds, elapsed, rss, problems = exact_window ~seconds in
          let steal = Proc.steal_note ticks in
          let n = List.length lat in
          let per_chain =
            List.map
              (fun c ->
                Printf.sprintf "%s: median %.0f us" (label c)
                  (Sample.median
                     (List.filter_map
                        (fun (c', us) -> if c' == c then Some us else None)
                        lat)))
              round
          in
          Some
            { Report.workload; correct = problems = []; attempted = ops; failed;
              metrics =
                finish_metrics ~ops ~elapsed ~rss
                  ~p50:(Sample.mean_quantile rounds 0.5)
                  ~p90:(Sample.mean_quantile rounds 0.9);
              samples =
                [ ("ops_per_s", n); ("p50_us", List.length rounds);
                  ("p90_us", List.length rounds); ("peak_rss_mb", 1) ];
              notes =
                Printf.sprintf
                  "sub-windows are rounds of %d solves: p50_us is the mean \
                   n=m=20 solve and p90_us the mean n=m=34 solve, with no \
                   sample beyond it in a round"
                  (List.length round)
                :: steal :: per_chain;
              problems }
    | "coalesce-sim" ->
        for i = 0 to 49 do
          ignore (coalesce_op ~seed:(-1) i)
        done;
        announce ();
        if setup_only then None
        else if trace then
          let layers, ops, problems = coalesce_traced ~seed in
          Some
            { Report.workload; correct = problems = []; attempted = ops;
              failed = (if problems = [] then 0 else ops); metrics = layers;
              samples = []; notes = []; problems }
        else
          let ticks = Proc.cpu_ticks () in
          let w = coalesce_window ~seed ~seconds in
          let steal = Proc.steal_note ticks in
          Some
            { Report.workload; correct = w.problems = []; attempted = w.ops;
              failed = w.failed;
              metrics =
                finish_metrics ~ops:w.ops ~elapsed:w.elapsed ~p50:w.p50_us
                  ~p90:w.p90_us ~rss:w.rss;
              samples =
                [ ("ops_per_s", w.ops); ("p50_us", w.groups); ("p90_us", w.groups);
                  ("peak_rss_mb", 1) ];
              notes =
                [ Printf.sprintf
                    "median coalescence time %.0f steps (Theorem 1 bound %.0f)"
                    w.median_time coalesce_bound;
                  steal ];
              problems = w.problems }
    | w -> failwith ("unknown analysis workload " ^ w)
  in
  if trace && not setup_only then Obs.write_trace ~path:trace_file;
  match report with
  | None -> ()
  | Some r ->
      Marshal.to_channel stdout (r : Report.t) [];
      flush stdout
