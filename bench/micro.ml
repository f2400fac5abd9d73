(* Bechamel micro-benchmarks: per-step cost of every process.  All
   recovery times in the experiment tables are quoted in steps; these
   numbers convert them to wall-clock. *)

open Bechamel
open Toolkit
module Ctx = Experiment.Ctx

let make_tests () =
  let n = 1024 in
  let g = Prng.Rng.create ~seed:7 () in
  let system scenario =
    let bins =
      Core.Bins.of_loads
        (Loadvec.Load_vector.to_array (Loadvec.Load_vector.uniform ~n ~m:n))
    in
    Core.System.create scenario (Core.Scheduling_rule.abku 2) bins
  in
  let sys_a = system Core.Scenario.A in
  let sys_b = system Core.Scenario.B in
  let process = Core.Dynamic_process.make Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n in
  let mv =
    Loadvec.Mutable_vector.of_load_vector (Loadvec.Load_vector.uniform ~n ~m:n)
  in
  let coupled = Core.Coupled.monotone process in
  let cx =
    Loadvec.Mutable_vector.of_load_vector (Loadvec.Load_vector.all_in_one ~n ~m:n)
  in
  let cy =
    Loadvec.Mutable_vector.of_load_vector (Loadvec.Load_vector.uniform ~n ~m:n)
  in
  let orientation = Edgeorient.Orientation.create ~n in
  let class_state = ref (Edgeorient.Class_chain.start ~n:128) in
  [
    ("system step Id-ABKU[2] (n=1024)", fun () -> Core.System.step g sys_a);
    ("system step Ib-ABKU[2] (n=1024)", fun () -> Core.System.step g sys_b);
    ( "normalized step Id-ABKU[2] (n=1024)",
      fun () -> Core.Dynamic_process.step_in_place process g mv );
    ( "coupled step Id-ABKU[2] (n=1024)",
      fun () -> ignore (coupled.Coupling.Coupled_chain.step g cx cy) );
    ( "greedy edge step (n=1024)",
      fun () -> Edgeorient.Orientation.greedy_step g orientation );
    ( "class-chain step (n=128)",
      fun () -> class_state := Edgeorient.Class_chain.step g !class_state );
    (let w =
       Core.Weighted.static_run g ~n ~m:n ~d:2 ~dist:(Core.Weighted.Exponential 1.)
     in
     ( "weighted dynamic step (n=1024)",
       fun () ->
         Core.Weighted.dynamic_step w g ~d:2
           ~dist:(Core.Weighted.Exponential 1.) ));
    (let rule = Core.Go_left.make ~d:2 ~n in
     let bins =
       Core.Bins.of_loads
         (Loadvec.Load_vector.to_array (Loadvec.Load_vector.uniform ~n ~m:n))
     in
     ( "go-left dynamic step (n=1024)",
       fun () -> Core.Go_left.dynamic_step rule Core.Scenario.A g bins ));
  ]

(* Minor words per call of [f] over a fixed count.  Allocation does not
   depend on the host's speed, so unlike the time columns this number
   can be gated tightly. *)
let minor_words_per_call f =
  let calls = 10_000 in
  for _ = 1 to 100 do
    f ()
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

(* Run [step] under a wall-clock budget in batches; report throughput
   and minor-heap allocation per step. *)
let time_budget_loop ~budget step =
  for _ = 1 to 1_000 do
    step ()
  done;
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let count = ref 0 in
  while Unix.gettimeofday () -. t0 < budget do
    for _ = 1 to 1_000 do
      step ()
    done;
    count := !count + 1_000
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let steps = float_of_int !count in
  (steps /. dt, (Gc.minor_words () -. w0) /. steps)

(* The refactor's headline number: the functional one-step view
   (Dynamic_process.chain) rebuilds a sorted load vector per step
   (of_load_vector / to_load_vector round-trip), while the engine sim
   mutates one preallocated buffer.  The allocation column makes the
   difference visible: the chain allocates O(n) words per step, the sim
   O(1). *)
let engine_vs_chain ctx =
  Printf.printf
    "\n#### Micro — engine sim vs Dynamic_process.chain, Id-ABKU[2] \
     (n=10_000)\n%!";
  let n = 10_000 in
  let process =
    Core.Dynamic_process.make Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n
  in
  let budget = 0.5 in
  let chain_rate, chain_alloc =
    let g = Prng.Rng.create ~seed:11 () in
    let step = Core.Dynamic_process.chain process in
    let state = ref (Loadvec.Load_vector.uniform ~n ~m:n) in
    time_budget_loop ~budget (fun () -> state := step g !state)
  in
  let sim_rate, sim_alloc =
    let g = Prng.Rng.create ~seed:11 () in
    let v =
      Loadvec.Mutable_vector.of_load_vector
        (Loadvec.Load_vector.uniform ~n ~m:n)
    in
    let s = Core.Dynamic_process.sim process v in
    time_budget_loop ~budget (fun () -> Engine.Sim.step s g)
  in
  let table =
    Ctx.table ctx ~title:"engine sim vs chain"
      ~columns:[ "path"; "steps/sec"; "minor words/step" ]
  in
  Ctx.row table
    ~values:[ ("steps_per_sec", chain_rate); ("minor_words", chain_alloc) ]
    [
      "Dynamic_process.chain (immutable)";
      Printf.sprintf "%.0f" chain_rate;
      Printf.sprintf "%.1f" chain_alloc;
    ];
  Ctx.row table
    ~values:[ ("steps_per_sec", sim_rate); ("minor_words", sim_alloc) ]
    [
      "Engine.Sim (in-place)";
      Printf.sprintf "%.0f" sim_rate;
      Printf.sprintf "%.1f" sim_alloc;
    ];
  Ctx.note table (Printf.sprintf "speedup: %.1fx" (sim_rate /. chain_rate));
  Ctx.emit ctx table

(* The representation layer's headline tables, one per process family.
   The array oracle keeps the full n-slot sorted load vector hot, while
   the count backends walk the O(max_load) level counts — a handful of
   words at n = 10^4.  The count twin consumes the generator in exactly
   the oracle's draw order, so its max-load trajectory is checked
   bitwise here before any timing; the sampled backend redistributes
   draws through the ABKU cutoff table and is held to equality in law
   by `repro validate` instead.  [unit] is the transition: a sequential
   step, or an RBB round, whose q placements amortise the per-step
   gap. *)
let backend_table ctx ~heading ~title ~unit ~trace_len ~note sim =
  Printf.printf "\n#### Micro — %s (n=10_000)\n%!" heading;
  let run repr f =
    let g = Prng.Rng.create ~seed:0xAB5 () in
    f (sim repr) g
  in
  let trace repr =
    run repr (fun s g ->
        Array.init trace_len (fun _ ->
            Engine.Sim.step s g;
            Engine.Sim.probe s))
  in
  if trace Core.Repr.Count_backed <> trace Core.Repr.Array_backed then
    failwith
      ("micro: " ^ heading
     ^ ": count-vector trajectory diverges from the array oracle");
  let rows =
    List.map
      (fun repr ->
        ( repr,
          run repr (fun s g ->
              time_budget_loop ~budget:0.3 (fun () -> Engine.Sim.step s g)) ))
      Core.Repr.all
  in
  let speedup repr =
    fst (List.assoc repr rows) /. fst (List.assoc Core.Repr.Array_backed rows)
  in
  let table =
    Ctx.table ctx ~title
      ~columns:[ "backend"; unit ^ "s/sec"; "minor words/" ^ unit; "vs array" ]
  in
  List.iter
    (fun (repr, (rate, alloc)) ->
      Ctx.row table
        ~values:
          [
            (unit ^ "s_per_sec", rate);
            ("minor_words", alloc);
            ("speedup_vs_array", speedup repr);
          ]
        [
          Core.Repr.name repr;
          Printf.sprintf "%.0f" rate;
          Printf.sprintf "%.2f" alloc;
          Printf.sprintf "%.1fx" (speedup repr);
        ])
    rows;
  Ctx.note table
    (note (speedup Core.Repr.Count_backed) (speedup Core.Repr.Count_sampled));
  Ctx.emit ctx table

let backend_tables ctx =
  let n = 10_000 in
  let start = Loadvec.Load_vector.uniform ~n ~m:n in
  let process =
    Core.Dynamic_process.make Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n
  in
  backend_table ctx ~heading:"stepper state backends, Id-ABKU[2]"
    ~title:"stepper state backends" ~unit:"step" ~trace_len:2_000
    ~note:
      (Printf.sprintf
         "count-vector speedup over the array oracle: %.1fx (counts, \
          trajectory verified bitwise), %.1fx (counts-sampled, equal in law)")
    (fun repr -> Core.Dynamic_process.sim_repr ~repr process start);
  let rbb = Rbb.make (Rbb.dchoice 2) ~n in
  backend_table ctx ~heading:"RBB round backends, RBB-d2"
    ~title:"rbb round backends" ~unit:"round" ~trace_len:500
    ~note:
      (Printf.sprintf
         "count-vector round speedup over the array oracle: %.1fx (counts, \
          trajectory verified bitwise), %.1fx (counts-sampled, equal in law); \
          a round moves every non-empty bin, so the per-round gap is the \
          per-step gap amortised over q placements")
    (fun repr -> Rbb.sim_repr ~repr rbb start)

(* Mean seconds per call of [f] under a wall-clock budget.  Calls here
   are ms-scale, so no batching: one warm call, then count whole
   calls. *)
let time_calls ~budget f =
  ignore (Sys.opaque_identity (f ()));
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let count = ref 0 in
  let elapsed = ref 0. in
  while !elapsed < budget do
    ignore (Sys.opaque_identity (f ()));
    incr count;
    elapsed := Unix.gettimeofday () -. t0
  done;
  !elapsed /. float_of_int !count

(* Run [f] on a fresh domain and return its result with the heap it
   grew by, in words.  [top_heap_words] is a high-water mark summed over
   domains, so growth read on the calling domain counts only what rises
   above the largest earlier peak of the run; a fresh domain starts its
   own mark at zero.  The major collection first settles the heap that
   finished domains left behind, which the new domain could otherwise
   pick up mid-measurement. *)
let own_peak_words f =
  Gc.full_major ();
  Domain.join
    (Domain.spawn (fun () ->
         let top () =
           Gc.minor ();
           (Gc.quick_stat ()).Gc.top_heap_words
         in
         let t0 = top () in
         let r = f () in
         (r, top () - t0)))

(* The streaming-build story: with [~spill] the builder's working set is
   one block, so the peak heap of a build stays flat while the in-memory
   build holds the whole matrix.  Each build is measured on its own
   domain; a reading of 0 means the measurement broke, not that the
   build was free.  The minor words per row (counted on the build's own
   domain) are the successor enumeration's allocation, which the gate
   holds: like the coupled step's, it does not drift with host speed. *)
let streaming_build ctx ~states ~transitions ~spill_path =
  Printf.printf "\n#### Micro — streaming build peak\n%!";
  let rows = float_of_int (Array.length states) in
  let build ?spill () =
    let (chain, words), peak =
      own_peak_words (fun () ->
          let w0 = Gc.minor_words () in
          let chain =
            Markov.Exact_builder.build ~block_rows:512 ?spill
              (Markov.Exact_builder.enumerated states)
              ~transitions
          in
          (chain, (Gc.minor_words () -. w0) /. rows))
    in
    (chain, peak, words)
  in
  let spilled, spill_peak, spill_words = build ~spill:spill_path () in
  let chain, mem_peak, mem_words = build () in
  let nnz = Markov.Blocked_csr.nnz (Markov.Exact.blocked chain) in
  let table =
    Ctx.table ctx ~title:"streaming build peak heap"
      ~columns:
        [ "build"; "|Omega|"; "nnz"; "peak heap growth (words)";
          "minor words/row" ]
  in
  List.iter
    (fun (name, peak, words) ->
      if peak <= 0 then
        failwith
          (Printf.sprintf "micro: %s build peak heap reads %d words" name
             peak);
      Ctx.row table
        ~values:
          [
            ("state_count", rows);
            ("nnz", float_of_int nnz);
            ("peak_heap_words", float_of_int peak);
            ("minor_words_per_row", words);
          ]
        [
          name;
          string_of_int (Array.length states);
          string_of_int nnz;
          string_of_int peak;
          Printf.sprintf "%.0f" words;
        ])
    [ ("spill (one block resident)", spill_peak, spill_words);
      ("in-memory (all blocks)", mem_peak, mem_words) ];
  Ctx.note table
    (Printf.sprintf "spilled peak = %.0f%% of the in-memory peak"
       (100. *. float_of_int spill_peak /. float_of_int mem_peak));
  Ctx.emit ctx table;
  (spilled, chain)

(* The fused multi-vector kernel against B separate [step_tv] sweeps
   over a spilled store: one stream of the block file per batch instead
   of B.  Bit-identity is asserted first — same zero-row skip, same
   row-order accumulation, same chunk-order statistic reduction — so the
   table doubles as a parity check; the timing then shows the disk
   traffic the batched per-start sweep saves.  In memory a row's entries
   stay in L1 for the whole batch either way, and 8 vectors ran at
   0.72–1.18× the speed of 8 separate products. *)
let fused_mixing ctx ~pi spilled =
  Printf.printf "\n#### Micro — fused multi-vector mixing kernel\n%!";
  let bcsr = Markov.Exact.blocked spilled in
  let size = Markov.Exact.size spilled in
  let kern = Markov.Blocked_csr.kernel bcsr in
  let budget = 0.2 in
  let table =
    Ctx.table ctx ~title:"fused multi-vector mixing kernel"
      ~columns:
        [ "batch"; "unfused ms/sweep"; "fused ms/sweep"; "speedup" ]
  in
  (* Dense sources (structured perturbations of pi): a point mass would
     let the zero-row skip bypass the traversal entirely, timing only
     the O(|Omega|) zero-fill and statistic scans. *)
  let dense b =
    let v =
      Array.mapi
        (fun j p -> p *. (1. +. (0.5 *. cos (float_of_int (j * (b + 1))))))
        pi
    in
    let total = Array.fold_left ( +. ) 0. v in
    Array.map (fun x -> x /. total) v
  in
  List.iter
    (fun nb ->
      let srcs = Array.init nb dense in
      let dsts = Array.init nb (fun _ -> Array.make size 0.) in
      (* Parity: the batched sweep must reproduce the sequential one to
         the last bit, TVs and evolved vectors alike. *)
      let seq_dsts = Array.init nb (fun _ -> Array.make size 0.) in
      let seq_tvs =
        Array.init nb (fun b ->
            Markov.Blocked_csr.step_tv kern ~pi ~src:srcs.(b)
              ~dst:seq_dsts.(b))
      in
      let tvs = Markov.Blocked_csr.step_tv_multi kern ~pi ~srcs ~dsts in
      for b = 0 to nb - 1 do
        if Int64.bits_of_float tvs.(b) <> Int64.bits_of_float seq_tvs.(b)
        then failwith "micro: fused TV differs from sequential step_tv";
        for j = 0 to size - 1 do
          if
            Int64.bits_of_float dsts.(b).(j)
            <> Int64.bits_of_float seq_dsts.(b).(j)
          then failwith "micro: fused product differs from sequential spmv"
        done
      done;
      let unfused_s =
        time_calls ~budget (fun () ->
            for b = 0 to nb - 1 do
              ignore
                (Markov.Blocked_csr.step_tv kern ~pi ~src:srcs.(b)
                   ~dst:dsts.(b))
            done)
      in
      let fused_s =
        time_calls ~budget (fun () ->
            Markov.Blocked_csr.step_tv_multi kern ~pi ~srcs ~dsts)
      in
      Ctx.row table
        ~values:
          [
            ("batch", float_of_int nb);
            ("unfused_ms", unfused_s *. 1e3);
            ("fused_ms", fused_s *. 1e3);
            ("speedup_vs_unfused", unfused_s /. fused_s);
          ]
        [
          string_of_int nb;
          Printf.sprintf "%.3f" (unfused_s *. 1e3);
          Printf.sprintf "%.3f" (fused_s *. 1e3);
          Printf.sprintf "%.2fx" (unfused_s /. fused_s);
        ])
    [ 4; 8; 16 ];
  Ctx.note table
    (Printf.sprintf
       "spilled store (|Omega| = %d, nnz = %d, %d blocks read from disk per \
        product); all batches verified bitwise against B separate step_tv \
        sweeps; one stream of the block file per batch is what the batched \
        per-start sweep saves"
       size (Markov.Blocked_csr.nnz bcsr)
       (Markov.Blocked_csr.block_count bcsr));
  Ctx.emit ctx table

(* The blocked-CSR kernel against the one-block kernel (a flat CSR
   matrix).  Both must agree bitwise — every column accumulates over
   rows in index order whatever the block size — so the table doubles
   as a parity check. *)
let blocked_spmv ctx ~states ~transitions chain =
  Printf.printf "\n#### Micro — blocked vs flat spmv\n%!";
  let size = Array.length states in
  let one_block =
    Markov.Exact.blocked
      (Markov.Exact_builder.build ~block_rows:size
         (Markov.Exact_builder.enumerated states)
         ~transitions)
  in
  let src = Array.make size (1. /. float_of_int size) in
  let expect = Array.make size 0. in
  Markov.Blocked_csr.spmv (Markov.Blocked_csr.kernel one_block) ~src
    ~dst:expect;
  let budget = 0.2 in
  let time_spmv b =
    let kernel = Markov.Blocked_csr.kernel b in
    let dst = Array.make size 0. in
    Markov.Blocked_csr.spmv kernel ~src ~dst;
    if not (Array.for_all2 Float.equal dst expect) then
      failwith "micro: blocked spmv disagrees with the one-block kernel";
    time_calls ~budget (fun () -> Markov.Blocked_csr.spmv kernel ~src ~dst)
  in
  let table =
    Ctx.table ctx ~title:"blocked vs flat spmv"
      ~columns:[ "kernel"; "blocks"; "us/spmv"; "vs 1 block" ]
  in
  let reference_s = time_spmv one_block in
  let emit_row name b seconds =
    let blocks = Markov.Blocked_csr.block_count b in
    Ctx.row table
      ~values:
        [
          ("blocks", float_of_int blocks);
          ("us_per_spmv", seconds *. 1e6);
        ]
      [
        name;
        string_of_int blocks;
        Printf.sprintf "%.1f" (seconds *. 1e6);
        Printf.sprintf "%.2fx" (reference_s /. seconds);
      ]
  in
  emit_row "one block (reference)" one_block reference_s;
  let bcsr = Markov.Exact.blocked chain in
  emit_row "blocked CSR" bcsr (time_spmv bcsr);
  Ctx.note table
    "the blocked kernel verified bitwise against the one-block kernel";
  Ctx.emit ctx table

(* The exact layer's tables share the n = 30 Id-ABKU[2] chain, built
   once spilled and once in memory. *)
let exact_tables ctx =
  let n = 30 in
  let process =
    Core.Dynamic_process.make Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n
  in
  let states = Markov.Partition_space.enumerate ~n ~m:n in
  let transitions = Core.Dynamic_process.exact_transitions process in
  let spill_path = Filename.temp_file "micro_bcsr" ".blk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove spill_path with Sys_error _ -> ())
    (fun () ->
      let spilled, chain =
        streaming_build ctx ~states ~transitions ~spill_path
      in
      Fun.protect
        ~finally:(fun () ->
          Markov.Blocked_csr.close (Markov.Exact.blocked spilled))
        (fun () ->
          fused_mixing ctx ~pi:(Markov.Exact.stationary chain) spilled);
      blocked_spmv ctx ~states ~transitions chain)

(* Evidence for the Obs overhead contract: while tracing is disabled,
   every recording entry point is one load-and-branch with no
   allocation, so instrumenting the step loops costs well under 2% of
   their throughput.  Each row pairs an instrumentation call with the
   same baseline work (a ref increment), so the delta to the baseline
   row is the per-call cost. *)
let obs_overhead ctx =
  Printf.printf "\n#### Micro — disabled-path instrumentation overhead\n%!";
  let budget = 0.2 in
  let table =
    Ctx.table ctx
      ~title:
        (if Obs.enabled () then "obs overhead (tracing ON)"
         else "obs disabled-path overhead")
      ~columns:[ "operation"; "ns/op"; "minor words/op" ]
  in
  let c = Obs.Counter.make "micro.overhead_counter" in
  let h = Obs.Histogram.make "micro.overhead_hist" in
  let x = ref 0 in
  let row name f =
    let rate, alloc = time_budget_loop ~budget f in
    Ctx.row table
      ~values:[ ("ns_per_op", 1e9 /. rate); ("minor_words", alloc) ]
      [ name; Printf.sprintf "%.1f" (1e9 /. rate); Printf.sprintf "%.2f" alloc ]
  in
  row "baseline (ref incr)" (fun () -> incr x);
  row "  + Counter.add" (fun () ->
      incr x;
      Obs.Counter.add c 1);
  row "  + Histogram.observe" (fun () ->
      incr x;
      Obs.Histogram.observe h !x);
  row "  + with_span" (fun () ->
      incr x;
      Obs.with_span "micro.overhead_span" (fun () -> ()));
  Ctx.note table
    "contract: with tracing off, each entry point is one load-and-branch \
     and allocates nothing; quantile and merge work on snapshots only, so \
     the record path is unchanged by the percentile additions";
  Ctx.emit ctx table

(* The serve daemon's hot path in isolation: [Serve.Cluster.apply_batch]
   on one shard, on a mixed insert/remove/probe stream (the `repro load`
   default mix), across batch sizes.  Socket and JSON framing costs are
   excluded — compare with `repro load` against a running daemon for
   the end-to-end number. *)
let serve_throughput ctx =
  Printf.printf "\n#### Micro — serve cluster throughput\n%!";
  let n = 16_384 in
  let budget = 0.15 in
  let g = Prng.Rng.create ~seed:0x5E57E () in
  let batch_of size =
    Array.init size (fun _ ->
        match Prng.Rng.int g 100 with
        | r when r < 45 ->
            Engine.Event.Insert
              (Int64.to_int (Int64.shift_right_logical (Prng.Rng.bits64 g) 2))
        | r when r < 90 -> Engine.Event.Remove
        | _ -> Engine.Event.Probe)
  in
  let table =
    Ctx.table ctx ~title:"serve cluster throughput, in process"
      ~columns:
        [ "config"; "kops/s"; "batch p50(us)"; "batch p99(us)";
          "batch p999(us)" ]
  in
  let cluster =
    Serve.Cluster.create
      {
        Serve.Cluster.n;
        m = 2 * n;
        shards = 1;
        process = Serve.Process.Sequential;
        scenario = Core.Scenario.A;
        rule = Core.Scheduling_rule.abku 2;
        repr = Core.Repr.Array_backed;
        seed = 0xC10C;
      }
  in
  List.iter
    (fun size ->
      let batch = batch_of size in
      ignore (Sys.opaque_identity (Serve.Cluster.apply_batch cluster batch));
      let lat = Obs.Hist.create () in
      let t0 = Unix.gettimeofday () in
      let events = ref 0 in
      while Unix.gettimeofday () -. t0 < budget do
        let t1 = Obs.Clock.now_ns () in
        ignore (Sys.opaque_identity (Serve.Cluster.apply_batch cluster batch));
        Obs.Hist.observe lat (Int64.to_int (Obs.Clock.ns_since t1));
        events := !events + size
      done;
      let rate = float_of_int !events /. (Unix.gettimeofday () -. t0) in
      let snap = Obs.Hist.snapshot lat in
      let p q = Obs.Hist.quantile snap q /. 1e3 in
      Ctx.row table
        ~values:
          [
            ("shards", 1.);
            ("batch", float_of_int size);
            ("ops_per_sec", rate);
            ("batch_p50_us", p 0.5);
            ("batch_p99_us", p 0.99);
            ("batch_p999_us", p 0.999);
          ]
        [
          Printf.sprintf "1 shards x %d" size;
          Printf.sprintf "%.0f" (rate /. 1e3);
          Printf.sprintf "%.1f" (p 0.5);
          Printf.sprintf "%.1f" (p 0.99);
          Printf.sprintf "%.1f" (p 0.999);
        ])
    [ 64; 512; 4096 ];
  Ctx.note table
    "in-process Cluster.apply_batch, mixed 45/45/10 insert/remove/probe; \
     excludes socket and JSON framing (see `repro load`); batch percentiles \
     are whole-batch apply latency";
  Ctx.emit ctx table

(* The daemon's wire codec alone, on serve-read's request mix (80%
   probe, 10% watermark, 5% insert, 5% remove): decode a request line
   where it lies in a byte buffer, as the server does, and encode one
   reply into a reused buffer.  The allocation column is gated: bare
   ops decode to preallocated values, so only inserts allocate. *)
let wire_codec ctx =
  Printf.printf "\n#### Micro — serve wire codec\n%!";
  let g = Prng.Rng.create ~seed:0xC0DEC () in
  let k = 4096 in
  let lines = Buffer.create (k * 24) in
  let offs = Array.make (k + 1) 0 in
  let replies =
    Array.init k (fun i ->
        offs.(i) <- Buffer.length lines;
        let u = Prng.Rng.float g in
        if u < 0.05 then begin
          Printf.bprintf lines "{\"op\":\"insert\",\"key\":%d}"
            (Prng.Rng.int g 1_000_000_000);
          Engine.Event.Placed (Prng.Rng.int g 16384)
        end
        else if u < 0.10 then begin
          Buffer.add_string lines "{\"op\":\"remove\"}";
          Engine.Event.Removed (Prng.Rng.int g 16384)
        end
        else if u < 0.20 then begin
          Buffer.add_string lines "{\"op\":\"watermark\"}";
          Engine.Event.Level (3 + Prng.Rng.int g 3)
        end
        else begin
          Buffer.add_string lines "{\"op\":\"probe\"}";
          Engine.Event.Level (2 + Prng.Rng.int g 3)
        end)
  in
  offs.(k) <- Buffer.length lines;
  let bytes = Buffer.to_bytes lines in
  Array.iteri
    (fun i _ ->
      match Serve.Wire.decode bytes offs.(i) (offs.(i + 1) - offs.(i)) with
      | Ok (None, Serve.Wire.Event _) -> ()
      | _ -> failwith "micro: a serve-read request does not decode")
    replies;
  let table =
    Ctx.table ctx ~title:"serve wire codec"
      ~columns:[ "operation"; "ns/request"; "minor words/request" ]
  in
  let row name step =
    let rate, alloc = time_budget_loop ~budget:0.2 step in
    Ctx.row table
      ~values:[ ("ns_per_request", 1e9 /. rate); ("minor_words", alloc) ]
      [ name; Printf.sprintf "%.1f" (1e9 /. rate); Printf.sprintf "%.2f" alloc ]
  in
  let i = ref 0 in
  row "decode" (fun () ->
      let j = !i in
      ignore
        (Sys.opaque_identity
           (Serve.Wire.decode bytes offs.(j) (offs.(j + 1) - offs.(j))));
      i := (j + 1) land (k - 1));
  let out = Buffer.create (k * 48) in
  row "encode" (fun () ->
      let j = !i in
      if j = 0 then Buffer.clear out;
      Serve.Wire.add_reply out ~id:None replies.(j);
      i := (j + 1) land (k - 1));
  Ctx.note table
    "serve-read's 80/10/5/5 probe/watermark/insert/remove mix, no ids; \
     decode reads each line in place with Serve.Wire.decode, encode appends \
     one reply line to a reused buffer";
  Ctx.emit ctx table

let run ctx =
  backend_tables ctx;
  exact_tables ctx;
  engine_vs_chain ctx;
  serve_throughput ctx;
  wire_codec ctx;
  obs_overhead ctx;
  Printf.printf "\n#### Micro — per-step cost (Bechamel OLS estimate)\n%!";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let instances = [ Instance.monotonic_clock ] in
  let table =
    Ctx.table ctx ~title:"per-step cost"
      ~columns:[ "operation"; "ns/step"; "R^2"; "minor words/step" ]
  in
  List.iter
    (fun (name, f) ->
      let results =
        Benchmark.all cfg instances (Test.make ~name (Staged.stage f))
      in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:true
             ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      let words = minor_words_per_call f in
      Hashtbl.iter
        (fun name ols ->
          let ns =
            match Analyze.OLS.estimates ols with
            | Some (x :: _) -> Some x
            | _ -> None
          in
          let r2 =
            match Analyze.OLS.r_square ols with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "-"
          in
          Ctx.row table
            ~values:
              (("minor_words", words)
              :: Option.to_list (Option.map (fun x -> ("ns_per_step", x)) ns))
            [
              name;
              (match ns with Some x -> Printf.sprintf "%.1f" x | None -> "-");
              r2;
              Printf.sprintf "%.2f" words;
            ])
        ols)
    (make_tests ());
  Ctx.emit ctx table

let spec =
  Experiment.Spec.v ~id:"micro"
    ~claim:"Bechamel per-step costs and engine/exact-layer speedups"
    ~tags:[ "micro"; "perf" ]
    ~default:false ~auto_heading:false run
