(* Tracing/telemetry subsystem: clock monotonicity, histogram
   bucketing, the disabled-path no-op contract, the Perfetto trace-event
   export (validated by parsing it back), and the determinism of the
   multi-domain trace merge. *)

module Json = Experiment.Json

(* Every test runs against the global Obs state; wrap so a failing test
   cannot leave tracing enabled for the rest of the binary. *)
let isolated f () =
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

let test_clock () =
  let t0 = Obs.Clock.now_ns () in
  let x = ref 0 in
  for i = 1 to 10_000 do
    x := !x + i
  done;
  ignore (Sys.opaque_identity !x);
  let t1 = Obs.Clock.now_ns () in
  Alcotest.(check bool) "clock advances" true (Int64.compare t1 t0 >= 0);
  Alcotest.(check bool)
    "ns_since clamps to zero" true
    (Int64.compare (Obs.Clock.ns_since (Int64.add t1 1_000_000_000L)) 0L = 0);
  Alcotest.(check bool)
    "seconds_since is non-negative" true
    (Obs.Clock.seconds_since t0 >= 0.)

let test_hist_buckets () =
  Alcotest.(check int) "<=0 goes to bucket 0" 0 (Obs.Hist.bucket_of 0);
  Alcotest.(check int) "negative goes to bucket 0" 0 (Obs.Hist.bucket_of (-5));
  Alcotest.(check int) "1 is the first 1-bit value" 1 (Obs.Hist.bucket_of 1);
  Alcotest.(check int) "2 opens bucket 2" 2 (Obs.Hist.bucket_of 2);
  Alcotest.(check int) "3 closes bucket 2" 2 (Obs.Hist.bucket_of 3);
  Alcotest.(check int) "4 opens bucket 3" 3 (Obs.Hist.bucket_of 4);
  Alcotest.(check int) "1023 is a 10-bit value" 10 (Obs.Hist.bucket_of 1023);
  Alcotest.(check int) "1024 is an 11-bit value" 11 (Obs.Hist.bucket_of 1024);
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.observe h) [ 1; 2; 3; 100; 0 ];
  let s = Obs.Hist.snapshot h in
  Alcotest.(check int) "count" 5 s.Obs.Hist.count;
  Alcotest.(check int) "sum" 106 s.Obs.Hist.sum;
  Alcotest.(check int) "max" 100 s.Obs.Hist.max;
  Alcotest.(check (float 1e-9)) "mean" 21.2 (Obs.Hist.mean s);
  Alcotest.(check (list (triple int int int)))
    "non-empty buckets in value order"
    [ (0, 0, 1); (1, 1, 1); (2, 3, 2); (64, 127, 1) ]
    s.Obs.Hist.buckets;
  Obs.Hist.reset h;
  Alcotest.(check int) "reset clears" 0 (Obs.Hist.snapshot h).Obs.Hist.count

(* {2 Histogram quantile / merge laws} *)

let snapshot_of values =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.observe h) values;
  Obs.Hist.snapshot h

let test_hist_quantiles () =
  Alcotest.(check bool)
    "empty quantile is nan" true
    (Float.is_nan (Obs.Hist.quantile Obs.Hist.empty 0.5));
  Alcotest.(check (list string))
    "percentile labels"
    [ "p50"; "p90"; "p99"; "p999" ]
    (List.map fst (Obs.Hist.percentiles Obs.Hist.empty));
  let s = snapshot_of (List.init 100 (fun i -> i + 1)) in
  (* 1..100: rank 50 is in bucket [32, 63], rank >= 90 in the top
     bucket, whose upper edge is pulled in to the recorded max. *)
  let q50 = Obs.Hist.quantile s 0.5 in
  Alcotest.(check bool) "p50 lands in its bucket" true
    (q50 >= 32. && q50 <= 63.);
  let q90 = Obs.Hist.quantile s 0.9 in
  Alcotest.(check bool) "p90 capped by the recorded max" true
    (q90 >= 64. && q90 <= 100.);
  Alcotest.(check (float 1e-9)) "q=1 is the max" 100. (Obs.Hist.quantile s 1.);
  Alcotest.(check (float 1e-9)) "q clamps above 1" 100.
    (Obs.Hist.quantile s 2.);
  let one = snapshot_of [ 7 ] in
  Alcotest.(check bool) "single observation stays in its bucket" true
    (let q = Obs.Hist.quantile one 0.5 in
     q >= 4. && q <= 7.)

let values_gen = QCheck.(list_of_size (Gen.int_range 0 60) (int_range 0 5000))

let qcheck_merge_matches_concatenation =
  QCheck.Test.make ~name:"Hist.merge = snapshot of the concatenated stream"
    ~count:300
    QCheck.(pair values_gen values_gen)
    (fun (xs, ys) ->
      Obs.Hist.merge (snapshot_of xs) (snapshot_of ys) = snapshot_of (xs @ ys))

let qcheck_merge_assoc_comm =
  QCheck.Test.make
    ~name:"Hist.merge is associative/commutative with empty identity"
    ~count:300
    QCheck.(triple values_gen values_gen values_gen)
    (fun (xs, ys, zs) ->
      let a = snapshot_of xs and b = snapshot_of ys and c = snapshot_of zs in
      Obs.Hist.merge a (Obs.Hist.merge b c)
      = Obs.Hist.merge (Obs.Hist.merge a b) c
      && Obs.Hist.merge a b = Obs.Hist.merge b a
      && Obs.Hist.merge a Obs.Hist.empty = a
      && Obs.Hist.merge Obs.Hist.empty a = a)

let qcheck_quantile_monotone =
  QCheck.Test.make ~name:"Hist.quantile is monotone in q" ~count:300
    QCheck.(triple values_gen (float_range 0. 1.) (float_range 0. 1.))
    (fun (xs, q1, q2) ->
      QCheck.assume (xs <> []);
      let s = snapshot_of xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Obs.Hist.quantile s lo <= Obs.Hist.quantile s hi)

(* The accuracy contract: the estimate lies inside the bucket holding
   the true order statistic of rank ceil(q * count), i.e. it is exact
   to within that bucket's width. *)
let qcheck_quantile_bucket_exact =
  QCheck.Test.make
    ~name:"Hist.quantile lands in the true order statistic's bucket"
    ~count:300
    QCheck.(pair values_gen (float_range 0. 1.))
    (fun (xs, q) ->
      QCheck.assume (xs <> []);
      let s = snapshot_of xs in
      let est = Obs.Hist.quantile s q in
      let sorted = List.sort compare xs in
      let n = List.length xs in
      let rank =
        min n (max 1 (int_of_float (ceil (q *. float_of_int n))))
      in
      let v = List.nth sorted (rank - 1) in
      match
        List.find_opt (fun (lo, hi, _) -> lo <= v && v <= hi)
          s.Obs.Hist.buckets
      with
      | None -> false
      | Some (lo, hi, _) ->
          est >= float_of_int lo && est <= float_of_int hi)

let test_disabled_no_op () =
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  let c = Obs.Counter.make "test.disabled_counter" in
  let h = Obs.Histogram.make "test.disabled_hist" in
  Obs.Counter.add c 5;
  Obs.Histogram.observe h 42;
  let sp = Obs.begin_span "test.disabled" ~args:[ ("k", Obs.Int 1) ] in
  Obs.end_span sp;
  Obs.with_span "test.disabled2" (fun () -> ());
  Obs.instant "test.disabled3";
  Obs.counter_sample "test.disabled4" 9;
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check int)
    "histogram untouched" 0
    (Obs.Histogram.snapshot h).Obs.Hist.count;
  Alcotest.(check int) "no events buffered" 0 (List.length (Obs.events ()));
  Alcotest.(check bool)
    "null_span matches a disabled begin_span" true
    (sp = Obs.null_span)

let test_counters_and_histograms_view () =
  Obs.enable ();
  let c = Obs.Counter.make "test.view_counter" in
  let h = Obs.Histogram.make "test.view_hist" in
  let silent = Obs.Counter.make "test.view_silent" in
  ignore silent;
  Obs.Counter.incr c;
  Obs.Counter.add c 2;
  Obs.Histogram.observe h 7;
  Alcotest.(check int) "counter accumulates" 3 (Obs.Counter.value c);
  Alcotest.(check bool)
    "view lists the active counter" true
    (List.mem_assoc "test.view_counter" (Obs.counters ()));
  Alcotest.(check bool)
    "view omits silent instruments" false
    (List.mem_assoc "test.view_silent" (Obs.counters ()));
  Alcotest.(check bool)
    "view lists the active histogram" true
    (List.mem_assoc "test.view_hist"
       (Obs.Registry.to_json Obs.Registry.global));
  Obs.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (Obs.Counter.value c);
  Alcotest.(check bool)
    "reset empties the views" true
    (not (List.mem_assoc "test.view_counter" (Obs.counters ())))

let test_nested_span_ordering () =
  Obs.enable ();
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner" (fun () -> ());
      Obs.instant "marker");
  let evs = Obs.events () in
  let names = List.map (fun (e : Obs.event) -> e.Obs.name) evs in
  (* The outer span begins first, so its seq is lowest even though it is
     recorded (ends) last. *)
  Alcotest.(check (list string))
    "begin order, not end order"
    [ "outer"; "inner"; "marker" ]
    names;
  let seqs = List.map (fun (e : Obs.event) -> e.Obs.seq) evs in
  Alcotest.(check (list int)) "sequential seqs" [ 0; 1; 2 ] seqs;
  let outer = List.hd evs in
  let inner = List.nth evs 1 in
  Alcotest.(check bool)
    "outer duration covers inner" true
    (Int64.compare outer.Obs.dur_ns inner.Obs.dur_ns >= 0)

let member_exn name doc =
  match Json.member name doc with
  | Some v -> v
  | None -> Alcotest.failf "missing field %S" name

let test_trace_json_round_trip () =
  Obs.enable ();
  Obs.with_span "alpha"
    ~args:[ ("n", Obs.Int 64); ("note", Obs.Str "quote\"me") ]
    (fun () -> ());
  let sp = Obs.begin_span "beta" in
  Obs.end_span ~args:[ ("tv", Obs.Float 0.125) ] sp;
  Obs.instant "gamma";
  Obs.counter_sample "load" 17;
  let doc =
    match Json.of_string (Obs.trace_json ()) with
    | Ok doc -> doc
    | Error msg -> Alcotest.failf "trace does not parse: %s" msg
  in
  Alcotest.(check string)
    "display unit" "ms"
    (match member_exn "displayTimeUnit" doc with
    | Json.String s -> s
    | _ -> "?");
  let events =
    match member_exn "traceEvents" doc with
    | Json.List evs -> evs
    | _ -> Alcotest.fail "traceEvents is not an array"
  in
  Alcotest.(check int) "one event per record" 4 (List.length events);
  let number = function
    | Json.Int i -> float_of_int i
    | Json.Float x -> x
    | _ -> Alcotest.fail "expected a number"
  in
  List.iter
    (fun ev ->
      (match member_exn "ph" ev with
      | Json.String ("X" | "i" | "C") -> ()
      | _ -> Alcotest.fail "unexpected phase");
      Alcotest.(check bool) "ts >= 0" true (number (member_exn "ts" ev) >= 0.);
      Alcotest.(check int) "pid is 1" 1
        (match member_exn "pid" ev with Json.Int i -> i | _ -> -1);
      match member_exn "tid" ev with
      | Json.Int _ -> ()
      | _ -> Alcotest.fail "tid is not an integer")
    events;
  let find name =
    List.find
      (fun ev ->
        match Json.member "name" ev with
        | Some (Json.String s) -> s = name
        | _ -> false)
      events
  in
  let alpha = find "alpha" in
  Alcotest.(check bool) "complete events carry dur" true
    (Json.member "dur" alpha <> None);
  (match Json.member "n" (member_exn "args" alpha) with
  | Some (Json.Int 64) -> ()
  | _ -> Alcotest.fail "begin-side int arg lost");
  (match Json.member "note" (member_exn "args" alpha) with
  | Some (Json.String "quote\"me") -> ()
  | _ -> Alcotest.fail "string arg not escaped/recovered");
  (match Json.member "tv" (member_exn "args" (find "beta")) with
  | Some (Json.Float tv) -> Alcotest.(check (float 1e-12)) "end-side float arg" 0.125 tv
  | _ -> Alcotest.fail "end-side arg lost");
  (match member_exn "ph" (find "gamma") with
  | Json.String "i" -> ()
  | _ -> Alcotest.fail "instant phase");
  match (member_exn "ph" (find "load"), Json.member "value" (member_exn "args" (find "load"))) with
  | Json.String "C", Some (Json.Int 17) -> ()
  | _ -> Alcotest.fail "counter sample phase/value"

(* The satellite contract: the same fan-out traced at different domain
   counts yields the same trace once timestamps are stripped, because
   events merge on the deterministic (track, seq) key. *)
let traced_fanout ~domains =
  Obs.reset ();
  Obs.enable ();
  let rng = Prng.Rng.create ~seed:0xD15C () in
  let r =
    Engine.Runner.run ~domains ~rng ~reps:6 (fun g m ->
        Obs.with_span "work" (fun () ->
            Engine.Metrics.add_step m;
            if Prng.Rng.bool g then Some 1 else None))
  in
  ignore r.Engine.Runner.observations;
  let evs = Obs.events () in
  let stripped =
    List.map
      (fun (e : Obs.event) ->
        (e.Obs.name, e.Obs.ph, e.Obs.track, e.Obs.seq, e.Obs.args))
      evs
  in
  let hist = Obs.Histogram.snapshot (Obs.Histogram.make "runner.first_hit_steps") in
  Obs.disable ();
  (stripped, hist)

let test_domain_count_invariance () =
  let one, hist1 = traced_fanout ~domains:1 in
  let four, hist4 = traced_fanout ~domains:4 in
  Alcotest.(check int)
    "same event count" (List.length one) (List.length four);
  Alcotest.(check bool)
    "identical after timestamp stripping" true (one = four);
  Alcotest.(check int)
    "telemetry histograms agree" hist1.Obs.Hist.count hist4.Obs.Hist.count;
  Alcotest.(check bool) "trace is non-trivial" true (List.length one >= 12)

let test_write_trace_file () =
  Obs.enable ();
  Obs.with_span "filed" (fun () -> ());
  let path = Filename.temp_file "obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Obs.write_trace ~path;
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Json.of_string text with
      | Ok doc ->
          Alcotest.(check bool)
            "file holds a traceEvents object" true
            (Json.member "traceEvents" doc <> None)
      | Error msg -> Alcotest.failf "written trace does not parse: %s" msg)

let test_task_tracks () =
  Obs.enable ();
  let base = Obs.task_base ~count:3 in
  let base' = Obs.task_base ~count:2 in
  Alcotest.(check int) "bases do not overlap" (base + 3) base';
  Obs.in_task (base + 1) (fun () -> Obs.instant "tasked");
  Obs.instant "untasked";
  let evs = Obs.events () in
  let track_of name =
    (List.find (fun (e : Obs.event) -> e.Obs.name = name) evs).Obs.track
  in
  Alcotest.(check int) "tasked event on its track" (base + 1)
    (track_of "tasked");
  Alcotest.(check int) "untasked event back on track 0" 0
    (track_of "untasked")

(* Both registry views come from one scrape: they name the same
   families, leave out the same empty series, and escape a label value
   exactly once. *)
let test_registry_views_agree () =
  let r = Obs.Registry.create () in
  Obs.Registry.counter r "requests" ~help:"Requests" (fun () -> 7);
  Obs.Registry.gauge r "depth" ~help:"Depth" (fun () -> 3);
  Obs.Registry.gauge_float r "age_seconds" ~help:"Age" (fun () -> Some 1.5);
  Obs.Registry.gauge_float r "sync_age_seconds" ~help:"Never synced"
    (fun () -> None);
  let round = Obs.Hist.create () and latency = Obs.Hist.create () in
  List.iter (Obs.Hist.observe round) [ 1; 5; 9 ];
  Obs.Hist.observe latency 42;
  let odd = "a\"b\\c\nd" in
  Obs.Registry.histogram r "round_ns" ~help:"Round" round;
  Obs.Registry.histogram r "latency_ns" ~labels:[ ("op", odd) ] ~help:"Latency"
    latency;
  Obs.Registry.histogram r "latency_ns" ~labels:[ ("op", "quiet") ]
    ~help:"Latency" (Obs.Hist.create ());
  Obs.Registry.histogram r "empty_ns" ~help:"Never observed" (Obs.Hist.create ());
  let json = Obs.Registry.to_json r in
  let prom = Obs.Registry.to_prom ~prefix:"test_" r in
  let chop_suffix name =
    List.fold_left
      (fun name suffix ->
        if String.ends_with ~suffix name then
          String.sub name 0 (String.length name - String.length suffix)
        else name)
      name [ "_total"; "_count"; "_sum" ]
  in
  let prom_families =
    String.split_on_char '\n' prom
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' line with
           | [ "#"; "TYPE"; name; _ ] ->
               Some (chop_suffix (String.sub name 5 (String.length name - 5)))
           | _ -> None)
    |> List.sort_uniq String.compare
  in
  Alcotest.(check (list string))
    "both views name the same families, empty ones left out"
    [ "age_seconds"; "depth"; "latency_ns"; "requests"; "round_ns" ]
    (List.sort String.compare (List.map fst json));
  Alcotest.(check (list string)) "the Prometheus view agrees"
    (List.sort String.compare (List.map fst json))
    prom_families;
  Alcotest.(check bool) "counters render as JSON integers" true
    (List.assoc "requests" json = Json.Int 7);
  (match List.assoc "latency_ns" json with
  | Json.List [ series ] ->
      Alcotest.(check bool) "label value kept as is" true
        (Json.member "op" series = Some (Json.String odd))
  | _ -> Alcotest.fail "the empty labelled series is left out");
  let contains needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length prom && (String.sub prom i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "label escaped once" true
    (contains {|test_latency_ns_count{op="a\"b\\c\nd"} 1|});
  Alcotest.(check bool) "quiet series absent" false (contains "quiet");
  Alcotest.(check bool) "JSON text round-trips the label" true
    (match Json.of_string (Json.to_string (Json.Obj json)) with
    | Ok doc -> (
        match Json.member "latency_ns" doc with
        | Some (Json.List [ series ]) ->
            Json.member "op" series = Some (Json.String odd)
        | _ -> false)
    | Error _ -> false)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick (isolated f))
    [
      ("monotonic clock", test_clock);
      ("histogram bucketing", test_hist_buckets);
      ("histogram quantiles", test_hist_quantiles);
      ("disabled path records nothing", test_disabled_no_op);
      ("counter/histogram views", test_counters_and_histograms_view);
      ("nested span ordering", test_nested_span_ordering);
      ("trace JSON round-trip", test_trace_json_round_trip);
      ("domain-count invariance", test_domain_count_invariance);
      ("write_trace file", test_write_trace_file);
      ("task track reservation", test_task_tracks);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_merge_matches_concatenation;
        qcheck_merge_assoc_comm;
        qcheck_quantile_monotone;
        qcheck_quantile_bucket_exact;
      ]
  @ [
      Alcotest.test_case "registry views agree" `Quick
        (isolated test_registry_views_agree);
    ]
