(* Tests for the statistics substrate. *)

let feq ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol

let check_float ?tol name expected got =
  if not (feq ?tol expected got) then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected got

let summary_of xs =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) xs;
  s

let test_summary_basic () =
  let s = summary_of [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check int) "count" 4 (Stats.Summary.count s);
  check_float "mean" 2.5 (Stats.Summary.mean s);
  check_float "min" 1. (Stats.Summary.min s);
  check_float "max" 4. (Stats.Summary.max s);
  check_float "sum" 10. (Stats.Summary.sum s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Summary.mean s))

let test_summary_single () =
  let s = summary_of [ 7. ] in
  check_float "mean" 7. (Stats.Summary.mean s)

let test_summary_merge () =
  let a = summary_of [ 1.; 2.; 3. ] and b = summary_of [ 10.; 20. ] in
  let m = Stats.Summary.merge a b in
  let whole = summary_of [ 1.; 2.; 3.; 10.; 20. ] in
  Alcotest.(check int) "count" (Stats.Summary.count whole) (Stats.Summary.count m);
  check_float ~tol:1e-9 "mean" (Stats.Summary.mean whole) (Stats.Summary.mean m);
  check_float "min" 1. (Stats.Summary.min m);
  check_float "max" 20. (Stats.Summary.max m)

let test_summary_merge_empty () =
  let a = summary_of [ 1.; 2. ] and e = Stats.Summary.create () in
  let m = Stats.Summary.merge a e in
  check_float "mean unchanged" 1.5 (Stats.Summary.mean m);
  let m' = Stats.Summary.merge e a in
  check_float "mean unchanged (flip)" 1.5 (Stats.Summary.mean m')

let test_quantile_known () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "q0" 1. (Stats.Quantile.quantile xs 0.);
  check_float "q1" 4. (Stats.Quantile.quantile xs 1.);
  check_float "median" 2.5 (Stats.Quantile.median xs);
  check_float "q25" 1.75 (Stats.Quantile.quantile xs 0.25)

let test_quantile_unsorted_input () =
  let xs = [| 3.; 1.; 2. |] in
  check_float "median of unsorted" 2. (Stats.Quantile.median xs);
  Alcotest.(check (array (float 0.))) "input untouched" [| 3.; 1.; 2. |] xs

let test_quantile_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Quantile.quantile: empty sample")
    (fun () -> ignore (Stats.Quantile.quantile [||] 0.5));
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Quantile.quantile: q not in [0,1]") (fun () ->
      ignore (Stats.Quantile.quantile [| 1. |] 1.5))

let test_histogram () =
  let h = Stats.Freq.create ~size:5 in
  List.iter (Stats.Freq.observe h) [ 0; 1; 1; 3; 3; 3 ];
  Alcotest.(check int) "count 1" 2 (Stats.Freq.get h 1);
  Alcotest.(check int) "count 2" 0 (Stats.Freq.get h 2);
  Alcotest.(check int) "count 3" 3 (Stats.Freq.get h 3);
  Alcotest.(check int) "total" 6 (Stats.Freq.total h);
  check_float "mean" (11. /. 6.) (Stats.Freq.mean h);
  check_float "frac >= 3" 0.5 (Stats.Freq.fraction_at_least h 3);
  check_float "frac >= 0" 1. (Stats.Freq.fraction_at_least h 0);
  check_float "frac beyond the size" 0. (Stats.Freq.fraction_at_least h 9);
  Alcotest.(check (array int)) "counts" [| 1; 2; 0; 3; 0 |]
    (Stats.Freq.counts h)

let test_histogram_growth () =
  let h = Stats.Freq.create ~size:1001 in
  Stats.Freq.observe h 1000;
  Alcotest.(check int) "large value" 1 (Stats.Freq.get h 1000);
  Alcotest.check_raises "negative" (Invalid_argument "Freq.observe: bad cell")
    (fun () -> Stats.Freq.observe h (-1));
  Alcotest.check_raises "beyond the bound" (Invalid_argument "Freq.observe: bad cell")
    (fun () -> Stats.Freq.observe h 1001)

let test_histogram_pp () =
  let h = Stats.Freq.create ~size:8 in
  List.iter (Stats.Freq.observe h) [ 0; 1; 1 ];
  let rendered = Format.asprintf "%a" Stats.Freq.pp h in
  Alcotest.(check string) "rows up to the largest value"
    "   0:        1 ####################\n   1:        2 ########################################\n"
    rendered;
  let empty = Format.asprintf "%a" Stats.Freq.pp (Stats.Freq.create ~size:3) in
  Alcotest.(check string) "empty marker" "(empty histogram)" empty

let test_ols_exact_line () =
  let pts = Array.init 10 (fun i ->
      let x = float_of_int i in
      (x, 3. +. (2. *. x)))
  in
  let fit = Stats.Regression.ols pts in
  check_float ~tol:1e-9 "slope" 2. fit.Stats.Regression.slope;
  check_float ~tol:1e-9 "intercept" 3. fit.Stats.Regression.intercept;
  check_float ~tol:1e-9 "r2" 1. fit.Stats.Regression.r_squared

let test_power_law_exact () =
  let pts = Array.init 8 (fun i ->
      let x = float_of_int (i + 2) in
      (x, 5. *. (x ** 1.7)))
  in
  let fit = Stats.Regression.power_law pts in
  check_float ~tol:1e-9 "exponent" 1.7 fit.Stats.Regression.slope;
  check_float ~tol:1e-6 "log c" (log 5.) fit.Stats.Regression.intercept

let test_log_corrected_power_law () =
  (* y = x ln x should fit exponent 1 after dividing by ln x. *)
  let pts = Array.init 8 (fun i ->
      let x = float_of_int (10 * (i + 1)) in
      (x, x *. log x))
  in
  let fit = Stats.Regression.log_corrected_power_law ~log_exponent:1. pts in
  check_float ~tol:1e-9 "exponent" 1. fit.Stats.Regression.slope

let test_regression_invalid () =
  Alcotest.check_raises "one point"
    (Invalid_argument "Regression.ols: need at least two points") (fun () ->
      ignore (Stats.Regression.ols [| (1., 1.) |]));
  Alcotest.check_raises "zero variance"
    (Invalid_argument "Regression.ols: zero variance in x") (fun () ->
      ignore (Stats.Regression.ols [| (1., 1.); (1., 2.) |]));
  Alcotest.check_raises "negative coordinate"
    (Invalid_argument "Regression.power_law: coordinates must be positive")
    (fun () -> ignore (Stats.Regression.power_law [| (1., 1.); (-1., 2.) |]))

let test_bootstrap_constant () =
  let rng = Prng.Rng.create ~seed:7 () in
  let xs = Array.make 30 5. in
  let lo, hi = Stats.Bootstrap.ci ~rng ~stat:Stats.Quantile.median xs in
  check_float "lo" 5. lo;
  check_float "hi" 5. hi

let test_bootstrap_contains_truth () =
  let rng = Prng.Rng.create ~seed:7 () in
  let xs = Array.init 200 (fun i -> float_of_int (i mod 10)) in
  let lo, hi = Stats.Bootstrap.ci ~rng ~stat:Stats.Quantile.median xs in
  Alcotest.(check bool) "median in CI" true (lo <= 4.5 && 4.5 <= hi);
  Alcotest.(check bool) "tight-ish" true (hi -. lo < 1.5)

let test_bootstrap_invalid () =
  let rng = Prng.Rng.create ~seed:7 () in
  Alcotest.check_raises "empty" (Invalid_argument "Bootstrap.ci: empty sample")
    (fun () ->
      ignore (Stats.Bootstrap.ci ~rng ~stat:Stats.Quantile.median [||]))

let test_table () =
  let t = Stats.Table.create ~title:"T" ~columns:[ "a"; "bb" ] in
  Stats.Table.add_row t [ "1"; "2" ];
  Stats.Table.add_note t "a note";
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  Stats.Table.pp fmt t;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "has title" true
    (String.length s > 0 && String.index_opt s 'T' <> None);
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Stats.Table.add_row t [ "only one" ])

let test_table_csv () =
  let t = Stats.Table.create ~title:"T" ~columns:[ "a"; "b" ] in
  Stats.Table.add_row t [ "1,5"; "say \"hi\"" ];
  Stats.Table.add_row t [ "2"; "plain" ];
  Alcotest.(check string) "escaped"
    "a,b\n\"1,5\",\"say \"\"hi\"\"\"\n2,plain\n"
    (Stats.Table.to_csv t);
  Alcotest.(check string) "title accessor" "T" (Stats.Table.title t)

(* Minimal RFC 4180 parser (LF-separated records, double-quote escaping)
   for the round-trip tests below. *)
let parse_csv s =
  let records = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 16 in
  let n = String.length s in
  let flush_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let flush_record () =
    flush_field ();
    records := List.rev !fields :: !records;
    fields := []
  in
  let i = ref 0 in
  while !i < n do
    match s.[!i] with
    | '"' ->
        incr i;
        let closed = ref false in
        while not !closed do
          if !i >= n then failwith "parse_csv: unterminated quote";
          if s.[!i] = '"' then
            if !i + 1 < n && s.[!i + 1] = '"' then begin
              Buffer.add_char buf '"';
              i := !i + 2
            end
            else begin
              closed := true;
              incr i
            end
          else begin
            Buffer.add_char buf s.[!i];
            incr i
          end
        done
    | ',' ->
        flush_field ();
        incr i
    | '\n' ->
        flush_record ();
        incr i
    | c ->
        Buffer.add_char buf c;
        incr i
  done;
  if Buffer.length buf > 0 || !fields <> [] then flush_record ();
  List.rev !records

let test_table_csv_roundtrip () =
  let rows =
    [
      [ "a,b"; "say \"hi\""; "line1\nline2" ];
      [ "cr\rcell"; ",\",\n"; "plain" ];
      [ ""; "\"\""; "trailing," ];
    ]
  in
  let t = Stats.Table.create ~title:"RT" ~columns:[ "x"; "y"; "z" ] in
  List.iter (Stats.Table.add_row t) rows;
  let parsed = parse_csv (Stats.Table.to_csv t) in
  Alcotest.(check (list (list string)))
    "header + rows survive RFC 4180"
    ([ "x"; "y"; "z" ] :: rows)
    parsed

let test_table_csv_notes () =
  let t = Stats.Table.create ~title:"N" ~columns:[ "a"; "b"; "c"; "d" ] in
  Stats.Table.add_row t [ "1"; "2"; "3"; "4" ];
  let note = "commas, \"quotes\" and\nnewlines" in
  Stats.Table.add_note t note;
  (* Default layout omits notes (historical CSV bytes). *)
  Alcotest.(check (list (list string)))
    "notes omitted by default"
    [ [ "a"; "b"; "c"; "d" ]; [ "1"; "2"; "3"; "4" ] ]
    (parse_csv (Stats.Table.to_csv t));
  (* With ~notes:true each note is a padded trailing record. *)
  Alcotest.(check (list (list string)))
    "note record padded to arity"
    [ [ "a"; "b"; "c"; "d" ]; [ "1"; "2"; "3"; "4" ];
      [ "note"; note; ""; "" ] ]
    (parse_csv (Stats.Table.to_csv ~notes:true t));
  (* Narrow tables must not raise when padding the note record. *)
  let narrow = Stats.Table.create ~title:"N1" ~columns:[ "only" ] in
  Stats.Table.add_note narrow "n";
  Alcotest.(check (list (list string)))
    "one-column note"
    [ [ "only" ]; [ "note"; "n" ] ]
    (parse_csv (Stats.Table.to_csv ~notes:true narrow))

let test_table_accessors () =
  let t = Stats.Table.create ~title:"A" ~columns:[ "c1"; "c2" ] in
  Stats.Table.add_row t [ "r1a"; "r1b" ];
  Stats.Table.add_row t [ "r2a"; "r2b" ];
  Stats.Table.add_note t "first";
  Stats.Table.add_note t "second";
  Alcotest.(check (list string)) "columns" [ "c1"; "c2" ] (Stats.Table.columns t);
  Alcotest.(check (list (list string)))
    "rows in insertion order"
    [ [ "r1a"; "r1b" ]; [ "r2a"; "r2b" ] ]
    (Stats.Table.rows t);
  Alcotest.(check (list string))
    "notes in insertion order" [ "first"; "second" ] (Stats.Table.notes t)

let qcheck_quantile_monotone =
  QCheck.Test.make ~name:"quantile monotone in q" ~count:300
    QCheck.(
      triple
        (list_of_size (Gen.int_range 1 20) (float_range (-100.) 100.))
        (float_range 0. 1.) (float_range 0. 1.))
    (fun (xs, q1, q2) ->
      let xs = Array.of_list xs in
      let lo = Float.min q1 q2 and hi = Float.max q1 q2 in
      Stats.Quantile.quantile xs lo <= Stats.Quantile.quantile xs hi +. 1e-9)

let qcheck_mean_within_bounds =
  QCheck.Test.make ~name:"summary mean within [min,max]" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 30) (float_range (-50.) 50.))
    (fun xs ->
      let s = summary_of xs in
      let m = Stats.Summary.mean s in
      m >= Stats.Summary.min s -. 1e-9 && m <= Stats.Summary.max s +. 1e-9)

let qcheck_merge_matches_whole =
  QCheck.Test.make ~name:"summary merge = whole-stream summary" ~count:300
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 20) (float_range (-10.) 10.))
        (list_of_size (Gen.int_range 1 20) (float_range (-10.) 10.)))
    (fun (xs, ys) ->
      let m = Stats.Summary.merge (summary_of xs) (summary_of ys) in
      let w = summary_of (xs @ ys) in
      feq ~tol:1e-6 (Stats.Summary.mean m) (Stats.Summary.mean w))

(* ---- Special (gamma / chi-square) ---------------------------------- *)

let test_special_log_gamma () =
  let check name expected x =
    Alcotest.(check (float 1e-10)) name expected (Stats.Special.log_gamma x)
  in
  check "ln Gamma(1) = 0" 0. 1.;
  check "ln Gamma(5) = ln 24" (log 24.) 5.;
  check "ln Gamma(0.5) = ln sqrt(pi)" (0.5 *. log Float.pi) 0.5;
  check "ln Gamma(10.5)" 13.940_625_219_403_76 10.5;
  Alcotest.check_raises "nonpositive argument"
    (Invalid_argument "Special.log_gamma: need x > 0") (fun () ->
      ignore (Stats.Special.log_gamma 0.))

let test_special_gamma_inc () =
  (* P(0.5, x) = erf(sqrt x); erf 1 is a standard constant. *)
  Alcotest.(check (float 1e-10))
    "P(0.5, 1) = erf 1" 0.842_700_792_949_714_9
    (Stats.Special.gamma_p ~a:0.5 ~x:1.);
  (* P(1, x) = 1 - e^{-x}, both below and above the a+1 diagonal. *)
  List.iter
    (fun x ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "P(1, %g)" x)
        (1. -. exp (-.x))
        (Stats.Special.gamma_p ~a:1. ~x);
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "P + Q = 1 at %g" x)
        1.
        (Stats.Special.gamma_p ~a:1. ~x +. Stats.Special.gamma_q ~a:1. ~x))
    [ 0.; 0.3; 1.; 5.; 40. ];
  Alcotest.(check (float 1e-12)) "P(a, 0) = 0" 0. (Stats.Special.gamma_p ~a:3. ~x:0.)

let test_special_chi_square () =
  (* df = 2 has the closed form sf(x) = e^{-x/2}. *)
  List.iter
    (fun x ->
      Alcotest.(check (float 1e-12))
        (Printf.sprintf "df=2 closed form at %g" x)
        (exp (-.x /. 2.))
        (Stats.Special.chi_square_sf ~df:2 x))
    [ 0.; 0.5; 2.; 5.991; 20. ];
  (* Textbook 5% critical values. *)
  Alcotest.(check (float 1e-4)) "df=1" 0.05 (Stats.Special.chi_square_sf ~df:1 3.8415);
  Alcotest.(check (float 1e-4)) "df=5" 0.05 (Stats.Special.chi_square_sf ~df:5 11.0705);
  Alcotest.(check (float 1e-4)) "df=10" 0.05 (Stats.Special.chi_square_sf ~df:10 18.307);
  Alcotest.check_raises "df < 1"
    (Invalid_argument "Special.chi_square_sf: need df >= 1") (fun () ->
      ignore (Stats.Special.chi_square_sf ~df:0 1.))

(* ---- Freq ----------------------------------------------------------- *)

let test_freq_counts () =
  let f = Stats.Freq.create ~size:4 in
  Alcotest.(check int) "empty total" 0 (Stats.Freq.total f);
  Stats.Freq.observe f 1;
  Stats.Freq.observe f 1;
  Stats.Freq.add f 3 2;
  Alcotest.(check int) "total" 4 (Stats.Freq.total f);
  Alcotest.(check (array int)) "counts" [| 0; 2; 0; 2 |] (Stats.Freq.counts f);
  let g = Stats.Freq.of_values [| 0; 3; 3; 0 |] in
  Stats.Freq.merge_into ~dst:f g;
  Alcotest.(check int) "merged total" 8 (Stats.Freq.total f);
  Alcotest.(check (array int)) "merged counts" [| 2; 2; 0; 4 |] (Stats.Freq.counts f);
  Alcotest.check_raises "bad cell" (Invalid_argument "Freq.observe: bad cell")
    (fun () -> Stats.Freq.observe f 4)

let test_freq_tv () =
  let a = Stats.Freq.of_values [| 0; 0; 1; 1 |] in
  let b = Stats.Freq.of_values [| 0; 0; 0; 0 |] in
  (* a = (1/2, 1/2), b = (1); padded TV = 1/2. *)
  Alcotest.(check (float 1e-12)) "padded tv" 0.5 (Stats.Freq.tv a b);
  Alcotest.(check (float 1e-12)) "tv self" 0. (Stats.Freq.tv a a);
  Alcotest.(check (float 1e-12))
    "tv against exact law" 0.25
    (Stats.Freq.tv_against a [| 0.75; 0.25 |]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Freq.tv_against: length mismatch") (fun () ->
      ignore (Stats.Freq.tv_against a [| 1. |]))

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("special log_gamma", test_special_log_gamma);
      ("special incomplete gamma", test_special_gamma_inc);
      ("special chi-square sf", test_special_chi_square);
      ("freq counts", test_freq_counts);
      ("freq tv", test_freq_tv);
      ("summary basic", test_summary_basic);
      ("summary empty", test_summary_empty);
      ("summary single", test_summary_single);
      ("summary merge", test_summary_merge);
      ("summary merge empty", test_summary_merge_empty);
      ("quantile known", test_quantile_known);
      ("quantile unsorted input", test_quantile_unsorted_input);
      ("quantile invalid", test_quantile_invalid);
      ("histogram", test_histogram);
      ("histogram growth", test_histogram_growth);
      ("histogram pp", test_histogram_pp);
      ("ols exact line", test_ols_exact_line);
      ("power law exact", test_power_law_exact);
      ("log-corrected power law", test_log_corrected_power_law);
      ("regression invalid", test_regression_invalid);
      ("bootstrap constant", test_bootstrap_constant);
      ("bootstrap contains truth", test_bootstrap_contains_truth);
      ("bootstrap invalid", test_bootstrap_invalid);
      ("table", test_table);
      ("table csv", test_table_csv);
      ("table csv roundtrip", test_table_csv_roundtrip);
      ("table csv notes", test_table_csv_notes);
      ("table accessors", test_table_accessors);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [ qcheck_quantile_monotone; qcheck_mean_within_bounds;
        qcheck_merge_matches_whole ]
