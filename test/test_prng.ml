(* Tests for the PRNG substrate. *)

let rng ?(seed = 42) () = Prng.Rng.create ~seed ()

let test_determinism () =
  let a = rng () and b = rng () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Rng.bits64 a) (Prng.Rng.bits64 b)
  done

let test_copy_replays () =
  let a = rng () in
  ignore (Prng.Rng.bits64 a);
  let b = Prng.Rng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy replays" (Prng.Rng.bits64 a) (Prng.Rng.bits64 b)
  done

let test_split_differs () =
  let a = rng () in
  let b = Prng.Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Rng.bits64 a = Prng.Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_seed_changes_stream () =
  let a = Prng.Rng.create ~seed:1 () and b = Prng.Rng.create ~seed:2 () in
  Alcotest.(check bool) "different seeds"
    true
    (Prng.Rng.bits64 a <> Prng.Rng.bits64 b)

let test_int_bounds () =
  let g = rng () in
  for bound = 1 to 40 do
    for _ = 1 to 200 do
      let x = Prng.Rng.int g bound in
      if x < 0 || x >= bound then Alcotest.failf "out of range: %d/%d" x bound
    done
  done

let test_int_invalid () =
  let g = rng () in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Prng.Rng.int g 0))

let test_int_in () =
  let g = rng () in
  for _ = 1 to 500 do
    let x = Prng.Rng.int_in g (-5) 7 in
    if x < -5 || x > 7 then Alcotest.failf "int_in out of range: %d" x
  done;
  Alcotest.(check int) "singleton range" 3 (Prng.Rng.int_in g 3 3)

let test_float_range () =
  let g = rng () in
  for _ = 1 to 1000 do
    let x = Prng.Rng.float g in
    if not (x >= 0. && x < 1.) then Alcotest.failf "float out of range: %f" x
  done

let test_float_mean () =
  let g = rng () in
  let s = ref 0. in
  let reps = 20_000 in
  for _ = 1 to reps do
    s := !s +. Prng.Rng.float g
  done;
  let mean = !s /. float_of_int reps in
  Alcotest.(check bool) "mean near 1/2" true (Float.abs (mean -. 0.5) < 0.02)

let test_bool_balance () =
  let g = rng () in
  let heads = ref 0 in
  let reps = 20_000 in
  for _ = 1 to reps do
    if Prng.Rng.bool g then incr heads
  done;
  let frac = float_of_int !heads /. float_of_int reps in
  Alcotest.(check bool) "balanced coin" true (Float.abs (frac -. 0.5) < 0.02)

let test_bernoulli_edges () =
  let g = rng () in
  for _ = 1 to 100 do
    Alcotest.(check bool) "p=0 never" false (Prng.Rng.bernoulli g 0.);
    Alcotest.(check bool) "p=1 always" true (Prng.Rng.bernoulli g 1.)
  done;
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Rng.bernoulli: p not in [0,1]") (fun () ->
      ignore (Prng.Rng.bernoulli g 1.5))

let test_geometric () =
  let g = rng () in
  for _ = 1 to 100 do
    Alcotest.(check int) "p=1 gives 0" 0 (Prng.Rng.geometric g 1.)
  done;
  let s = ref 0 in
  let reps = 20_000 in
  for _ = 1 to reps do
    s := !s + Prng.Rng.geometric g 0.5
  done;
  let mean = float_of_int !s /. float_of_int reps in
  (* Mean of failures before success at p = 1/2 is 1. *)
  Alcotest.(check bool) "geometric mean near 1" true (Float.abs (mean -. 1.) < 0.05);
  Alcotest.check_raises "p=0 invalid"
    (Invalid_argument "Rng.geometric: p not in (0,1]") (fun () ->
      ignore (Prng.Rng.geometric g 0.))

let test_pair_distinct () =
  let g = rng () in
  for _ = 1 to 1000 do
    let i, j = Prng.Rng.pair_distinct g 5 in
    if not (0 <= i && i < j && j < 5) then Alcotest.failf "bad pair %d %d" i j
  done;
  Alcotest.check_raises "n too small"
    (Invalid_argument "Rng.pair_distinct: need n >= 2") (fun () ->
      ignore (Prng.Rng.pair_distinct g 1))

let test_pair_uniform () =
  let g = rng () in
  let counts = Hashtbl.create 16 in
  let reps = 30_000 in
  for _ = 1 to reps do
    let p = Prng.Rng.pair_distinct g 4 in
    Hashtbl.replace counts p (1 + Option.value ~default:0 (Hashtbl.find_opt counts p))
  done;
  Alcotest.(check int) "all 6 pairs seen" 6 (Hashtbl.length counts);
  Hashtbl.iter
    (fun _ c ->
      let frac = float_of_int c /. float_of_int reps in
      if Float.abs (frac -. (1. /. 6.)) > 0.02 then
        Alcotest.failf "pair frequency off: %f" frac)
    counts

let test_xoshiro_jump () =
  let a = Prng.Xoshiro.of_seed 9L and b = Prng.Xoshiro.of_seed 9L in
  Prng.Xoshiro.jump b;
  (* Jumped stream diverges from the original... *)
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Xoshiro.next a = Prng.Xoshiro.next b then incr same
  done;
  Alcotest.(check bool) "jump diverges" true (!same < 4);
  (* ...and jumping is deterministic. *)
  let c = Prng.Xoshiro.of_seed 9L and d = Prng.Xoshiro.of_seed 9L in
  Prng.Xoshiro.jump c;
  Prng.Xoshiro.jump d;
  Alcotest.(check int64) "deterministic" (Prng.Xoshiro.next c) (Prng.Xoshiro.next d)

let test_weighted_int () =
  let g = rng () in
  let counts = Array.make 3 0 in
  let reps = 30_000 in
  for _ = 1 to reps do
    let i = Prng.Dist.weighted_int g [| 1; 2; 7 |] in
    counts.(i) <- counts.(i) + 1
  done;
  let frac i = float_of_int counts.(i) /. float_of_int reps in
  Alcotest.(check bool) "w0 ~ 0.1" true (Float.abs (frac 0 -. 0.1) < 0.02);
  Alcotest.(check bool) "w2 ~ 0.7" true (Float.abs (frac 2 -. 0.7) < 0.02);
  Alcotest.check_raises "zero total" (Invalid_argument "Dist: zero total weight")
    (fun () -> ignore (Prng.Dist.weighted_int g [| 0; 0 |]))

let test_inverse_cdf () =
  let w = [| 1.; 2.; 1. |] in
  Alcotest.(check int) "low u" 0 (Prng.Dist.inverse_cdf w 0.0);
  Alcotest.(check int) "u=0.24" 0 (Prng.Dist.inverse_cdf w 0.24);
  Alcotest.(check int) "u=0.26" 1 (Prng.Dist.inverse_cdf w 0.26);
  Alcotest.(check int) "u=0.74" 1 (Prng.Dist.inverse_cdf w 0.74);
  Alcotest.(check int) "u=0.76" 2 (Prng.Dist.inverse_cdf w 0.76)

let test_weighted_skips_zeros () =
  let g = rng () in
  for _ = 1 to 500 do
    let i = Prng.Dist.weighted g [| 0.; 1.; 0.; 1.; 0. |] in
    if i <> 1 && i <> 3 then Alcotest.failf "picked zero-weight index %d" i
  done

let qcheck_int_in_range =
  QCheck.Test.make ~name:"Rng.int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.Rng.create ~seed () in
      let x = Prng.Rng.int g bound in
      0 <= x && x < bound)

let qcheck_inverse_cdf_valid =
  QCheck.Test.make ~name:"Dist.inverse_cdf lands on positive weight" ~count:500
    QCheck.(pair (list_of_size (Gen.int_range 1 10) (float_range 0. 10.))
              (float_range 0. 0.999))
    (fun (ws, u) ->
      let w = Array.of_list ws in
      QCheck.assume (Array.fold_left ( +. ) 0. w > 0.);
      let i = Prng.Dist.inverse_cdf w u in
      0 <= i && i < Array.length w)

(* xoshiro256++ known answers: the reference implementation's first six
   outputs from the state words 1, 2, 3, 4. *)
let test_xoshiro_known_answers () =
  let g = Prng.Xoshiro.of_state [| 1L; 2L; 3L; 4L |] in
  List.iter
    (fun expected ->
      Alcotest.(check int64) "reference output" expected (Prng.Xoshiro.next g))
    [ 41943041L; 58720359L; 3588806011781223L; 3591011842654386L;
      -9218127359498767411L; -8473074601504656454L ]

(* A short stream of the default seed, pinned: every [Rng] draw kind
   (mask and rejection paths of [int], [float], [bool], [split]) and the
   saved state after it.  A change to how draws read the generator's
   bits shows up here before it reaches any experiment table. *)
let test_pinned_stream () =
  let ints g bound k = List.init k (fun _ -> Prng.Rng.int g bound) in
  let g = Prng.Rng.create ~seed:0x5EED () in
  Alcotest.(check (list int))
    "int 256" [ 0; 87; 51; 15; 242; 164 ] (ints g 256 6);
  Alcotest.(check (list int))
    "int 1000" [ 389; 223; 372; 244; 278; 587 ] (ints g 1000 6);
  Alcotest.(check (list (float 0.)))
    "float"
    [ 0x1.e7d3fbabaa785p-1; 0x1.24790c6c6aa9ep-1; 0x1.9b298d84f3bdp-4;
      0x1.033bc660fe4dp-5 ]
    (List.init 4 (fun _ -> Prng.Rng.float g));
  Alcotest.(check (list bool))
    "bool"
    [ true; true; true; false; true; true; true; true ]
    (List.init 8 (fun _ -> Prng.Rng.bool g));
  let s = Prng.Rng.split g in
  Alcotest.(check (list int64))
    "split"
    [ 280777298040109809L; -2739733491430279003L; -1202142217815868315L ]
    (List.init 3 (fun _ -> Prng.Rng.bits64 s));
  Alcotest.(check (list int64))
    "source after split"
    [ -7178858407834158653L; -2014741398033523085L ]
    (List.init 2 (fun _ -> Prng.Rng.bits64 g));
  Alcotest.(check (array int64))
    "saved state"
    [| -4458470377966650001L; -5716898546633868682L; 2959945625433441044L;
       6479210636764736730L; 1663341875487361878L |]
    (Prng.Rng.save g);
  (* A bound just above 2^61 rejects about half of all draws. *)
  let g = Prng.Rng.create ~seed:0x5EED () in
  Alcotest.(check (list int))
    "int 2^61 + 1"
    [ 1059057413034740736; 1677040964159157043; 471105996538898389;
      1992388056607089372; 1141352963801122244; 695422361343745587 ]
    (ints g ((1 lsl 61) + 1) 6);
  Alcotest.(check (array int64))
    "saved state after rejections"
    [| -2903769987509840530L; 1273148356819279327L; 8564841679910629303L;
       -8180877080738042710L; 8709371129873715009L |]
    (Prng.Rng.save g)

(* The bounded draws read the generator's bits as tagged ints, and the
   state is unboxed, so they allocate nothing. *)
let test_draws_do_not_allocate () =
  let g = rng () in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    acc := !acc + Prng.Rng.int g 256 + Prng.Rng.int g 1000;
    if Prng.Rng.bool g then incr acc
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check (float 0.)) "minor words" 0. words

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("determinism", test_determinism);
      ("copy replays stream", test_copy_replays);
      ("split differs", test_split_differs);
      ("seed changes stream", test_seed_changes_stream);
      ("int bounds", test_int_bounds);
      ("int invalid", test_int_invalid);
      ("int_in", test_int_in);
      ("float range", test_float_range);
      ("float mean", test_float_mean);
      ("bool balance", test_bool_balance);
      ("bernoulli edges", test_bernoulli_edges);
      ("geometric", test_geometric);
      ("pair_distinct", test_pair_distinct);
      ("pair uniform", test_pair_uniform);
      ("xoshiro jump", test_xoshiro_jump);
      ("weighted_int frequencies", test_weighted_int);
      ("inverse_cdf boundaries", test_inverse_cdf);
      ("weighted skips zeros", test_weighted_skips_zeros);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_int_in_range;
        qcheck_inverse_cdf_valid;
      ]
  @ List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
      [
        ("xoshiro256++ known answers", test_xoshiro_known_answers);
        ("pinned stream of the default seed", test_pinned_stream);
        ("bounded draws do not allocate", test_draws_do_not_allocate);
      ]
