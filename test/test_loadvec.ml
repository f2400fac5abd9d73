(* Tests for the load-vector calculus of Section 3.1. *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector
module Cv = Loadvec.Count_vector

(* Reference implementation of oplus/ominus: mutate then fully re-sort. *)
let ref_oplus v i =
  let a = Lv.to_array v in
  a.(i) <- a.(i) + 1;
  Lv.of_array a

let ref_ominus v i =
  let a = Lv.to_array v in
  a.(i) <- a.(i) - 1;
  Lv.of_array a

let test_of_array_sorts () =
  let v = Lv.of_array [| 1; 5; 3 |] in
  Alcotest.(check (array int)) "sorted" [| 5; 3; 1 |] (Lv.to_array v)

(* Sorted input skips the sort but is still copied; sorted input with a
   negative entry is refused as before. *)
let test_of_array_sorted_copies () =
  let a = [| 3; 2; 2; 0 |] in
  let v = Lv.of_array a in
  a.(0) <- 9;
  Alcotest.(check (array int)) "unchanged by the input" [| 3; 2; 2; 0 |]
    (Lv.to_array v);
  Alcotest.check_raises "sorted, negative"
    (Invalid_argument "Load_vector.of_array: negative load") (fun () ->
      ignore (Lv.of_array [| 0; -1 |]))

let test_of_array_invalid () =
  Alcotest.check_raises "empty" (Invalid_argument "Load_vector.of_array: empty")
    (fun () -> ignore (Lv.of_array [||]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Load_vector.of_array: negative load") (fun () ->
      ignore (Lv.of_array [| 1; -1 |]))

let test_of_loads () =
  let v = Lv.of_loads ~n:4 [ 2; 1 ] in
  Alcotest.(check (array int)) "padded" [| 2; 1; 0; 0 |] (Lv.to_array v);
  Alcotest.check_raises "too many"
    (Invalid_argument "Load_vector.of_loads: more loads than bins") (fun () ->
      ignore (Lv.of_loads ~n:1 [ 1; 1 ]))

let test_uniform () =
  Alcotest.(check (array int)) "even" [| 2; 2; 2 |]
    (Lv.to_array (Lv.uniform ~n:3 ~m:6));
  Alcotest.(check (array int)) "remainder" [| 3; 2; 2 |]
    (Lv.to_array (Lv.uniform ~n:3 ~m:7))

let test_all_in_one () =
  Alcotest.(check (array int)) "spike" [| 5; 0; 0 |]
    (Lv.to_array (Lv.all_in_one ~n:3 ~m:5))

let test_accessors () =
  let v = Lv.of_array [| 4; 2; 2; 0 |] in
  Alcotest.(check int) "dim" 4 (Lv.dim v);
  Alcotest.(check int) "total" 8 (Lv.total v);
  Alcotest.(check int) "max" 4 (Lv.max_load v);
  Alcotest.(check int) "min" 0 (Lv.min_load v);
  Alcotest.(check int) "support" 3 (Lv.support v);
  Alcotest.(check int) "get 1" 2 (Lv.get v 1)

let test_first_last_equal () =
  let v = Lv.of_array [| 4; 2; 2; 2; 1 |] in
  Alcotest.(check int) "first of class 2" 1 (Lv.first_equal v 2);
  Alcotest.(check int) "last of class 2" 3 (Lv.last_equal v 2);
  Alcotest.(check int) "singleton first" 0 (Lv.first_equal v 0);
  Alcotest.(check int) "singleton last" 0 (Lv.last_equal v 0)

let test_fact32 () =
  (* Fact 3.2 worked example: incrementing any rank of an equal-load class
     is realised at the first rank; decrementing at the last. *)
  let v = Lv.of_array [| 3; 2; 2; 2; 1 |] in
  Alcotest.(check (array int)) "oplus mid-class" [| 3; 3; 2; 2; 1 |]
    (Lv.to_array (Lv.oplus v 2));
  Alcotest.(check (array int)) "ominus mid-class" [| 3; 2; 2; 1; 1 |]
    (Lv.to_array (Lv.ominus v 2))

let test_ominus_empty_bin () =
  let v = Lv.of_array [| 2; 0 |] in
  Alcotest.check_raises "empty bin"
    (Invalid_argument "Load_vector.ominus: empty bin") (fun () ->
      ignore (Lv.ominus v 1))

let test_delta () =
  let v = Lv.of_array [| 3; 1; 0 |] and u = Lv.of_array [| 2; 1; 1 |] in
  Alcotest.(check int) "delta" 1 (Lv.delta v u);
  Alcotest.(check int) "l1" 2 (Lv.l1_distance v u);
  Alcotest.(check int) "self" 0 (Lv.delta v v)

let test_delta_mismatch () =
  let v = Lv.of_array [| 1; 1 |] and u = Lv.of_array [| 3; 0 |] in
  Alcotest.check_raises "total mismatch"
    (Invalid_argument "Load_vector.delta: total mismatch") (fun () ->
      ignore (Lv.delta v u))

let test_counts_by_load () =
  let v = Lv.of_array [| 3; 3; 1; 0; 0 |] in
  Alcotest.(check (list (pair int int))) "classes" [ (3, 2); (1, 1); (0, 2) ]
    (Lv.counts_by_load v)

let test_is_normalized () =
  Alcotest.(check bool) "yes" true (Lv.is_normalized [| 3; 2; 2 |]);
  Alcotest.(check bool) "no" false (Lv.is_normalized [| 2; 3 |]);
  Alcotest.(check bool) "negative" false (Lv.is_normalized [| 1; -1 |]);
  Alcotest.(check bool) "empty" false (Lv.is_normalized [||])

let random_vector g ~n ~m =
  let a = Array.make n 0 in
  for _ = 1 to m do
    let i = Prng.Rng.int g n in
    a.(i) <- a.(i) + 1
  done;
  Lv.of_array a

let qcheck_oplus_matches_reference =
  QCheck.Test.make ~name:"oplus = add-then-normalize" ~count:500
    QCheck.(triple small_int (int_range 1 10) (int_range 0 30))
    (fun (seed, n, m) ->
      let g = Prng.Rng.create ~seed () in
      let v = random_vector g ~n ~m in
      let i = Prng.Rng.int g n in
      Lv.equal (Lv.oplus v i) (ref_oplus v i))

let qcheck_ominus_matches_reference =
  QCheck.Test.make ~name:"ominus = sub-then-normalize" ~count:500
    QCheck.(triple small_int (int_range 1 10) (int_range 1 30))
    (fun (seed, n, m) ->
      let g = Prng.Rng.create ~seed () in
      let v = random_vector g ~n ~m in
      let s = Lv.support v in
      QCheck.assume (s > 0);
      let i = Prng.Rng.int g s in
      Lv.equal (Lv.ominus v i) (ref_ominus v i))

let qcheck_delta_metric =
  QCheck.Test.make ~name:"delta is a metric (symmetry, triangle)" ~count:300
    QCheck.(quad small_int (int_range 1 8) (int_range 0 20) unit)
    (fun (seed, n, m, ()) ->
      let g = Prng.Rng.create ~seed () in
      let v = random_vector g ~n ~m in
      let u = random_vector g ~n ~m in
      let w = random_vector g ~n ~m in
      Lv.delta v u = Lv.delta u v
      && Lv.delta v w <= Lv.delta v u + Lv.delta u w
      && (Lv.delta v u = 0) = Lv.equal v u)

let qcheck_mutable_matches_immutable =
  QCheck.Test.make ~name:"mutable ops track immutable ops" ~count:300
    QCheck.(triple small_int (int_range 1 8) (int_range 2 25))
    (fun (seed, n, m) ->
      let g = Prng.Rng.create ~seed () in
      let v0 = random_vector g ~n ~m in
      let mv = Mv.of_load_vector v0 in
      let iv = ref v0 in
      let ok = ref true in
      for _ = 1 to 30 do
        if Prng.Rng.bool g && Lv.support !iv > 0 then begin
          let i = Prng.Rng.int g (Lv.support !iv) in
          ignore (Mv.decr_at mv i);
          iv := Lv.ominus !iv i
        end
        else begin
          let i = Prng.Rng.int g n in
          ignore (Mv.incr_at mv i);
          iv := Lv.oplus !iv i
        end;
        if not (Lv.equal (Mv.to_load_vector mv) !iv) then ok := false;
        if Mv.support mv <> Lv.support !iv then ok := false;
        if Mv.total mv <> Lv.total !iv then ok := false
      done;
      !ok)

let test_mutable_basics () =
  let mv = Mv.of_load_vector (Lv.of_array [| 2; 1; 0 |]) in
  Alcotest.(check int) "dim" 3 (Mv.dim mv);
  Alcotest.(check int) "total" 3 (Mv.total mv);
  Alcotest.(check int) "support" 2 (Mv.support mv);
  Alcotest.(check int) "max" 2 (Mv.max_load mv);
  Alcotest.(check int) "min" 0 (Mv.min_load mv);
  let j = Mv.incr_at mv 2 in
  Alcotest.(check int) "incr rank" 2 j;
  Alcotest.(check int) "support grew" 3 (Mv.support mv);
  let s = Mv.decr_at mv 0 in
  Alcotest.(check int) "decr rank" 0 s;
  Alcotest.(check int) "total back" 3 (Mv.total mv)

let test_mutable_copy_independent () =
  let a = Mv.of_load_vector (Lv.of_array [| 2; 1 |]) in
  let b = Mv.copy a in
  ignore (Mv.incr_at a 0);
  Alcotest.(check bool) "copy unchanged" false (Mv.equal a b)

let test_mutable_decr_empty () =
  let mv = Mv.of_load_vector (Lv.of_array [| 1; 0 |]) in
  Alcotest.check_raises "decr empty"
    (Invalid_argument "Mutable_vector.decr_at: empty bin") (fun () ->
      ignore (Mv.decr_at mv 1))

(* {2 Count-vector backend} *)

let test_counts_basics () =
  let cv = Cv.of_load_vector (Lv.of_array [| 3; 3; 1; 0 |]) in
  Alcotest.(check int) "dim" 4 (Cv.dim cv);
  Alcotest.(check int) "total" 7 (Cv.total cv);
  Alcotest.(check int) "support" 3 (Cv.support cv);
  Alcotest.(check int) "max" 3 (Cv.max_load cv);
  Alcotest.(check int) "min" 0 (Cv.min_load cv);
  Alcotest.(check int) "count 3" 2 (Cv.count cv 3);
  Alcotest.(check int) "count 2" 0 (Cv.count cv 2);
  Alcotest.(check int) "count above max" 0 (Cv.count cv 9);
  Alcotest.(check (array int)) "round trip" [| 3; 3; 1; 0 |]
    (Lv.to_array (Cv.to_load_vector cv))

let test_counts_level_of_rank () =
  let cv = Cv.of_load_vector (Lv.of_array [| 3; 3; 1; 0; 0 |]) in
  Alcotest.(check int) "rank 0" 3 (Cv.level_of_rank cv 0);
  Alcotest.(check int) "rank 1" 3 (Cv.level_of_rank cv 1);
  Alcotest.(check int) "rank 2" 1 (Cv.level_of_rank cv 2);
  Alcotest.(check int) "rank 4" 0 (Cv.level_of_rank cv 4);
  Alcotest.check_raises "bad rank"
    (Invalid_argument "Count_vector.level_of_rank") (fun () ->
      ignore (Cv.level_of_rank cv 5))

let test_counts_shifts () =
  let cv = Cv.of_load_vector (Lv.of_array [| 2; 1; 0 |]) in
  Cv.shift_down cv 2;
  Alcotest.(check (array int)) "after shift_down" [| 1; 1; 0 |]
    (Lv.to_array (Cv.to_load_vector cv));
  Cv.shift_up cv 1;
  Alcotest.(check (array int)) "after shift_up" [| 2; 1; 0 |]
    (Lv.to_array (Cv.to_load_vector cv));
  Alcotest.(check int) "max maintained" 2 (Cv.max_load cv);
  Alcotest.check_raises "shift_down empty level"
    (Invalid_argument "Count_vector.shift_down: no bin at level") (fun () ->
      Cv.shift_down cv 9)

(* One ejection round (every non-empty bin loses a ball), on both
   mutable representations: same resulting multiset, same count of
   ejected balls, totals maintained. *)
let test_eject_all () =
  let check_pair loads expect_q expect_after =
    let v = Lv.of_array loads in
    let mv = Mv.of_load_vector v in
    let cv = Cv.of_load_vector v in
    Alcotest.(check int) "mv ejected count" expect_q (Mv.eject_all mv);
    Alcotest.(check int) "cv ejected count" expect_q (Cv.eject_all cv);
    Alcotest.(check (array int)) "mv after ejection" expect_after
      (Lv.to_array (Mv.to_load_vector mv));
    Alcotest.(check (array int)) "cv after ejection" expect_after
      (Lv.to_array (Cv.to_load_vector cv));
    Alcotest.(check int) "mv total" (Lv.total v - expect_q) (Mv.total mv);
    Alcotest.(check int) "cv total" (Lv.total v - expect_q) (Cv.total cv)
  in
  check_pair [| 3; 2; 1; 0 |] 3 [| 2; 1; 0; 0 |];
  check_pair [| 1; 1; 1 |] 3 [| 0; 0; 0 |];
  check_pair [| 0; 0 |] 0 [| 0; 0 |];
  check_pair [| 5 |] 1 [| 4 |]

let test_counts_copy_independent () =
  let a = Cv.of_load_vector (Lv.of_array [| 2; 1 |]) in
  let b = Cv.copy a in
  Cv.shift_up a 1;
  Alcotest.(check bool) "copy unchanged" false (Cv.equal a b)

(* The count vector mirrors the mutable vector under the elementary
   moves of the processes: decrement at a class, increment at a class. *)
let qcheck_counts_track_mutable =
  QCheck.Test.make ~name:"count vector tracks mutable vector" ~count:300
    QCheck.(triple small_int (int_range 1 8) (int_range 2 25))
    (fun (seed, n, m) ->
      let g = Prng.Rng.create ~seed () in
      let v0 = random_vector g ~n ~m in
      let mv = Mv.of_load_vector v0 in
      let cv = Cv.of_load_vector v0 in
      let ok = ref true in
      for _ = 1 to 40 do
        (if Prng.Rng.bool g && Mv.support mv > 0 then begin
           let i = Prng.Rng.int g (Mv.support mv) in
           let level = Mv.get mv i in
           ignore (Mv.decr_at mv i);
           Cv.shift_down cv level
         end
         else begin
           let i = Prng.Rng.int g n in
           let level = Mv.get mv i in
           ignore (Mv.incr_at mv i);
           Cv.shift_up cv level
         end);
        if not (Lv.equal (Mv.to_load_vector mv) (Cv.to_load_vector cv)) then
          ok := false;
        if Cv.support cv <> Mv.support mv then ok := false;
        if Cv.total cv <> Mv.total mv then ok := false;
        if Cv.max_load cv <> Mv.max_load mv then ok := false
      done;
      !ok)

(* level_of_ball replays the scenario-A prefix scan exactly: compare
   against the rank-by-rank reference on the expanded array. *)
let qcheck_counts_level_of_ball =
  QCheck.Test.make ~name:"level_of_ball = rank scan's level" ~count:500
    QCheck.(quad small_int (int_range 1 8) (int_range 1 25) (float_range 0. 1.))
    (fun (seed, n, m, u) ->
      let u = if u >= 1. then 0.9999999 else u in
      let g = Prng.Rng.create ~seed () in
      let v = random_vector g ~n ~m in
      let cv = Cv.of_load_vector v in
      let loads = Lv.to_array v in
      let target = u *. float_of_int m in
      let rec scan i acc =
        if i = n - 1 then i
        else
          let acc = acc + loads.(i) in
          if target < float_of_int acc then i else scan (i + 1) acc
      in
      let rank = scan 0 0 in
      loads.(rank) = Cv.level_of_ball cv ~target:(int_of_float target))

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("of_array sorts", test_of_array_sorts);
      ("of_array invalid", test_of_array_invalid);
      ("of_loads", test_of_loads);
      ("uniform", test_uniform);
      ("all_in_one", test_all_in_one);
      ("accessors", test_accessors);
      ("first/last equal", test_first_last_equal);
      ("Fact 3.2", test_fact32);
      ("ominus empty bin", test_ominus_empty_bin);
      ("delta", test_delta);
      ("delta mismatch", test_delta_mismatch);
      ("counts_by_load", test_counts_by_load);
      ("is_normalized", test_is_normalized);
      ("mutable basics", test_mutable_basics);
      ("mutable copy independent", test_mutable_copy_independent);
      ("mutable decr empty", test_mutable_decr_empty);
      ("counts basics", test_counts_basics);
      ("counts level_of_rank", test_counts_level_of_rank);
      ("counts shifts", test_counts_shifts);
      ("eject_all on both mutable representations", test_eject_all);
      ("counts copy independent", test_counts_copy_independent);
      ("of_array copies sorted input", test_of_array_sorted_copies);
    ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        qcheck_oplus_matches_reference;
        qcheck_ominus_matches_reference;
        qcheck_delta_metric;
        qcheck_mutable_matches_immutable;
        qcheck_counts_track_mutable;
        qcheck_counts_level_of_ball;
      ]
