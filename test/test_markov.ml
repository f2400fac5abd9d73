(* Tests for partition spaces, the blocked-CSR store and exact analysis. *)

module M = Dense.Matrix
module Lv = Loadvec.Load_vector
module B = Markov.Blocked_csr

let feq ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol

let test_partition_count_small () =
  (* Partitions of 4 into at most 2 parts: 4, 3+1, 2+2. *)
  Alcotest.(check int) "p(4,2)" 3 (Markov.Partition_space.count ~n:2 ~m:4);
  (* Partitions of 5 (n >= 5): 7. *)
  Alcotest.(check int) "p(5)" 7 (Markov.Partition_space.count ~n:5 ~m:5);
  Alcotest.(check int) "m=0" 1 (Markov.Partition_space.count ~n:3 ~m:0)

let test_partition_enumerate () =
  let states = Markov.Partition_space.enumerate ~n:3 ~m:4 in
  Alcotest.(check int) "count matches" (Markov.Partition_space.count ~n:3 ~m:4)
    (Array.length states);
  Array.iter
    (fun v ->
      Alcotest.(check int) "total" 4 (Lv.total v);
      Alcotest.(check int) "dim" 3 (Lv.dim v);
      Alcotest.(check bool) "normalized" true (Lv.is_normalized (Lv.to_array v)))
    states;
  (* All distinct. *)
  let tbl = Hashtbl.create 16 in
  Array.iter (fun v -> Hashtbl.replace tbl v ()) states;
  Alcotest.(check int) "distinct" (Array.length states) (Hashtbl.length tbl)

(* State ids, and with them a checkpoint's starts and completed
   crossings, follow the enumeration order: strictly decreasing, every
   state a normalized vector of m balls. *)
let test_partition_enumerate_order () =
  for n = 1 to 8 do
    for m = 0 to 12 do
      let states = Markov.Partition_space.enumerate ~n ~m in
      let where = Printf.sprintf "n=%d m=%d" n m in
      Array.iteri
        (fun i v ->
          if not (Lv.is_normalized (Lv.to_array v) && Lv.total v = m) then
            Alcotest.failf "%s: state %d is not in Omega_m" where i;
          if i > 0 && Lv.compare states.(i - 1) v <= 0 then
            Alcotest.failf "%s: states %d and %d out of order" where (i - 1) i)
        states
    done
  done

let test_partition_count_matches_enumerate_sweep () =
  for n = 1 to 5 do
    for m = 0 to 8 do
      Alcotest.(check int)
        (Printf.sprintf "count n=%d m=%d" n m)
        (Array.length (Markov.Partition_space.enumerate ~n ~m))
        (Markov.Partition_space.count ~n ~m)
    done
  done

let test_partition_index () =
  let states = Markov.Partition_space.enumerate ~n:3 ~m:5 in
  let idx = Markov.Partition_space.index_of_space states in
  Alcotest.(check int) "size" (Array.length states)
    (Markov.Partition_space.size idx);
  Array.iteri
    (fun i v ->
      Alcotest.(check int) "roundtrip" i (Markov.Partition_space.find idx v))
    states;
  Alcotest.check_raises "missing" Not_found (fun () ->
      ignore (Markov.Partition_space.find idx (Lv.of_array [| 9; 9; 9 |])))

(* A two-state chain with known stationary distribution and mixing rate:
   P = [[1-p, p], [q, 1-q]], pi = (q, p)/(p+q). *)
let two_state p q =
  Markov.Exact_builder.build
    (Markov.Exact_builder.enumerated [| "x"; "y" |])
    ~transitions:(function
      | "x" -> [ ("x", 1. -. p); ("y", p) ]
      | _ -> [ ("x", q); ("y", 1. -. q) ])

let test_exact_stationary_two_state () =
  let c = two_state 0.3 0.1 in
  let pi = Markov.Exact.stationary c in
  Alcotest.(check bool) "pi x" true (feq ~tol:1e-9 pi.(0) 0.25);
  Alcotest.(check bool) "pi y" true (feq ~tol:1e-9 pi.(1) 0.75)

let test_exact_tv () =
  Alcotest.(check (float 1e-12)) "tv" 0.5
    (Markov.Exact.tv_distance [| 1.; 0. |] [| 0.5; 0.5 |]);
  Alcotest.(check (float 1e-12)) "tv self" 0.
    (Markov.Exact.tv_distance [| 0.3; 0.7 |] [| 0.3; 0.7 |])

let test_exact_distribution_after () =
  let c = two_state 0.5 0.5 in
  let d = Markov.Exact.distribution_after c ~start:0 1 in
  Alcotest.(check bool) "after one step" true
    (feq d.(0) 0.5 && feq d.(1) 0.5);
  let d0 = Markov.Exact.distribution_after c ~start:0 0 in
  Alcotest.(check bool) "t=0 is point mass" true (feq d0.(0) 1.)

let test_exact_mixing_two_state () =
  (* For p = q = 1/2 the chain is exactly mixed after one step. *)
  let c = two_state 0.5 0.5 in
  Alcotest.(check int) "mixes in 1" 1 (Markov.Exact.mixing_time ~eps:0.01 c);
  (* Slow chain mixes slower. *)
  let slow = two_state 0.05 0.05 in
  Alcotest.(check bool) "slow chain slower" true
    (Markov.Exact.mixing_time ~eps:0.01 slow > 5)

let test_exact_mixing_monotone_eps () =
  let c = two_state 0.2 0.3 in
  let t1 = Markov.Exact.mixing_time ~eps:0.25 c in
  let t2 = Markov.Exact.mixing_time ~eps:0.01 c in
  Alcotest.(check bool) "smaller eps, larger tau" true (t2 >= t1)

let test_exact_build_invalid () =
  let build source transitions =
    ignore (Markov.Exact_builder.build source ~transitions)
  in
  let enumerated = Markov.Exact_builder.enumerated [| 0 |]
  and reachable = Markov.Exact_builder.reachable ~root:0 in
  Alcotest.check_raises "bad row"
    (Invalid_argument "Exact_builder.build: row does not sum to 1") (fun () ->
      build enumerated (fun _ -> [ (0, 0.5) ]));
  Alcotest.check_raises "unknown successor"
    (Invalid_argument "Exact_builder.build: successor outside state space")
    (fun () -> build enumerated (fun _ -> [ (1, 1.) ]));
  (* A reachable space goes through the same row check. *)
  Alcotest.check_raises "bad row, reachable"
    (Invalid_argument "Exact_builder.build: row does not sum to 1") (fun () ->
      build reachable (fun i -> [ (i, 0.5) ]));
  Alcotest.check_raises "negative probability, reachable"
    (Invalid_argument "Exact_builder.build: negative probability") (fun () ->
      build reachable (fun i -> [ (i, 1.5); (i + 1, -0.5) ]))

let test_exact_build_merges_duplicates () =
  let c =
    Markov.Exact_builder.build
      (Markov.Exact_builder.enumerated [| 0; 1 |])
      ~transitions:(function 0 -> [ (1, 0.5); (1, 0.5) ] | _ -> [ (0, 1.) ])
  in
  Alcotest.(check int) "nnz" 2 (B.nnz (Markov.Exact.blocked c));
  Alcotest.(check (float 1e-12)) "merged" 1. (M.get (Dense.matrix c) 0 1)

(* A blocked store holding [rows], in the given shard shape. *)
let blocked_of_rows ?block_rows ?spill rows =
  let bld = B.builder ?block_rows ?spill () in
  Array.iter (B.add_row bld) rows;
  B.finish bld ~cols:(Array.length rows)

let test_sparse_construction () =
  (* Rows given out of order with duplicate coordinates and an explicit
     zero: the builder sorts, merges and drops. *)
  let b =
    blocked_of_rows
      [|
        [ (2, 0.25); (0, 0.5); (2, 0.25); (1, 0.) ]; [ (1, 1.) ]; [ (1, 1.) ];
      |]
  in
  Alcotest.(check int) "nnz" 4 (B.nnz b);
  Alcotest.(check int) "rows" 3 (B.rows b);
  Alcotest.(check int) "cols" 3 (B.cols b);
  Alcotest.(check (array (float 0.)))
    "row 0 merged" [| 0.5; 0.; 0.5 |]
    (M.row (Dense.of_blocked b) 0);
  Alcotest.(check bool) "row sums" true
    (Array.for_all (fun x -> feq x 1.) (B.row_sums b));
  Alcotest.(check bool) "stochastic" true (B.is_stochastic b);
  let bld = B.builder () in
  B.add_row bld [ (0, 0.25); (2, 0.5); (0, 0.25) ];
  B.add_row bld [ (1, 1.) ];
  let t = B.finish bld ~cols:3 in
  Alcotest.(check int) "duplicates merged" 3 (B.nnz t);
  Alcotest.(check bool) "rectangular is not stochastic" true
    (not (B.is_stochastic t))

let test_sparse_dense_roundtrip () =
  let rows =
    [| [ (0, 0.5); (2, 0.5) ]; [ (1, 1.) ]; [ (0, 0.25); (1, 0.75) ] |]
  in
  let m = M.of_rows ~cols:3 rows in
  let b = blocked_of_rows rows in
  Alcotest.(check int) "nnz of dense" 5 (B.nnz b);
  Alcotest.(check (float 1e-15)) "roundtrip exact" 0.
    (M.max_abs_diff (Dense.of_blocked b) m);
  (* spmv agrees with the dense product, including a zero input entry
     (whose row is skipped), and overwrites its destination. *)
  let v = [| 0.2; 0.; 0.8 |] in
  let dst = Array.make 3 9. in
  B.spmv (B.kernel b) ~src:v ~dst;
  Alcotest.(check bool) "spmv = vec_mul" true
    (Array.for_all2 (fun a b -> feq ~tol:1e-15 a b) dst (M.vec_mul v m))

(* Satellite regression: the historical stopping rule "successive
   iterates are close" stops far from pi on a slowly-mixing chain.  For
   P = [[1-p, p], [q, 1-q]] with p = 0.004, q = 0.001, pi = (0.2, 0.8)
   but the iterate drifts from (0.5, 0.5) by at most ~(p+q)/2 per step,
   so at tol = 1e-3 the old rule (kept in Dense) stops near (0.4, 0.6).
   The gap-corrected residual rule must keep iterating until the true
   error is ~tol. *)
let test_exact_stationary_near_reducible () =
  let c = two_state 0.004 0.001 in
  let pi = Markov.Exact.stationary ~tol:1e-3 c in
  Alcotest.(check bool)
    (Printf.sprintf "gap-corrected pi0 %.4f within 1e-2 of 0.2" pi.(0))
    true
    (Float.abs (pi.(0) -. 0.2) <= 1e-2);
  (* The true residual is below tol as well. *)
  let pi_step = M.vec_mul pi (Dense.matrix c) in
  Alcotest.(check bool) "residual |piP - pi| <= tol" true
    (Markov.Exact.tv_distance pi pi_step *. 2. <= 1e-3);
  let old = Dense.stationary ~tol:1e-3 c in
  Alcotest.(check bool)
    (Printf.sprintf "historical rule stops early (pi0 %.4f)" old.(0))
    true
    (Float.abs (old.(0) -. 0.2) > 0.05)

let test_exact_stationary_cache () =
  let c = two_state 0.3 0.1 in
  let pi1 = Markov.Exact.stationary c in
  let pi2 = Markov.Exact.stationary c in
  Alcotest.(check bool) "cached result identical" true
    (Array.for_all2 (fun a b -> a = b) pi1 pi2);
  (* A looser request reuses the tighter cached value bit-identically. *)
  let pi3 = Markov.Exact.stationary ~tol:1e-6 c in
  Alcotest.(check bool) "looser tol served from cache" true
    (Array.for_all2 (fun a b -> a = b) pi1 pi3)

let test_exact_accessors () =
  let c = two_state 0.3 0.1 in
  let sts = Markov.Exact.states c in
  Alcotest.(check (array string)) "states in index order" [| "x"; "y" |] sts;
  Alcotest.(check int) "nnz" 4 (B.nnz (Markov.Exact.blocked c));
  Alcotest.(check (float 0.)) "matrix in index order" 0.
    (M.max_abs_diff (Dense.matrix c)
       (M.of_rows ~cols:2
          [| [ (0, 1. -. 0.3); (1, 0.3) ]; [ (0, 0.1); (1, 1. -. 0.1) ] |]))

let test_builder_reachable_and_mix () =
  (* A 4-cycle plus an unreachable island: BFS from 0 finds the cycle in
     discovery order and build_mix agrees with the direct pipeline. *)
  let transitions i =
    [ ((i + 1) mod 4, 0.5); (i, 0.5) ]
  in
  let states = Markov.Exact_builder.reachable_states ~root:0 ~transitions () in
  Alcotest.(check (array int)) "BFS discovery order" [| 0; 1; 2; 3 |] states;
  let a =
    Markov.Exact_builder.build_mix ~eps:0.25
      (Markov.Exact_builder.reachable ~root:0)
      ~transitions
  in
  Alcotest.(check int) "state count" 4 a.Markov.Exact_builder.state_count;
  let direct =
    Markov.Exact.mixing_time ~eps:0.25
      (Markov.Exact_builder.build
         (Markov.Exact_builder.enumerated states)
         ~transitions)
  in
  Alcotest.(check int) "tau agrees with direct build" direct
    a.Markov.Exact_builder.tau;
  Alcotest.(check bool) "timings non-negative" true
    (a.Markov.Exact_builder.build_seconds >= 0.
    && a.Markov.Exact_builder.mix_seconds >= 0.)

let test_worst_tv_profile_drop_below () =
  let c = two_state 0.2 0.3 in
  let exact = Markov.Exact.worst_tv_profile c ~max_t:40 in
  let dropped = Markov.Exact.worst_tv_profile ~drop_below:1e-9 c ~max_t:40 in
  Alcotest.(check bool) "profiles within drop_below" true
    (Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-9) exact dropped)

module Si = Markov.State_index
module Ck = Markov.Exact_checkpoint

let test_state_index_basics () =
  let hash, equal = Si.structural () in
  let idx = Si.create ~hash ~equal 2 in
  (* Insert enough states to force several growths past the initial
     capacity; ids must come out in first-seen order. *)
  for i = 0 to 99 do
    Alcotest.(check int) "fresh id" i (Si.add idx (i * 7))
  done;
  Alcotest.(check int) "size" 100 (Si.size idx);
  Alcotest.(check int) "re-add returns existing id" 42 (Si.add idx (42 * 7));
  Alcotest.(check int) "size unchanged" 100 (Si.size idx);
  Alcotest.(check (option int)) "find hit" (Some 3) (Si.find idx 21);
  Alcotest.(check (option int)) "find miss" None (Si.find idx 1_000_000);
  Alcotest.(check int) "get" 14 (Si.get idx 2);
  let arr = Si.to_array idx in
  Alcotest.(check int) "to_array length" 100 (Array.length arr);
  Alcotest.(check bool) "to_array in id order" true
    (Array.for_all2 (fun a b -> a = b) arr (Array.init 100 (fun i -> i * 7)))

(* The rows of a deterministic pseudo-random stochastic matrix with
   irregular row fill, for roundtrip checks. *)
let stochastic_rows n =
  Array.init n (fun i ->
      let k = 1 + (i mod 4) in
      let cols = List.init k (fun j -> ((i * 13) + (j * 7) + 1) mod n) in
      let cols = List.sort_uniq compare cols in
      let w = 1. /. float_of_int (List.length cols) in
      List.map (fun j -> (j, w)) cols)

let test_blocked_roundtrip () =
  let n = 17 in
  let rows = stochastic_rows n in
  let m = M.of_rows ~cols:n rows in
  let nnz = Array.fold_left (fun acc r -> acc + List.length r) 0 rows in
  List.iter
    (fun block_rows ->
      let b = blocked_of_rows ~block_rows rows in
      Alcotest.(check int) "rows" n (B.rows b);
      Alcotest.(check int) "cols" n (B.cols b);
      Alcotest.(check int)
        (Printf.sprintf "block_count br=%d" block_rows)
        ((n + block_rows - 1) / block_rows)
        (B.block_count b);
      Alcotest.(check bool) "in memory" true (B.in_memory b);
      Alcotest.(check bool) "stochastic" true (B.is_stochastic b);
      Alcotest.(check int)
        (Printf.sprintf "nnz br=%d" block_rows)
        nnz (B.nnz b);
      Alcotest.(check (float 1e-15))
        (Printf.sprintf "roundtrip br=%d" block_rows)
        0.
        (M.max_abs_diff (Dense.of_blocked b) m);
      (* Kernel product agrees with the dense product. *)
      let src = Array.init n (fun i -> float_of_int ((i * 5) mod 7) /. 21.) in
      let dst = Array.make n nan in
      B.spmv (B.kernel b) ~src ~dst;
      let expect = M.vec_mul src m in
      Alcotest.(check bool)
        (Printf.sprintf "spmv br=%d" block_rows)
        true
        (Array.for_all2 (fun a b -> feq ~tol:1e-15 a b) dst expect))
    [ 1; 3; n; 2 * n ]

let bits_equal a b =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

let test_blocked_spill_roundtrip () =
  let n = 11 in
  let rows = stochastic_rows n in
  let m = M.of_rows ~cols:n rows in
  let in_memory = blocked_of_rows ~block_rows:4 rows in
  Alcotest.(check (float 0.)) "in-memory matrix" 0.
    (M.max_abs_diff (Dense.of_blocked in_memory) m);
  (* One fused step from a point mass, which reads row 0 only, and one
     from a vector with no zero entry, which reads every row of every
     block: the products and their TVs to a uniform pi. *)
  let pi = Array.make n (1. /. float_of_int n) in
  let point = Array.init n (fun i -> if i = 0 then 1. else 0.) in
  let full = Array.init n (fun i -> float_of_int (i + 1)) in
  let step b src =
    let dst = Array.make n nan in
    let tv = B.step_tv (B.kernel b) ~pi ~src ~dst in
    (dst, tv)
  in
  let expect = List.map (step in_memory) [ point; full ] in
  Alcotest.(check (float 1e-15)) "fused tv = dense tv"
    (Markov.Exact.tv_distance (M.vec_mul point m) pi)
    (snd (List.hd expect));
  (* Every entry of [b] equals the source, and both fused steps match
     the in-memory store's bit for bit. *)
  let check_same what b =
    Alcotest.(check int) (what ^ " nnz") (B.nnz in_memory) (B.nnz b);
    Alcotest.(check (float 0.)) (what ^ " matrix") 0.
      (M.max_abs_diff (Dense.of_blocked b) m);
    List.iter2
      (fun src (dst_expect, tv_expect) ->
        let dst, tv = step b src in
        Alcotest.(check bool) (what ^ " product bits") true
          (bits_equal dst dst_expect);
        Alcotest.(check bool) (what ^ " tv bits") true
          (Float.equal tv tv_expect))
      [ point; full ] expect
  in
  let path = Filename.temp_file "bcsr" ".blk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let b = blocked_of_rows ~block_rows:4 ~spill:path rows in
      Alcotest.(check bool) "spilled, not in memory" false (B.in_memory b);
      Alcotest.(check (option string)) "path recorded" (Some path) (B.path b);
      (* The streaming (disk) path. *)
      check_same "spilled" b;
      B.close b;
      (* Reopening the finalized file restores the matrix. *)
      let reopened = B.open_file path in
      check_same "reopened" reopened;
      B.close reopened)

let test_blocked_multi_bitwise () =
  (* The batched kernel must reproduce the single-vector fused products
     bit for bit, vector by vector — dst contents and TV statistics —
     across several chained steps, for both in-memory and mixed batch
     widths.  This is the contract the batched sweeps in Exact (TV
     profiles, mixing times) rely on for their exactness claims. *)
  let n = 37 in
  let b = blocked_of_rows ~block_rows:5 (stochastic_rows n) in
  let kern = B.kernel b in
  let pi = Array.init n (fun i -> float_of_int (1 + (i mod 3)) /. 74.) in
  (* Not a distribution; irrelevant — only summation order matters. *)
  List.iter
    (fun nb ->
      let mk_start v =
        let a = Array.make n 0. in
        a.(v mod n) <- 1.;
        a
      in
      let multi_cur = Array.init nb (fun v -> mk_start (v * 11)) in
      let multi_nxt = Array.init nb (fun _ -> Array.make n nan) in
      let single_cur = Array.init nb (fun v -> mk_start (v * 11)) in
      let single_nxt = Array.init nb (fun _ -> Array.make n nan) in
      for step = 1 to 4 do
        let ds =
          B.step_tv_multi kern ~pi ~srcs:multi_cur ~dsts:multi_nxt
        in
        for v = 0 to nb - 1 do
          let d =
            B.step_tv kern ~pi ~src:single_cur.(v) ~dst:single_nxt.(v)
          in
          Alcotest.(check bool)
            (Printf.sprintf "nb=%d step=%d vec=%d: tv bits" nb step v)
            true
            (Int64.equal (Int64.bits_of_float d) (Int64.bits_of_float ds.(v)));
          Alcotest.(check bool)
            (Printf.sprintf "nb=%d step=%d vec=%d: dst bits" nb step v)
            true
            (Array.for_all2
               (fun a b ->
                 Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
               single_nxt.(v) multi_nxt.(v));
          Array.blit multi_nxt.(v) 0 multi_cur.(v) 0 n;
          Array.blit single_nxt.(v) 0 single_cur.(v) 0 n
        done
      done)
    [ 1; 2; 3; 7 ]

let test_blocked_killed_build_rejected () =
  let path = Filename.temp_file "bcsr" ".blk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* Spill a few blocks but never [finish]: no trailer is written,
         so the file must be refused — this is the crash-safety story
         for killed builds. *)
      let bld = B.builder ~block_rows:2 ~spill:path () in
      for _ = 1 to 6 do
        B.add_row bld [ (0, 0.5); (1, 0.5) ]
      done;
      Alcotest.(check bool) "killed build rejected" true
        (match B.open_file path with
        | (_ : B.t) -> false
        | exception Common.Codec.Error _ -> true);
      ignore (B.finish bld ~cols:2))

let test_blocked_builder_invalid () =
  Alcotest.check_raises "negative column"
    (Invalid_argument "Blocked_csr.add_row: negative column index") (fun () ->
      B.add_row (B.builder ()) [ (-1, 1.) ]);
  Alcotest.check_raises "empty matrix"
    (Invalid_argument "Blocked_csr.finish: empty matrix") (fun () ->
      ignore (B.finish (B.builder ()) ~cols:1));
  Alcotest.check_raises "column out of bounds"
    (Invalid_argument "Blocked_csr.finish: column index out of bounds")
    (fun () ->
      let bld = B.builder () in
      B.add_row bld [ (3, 1.) ];
      ignore (B.finish bld ~cols:2));
  (* The fused statistics read their reference vector at every column,
     so a 2 x 3 matrix has no L1 residual and a short pi is refused. *)
  let bld = B.builder () in
  B.add_row bld [ (0, 0.5); (2, 0.5) ];
  B.add_row bld [ (1, 1.) ];
  let k = B.kernel (B.finish bld ~cols:3) in
  let src = [| 0.5; 0.5 |] and dst = Array.make 3 0. in
  Alcotest.check_raises "step_l1 on a non-square matrix"
    (Invalid_argument "Blocked_csr.step_l1: matrix is not square")
    (fun () -> ignore (B.step_l1 k ~src ~dst));
  Alcotest.check_raises "short pi"
    (Invalid_argument "Blocked_csr.step_tv: pi dimension mismatch")
    (fun () -> ignore (B.step_tv k ~pi:[| 0.5; 0.5 |] ~src ~dst));
  Alcotest.check_raises "short pi, batched"
    (Invalid_argument "Blocked_csr.step_tv: pi dimension mismatch")
    (fun () ->
      ignore
        (B.step_tv_multi k ~pi:[| 0.5; 0.5 |] ~srcs:[| src; src |]
           ~dsts:[| dst; Array.make 3 0. |]))

let test_builder_streaming_equals_direct () =
  (* The shard shape is invisible to the analysis: a one-block build and
     a build streamed in five-row blocks give the same chain — same
     matrix, same stationary bits, same tau. *)
  let states = Array.init 23 (fun i -> i) in
  let transitions i =
    let n = Array.length states in
    [ ((i + 1) mod n, 0.5); ((i * 2) mod n, 0.25); (i, 0.25) ]
  in
  let build ?block_rows () =
    Markov.Exact_builder.build ?block_rows
      (Markov.Exact_builder.enumerated states)
      ~transitions
  in
  let direct = build () and streamed = build ~block_rows:5 () in
  Alcotest.(check int) "blocks" 5
    (B.block_count (Markov.Exact.blocked streamed));
  Alcotest.(check int) "size" (Markov.Exact.size direct)
    (Markov.Exact.size streamed);
  Alcotest.(check (float 0.)) "same matrix" 0.
    (M.max_abs_diff (Dense.matrix direct) (Dense.matrix streamed));
  let pi_d = Markov.Exact.stationary direct in
  let pi_s = Markov.Exact.stationary streamed in
  Alcotest.(check bool) "same stationary bits" true
    (Array.for_all2 (fun a b -> Float.equal a b) pi_d pi_s);
  Alcotest.(check int) "same tau"
    (Markov.Exact.mixing_time direct)
    (Markov.Exact.mixing_time streamed)

let test_mixing_starts_subset () =
  let c = two_state 0.2 0.3 in
  let tau = Markov.Exact.mixing_time ~eps:0.01 c in
  let t0 = Markov.Exact.mixing_time ~eps:0.01 ~starts:[| 0 |] c in
  let t1 = Markov.Exact.mixing_time ~eps:0.01 ~starts:[| 1 |] c in
  Alcotest.(check int) "max over singletons = full tau" tau (max t0 t1);
  Alcotest.(check int) "all starts explicitly" tau
    (Markov.Exact.mixing_time ~eps:0.01 ~starts:[| 0; 1 |] c);
  Alcotest.check_raises "empty starts"
    (Invalid_argument "Exact.mixing_time: empty starts") (fun () ->
      ignore (Markov.Exact.mixing_time ~starts:[||] c));
  Alcotest.check_raises "start out of range"
    (Invalid_argument "Exact.mixing_time: start out of range") (fun () ->
      ignore (Markov.Exact.mixing_time ~starts:[| 2 |] c))

let test_mixing_one_product_per_step () =
  (* A start retires at its first TV <= eps, so a search costs exactly
     its largest crossing in products: Id-ABKU[2] at n = m = 8 has
     tau(1/4) = 11 from the all-in-one state. *)
  let n = 8 in
  let process =
    Core.Dynamic_process.make Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n
  in
  let c =
    Markov.Exact_builder.build
      (Markov.Exact_builder.enumerated
         (Markov.Partition_space.enumerate ~n ~m:n))
      ~transitions:(Core.Dynamic_process.exact_transitions process)
  in
  ignore (Markov.Exact.stationary c);
  let x = Markov.Exact.index c (Lv.all_in_one ~n ~m:n) in
  let y = Markov.Exact.index c (Lv.uniform ~n ~m:n) in
  let calls = Obs.Counter.make "bcsr.spmv_calls" in
  let products starts =
    let before = Obs.Counter.value calls in
    let tau = Markov.Exact.mixing_time ~starts c in
    (tau, Obs.Counter.value calls - before)
  in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      Alcotest.(check (pair int int)) "one start: tau products" (11, 11)
        (products [| x |]);
      Alcotest.(check (pair int int)) "two starts: the larger crossing"
        (11, 11) (products [| y; x |]))

let sample_snapshot () =
  {
    Ck.states = 7;
    nnz = 19;
    digest = min_int + 97;
    phase =
      Ck.Mixing
        {
          eps = 0.25;
          pi_tol = 1e-12;
          pi = [| 0.25; 0.75 |];
          completed = [ (1, 9); (0, 4) ];
          inflight =
            Some { Ck.t = 8; starts = [| 3; 5 |];
                   dists = [| [| 0.5; 0.5 |]; [| 0.125; 0.875 |] |] };
        };
  }

let test_checkpoint_file_roundtrip () =
  let path = Filename.temp_file "ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let snap = sample_snapshot () in
      Ck.save_file path snap;
      (match Ck.load_file path with
      | None -> Alcotest.fail "roundtrip lost the snapshot"
      | Some got -> Alcotest.(check bool) "roundtrip equal" true (got = snap));
      (* A Stationary-phase snapshot roundtrips too. *)
      let snap2 =
        { Ck.states = 3; nnz = 5; digest = 0x5eed;
          phase = Ck.Stationary
              { tol = 1e-12; iter = 41; prev_r = 0.125;
                dist = [| 0.1; 0.2; 0.7 |] } }
      in
      Ck.save_file path snap2;
      Alcotest.(check bool) "stationary roundtrip" true
        (Ck.load_file path = Some snap2);
      (* Files of the older schemas restart fresh.  A stationary
         snapshot under /1 and /2 is this file without the digest that
         follows states and nnz. *)
      let raw = In_channel.with_open_bin path In_channel.input_all in
      let magic_len = String.length "repro.exact-checkpoint/3" in
      let body = magic_len + 24 in
      List.iter
        (fun magic ->
          Out_channel.with_open_bin path (fun oc ->
              output_string oc magic;
              output_string oc (String.sub raw magic_len 16);
              output_string oc
                (String.sub raw body (String.length raw - body)));
          Alcotest.(check bool) magic true (Ck.load_file path = None))
        [ "repro.exact-checkpoint/1"; "repro.exact-checkpoint/2" ];
      (* Corruption and foreign files read as "no checkpoint". *)
      let oc = open_out_bin path in
      output_string oc "definitely not a checkpoint";
      close_out oc;
      Alcotest.(check bool) "foreign file" true (Ck.load_file path = None);
      Sys.remove path;
      Alcotest.(check bool) "missing file" true (Ck.load_file path = None))

let test_checkpoint_sink_throttle () =
  let sink, cell = Ck.memory_sink ~min_interval:3600. () in
  Alcotest.(check bool) "starts empty" true (Ck.resume sink = None);
  let snap = sample_snapshot () in
  let built = ref 0 in
  let thunk () = incr built; snap in
  Ck.offer sink thunk;
  Alcotest.(check int) "first offer stores" 1 !built;
  Alcotest.(check bool) "stored" true (!cell = Some snap);
  cell := None;
  Ck.offer sink thunk;
  Alcotest.(check int) "second offer throttled, thunk skipped" 1 !built;
  Alcotest.(check bool) "no store" true (!cell = None);
  (* Commits ignore the throttle. *)
  Ck.commit sink snap;
  Alcotest.(check bool) "commit unconditional" true (!cell = Some snap);
  Alcotest.(check bool) "resume reads back" true (Ck.resume sink = Some snap)

(* Id-ABKU[2] and Id-ABKU[3] share Omega_8's states and non-zeros but not
   tau(0.01) (20 and 19): a snapshot of one must not resume the other,
   while the same chain, rebuilt, resumes from it without a product. *)
let test_checkpoint_refuses_foreign_chain () =
  let eps = 0.01 in
  let chain d =
    let p =
      Core.Dynamic_process.make Core.Scenario.A (Core.Scheduling_rule.abku d)
        ~n:8
    in
    Markov.Exact_builder.build
      (Markov.Exact_builder.enumerated
         (Markov.Partition_space.enumerate ~n:8 ~m:8))
      ~transitions:(Core.Dynamic_process.exact_transitions p)
  in
  let shape c =
    (Markov.Exact.size c, Markov.Blocked_csr.nnz (Markov.Exact.blocked c))
  in
  Alcotest.(check (pair int int))
    "same shape" (shape (chain 2)) (shape (chain 3));
  let sink, cell = Ck.memory_sink () in
  let tau2 = Markov.Exact.mixing_time ~eps ~checkpoint:sink (chain 2) in
  let snap = !cell in
  let fresh3 = Markov.Exact.mixing_time ~eps (chain 3) in
  Alcotest.(check bool) "taus differ" true (tau2 <> fresh3);
  let resume c =
    let sink, cell = Ck.memory_sink () in
    cell := snap;
    Markov.Exact.mixing_time ~eps ~checkpoint:sink c
  in
  Alcotest.(check int) "foreign chain runs fresh" fresh3 (resume (chain 3));
  let calls = Obs.Counter.make "bcsr.spmv_calls" in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let c = chain 2 in
      let before = Obs.Counter.value calls in
      Alcotest.(check int) "same chain resumes" tau2 (resume c);
      Alcotest.(check int) "no product on resume" 0
        (Obs.Counter.value calls - before))

(* The digest is a function of the entries alone: the same matrix in
   1-row blocks, one block, or spilled to disk shares it, and a one-bit
   change in one value moves it. *)
let test_blocked_digest () =
  let rows =
    [ [ (0, 0.5); (2, 0.5) ]; [ (1, 1.) ]; [ (0, 0.25); (1, 0.25); (2, 0.5) ] ]
  in
  let build ?spill block_rows rows =
    let b = Markov.Blocked_csr.builder ~block_rows ?spill () in
    List.iter (Markov.Blocked_csr.add_row b) rows;
    Markov.Blocked_csr.finish b ~cols:3
  in
  let d = Markov.Blocked_csr.digest (build 1 rows) in
  Alcotest.(check int) "one block" d (Markov.Blocked_csr.digest (build 3 rows));
  let path = Filename.temp_file "digest" ".blk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let spilled = build ~spill:path 2 rows in
      Alcotest.(check int) "spilled" d (Markov.Blocked_csr.digest spilled);
      Markov.Blocked_csr.close spilled);
  let nudged =
    [ [ (0, 0.5); (2, 0.5) ]; [ (1, 1.) ];
      [ (0, 0.25); (1, Float.succ 0.25); (2, 0.5) ] ]
  in
  Alcotest.(check bool) "one value bit" true
    (Markov.Blocked_csr.digest (build 1 nudged) <> d)

let test_mixing_checkpoint_resume_file () =
  (* End-to-end through a file sink: interrupt nothing, just check that
     a fresh run writes a final snapshot and a second run resumes from
     it and reproduces tau. *)
  let path = Filename.temp_file "ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = two_state 0.05 0.02 in
      let sink = Ck.file_sink ~min_interval:0. path in
      let tau = Markov.Exact.mixing_time ~eps:0.01 ~checkpoint:sink c in
      Alcotest.(check bool) "final snapshot written" true
        (Ck.load_file path <> None);
      (* A fresh chain object resuming from the completed snapshot must
         agree without redoing the search. *)
      let c2 = two_state 0.05 0.02 in
      let sink2 = Ck.file_sink ~min_interval:0. path in
      Alcotest.(check int) "resumed tau identical" tau
        (Markov.Exact.mixing_time ~eps:0.01 ~checkpoint:sink2 c2))

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    (Dense.matrix_tests
    @ [
      ("partition count small", test_partition_count_small);
      ("partition enumerate", test_partition_enumerate);
      ("partition count sweep", test_partition_count_matches_enumerate_sweep);
      ("partition index", test_partition_index);
      ("exact stationary", test_exact_stationary_two_state);
      ("exact tv distance", test_exact_tv);
      ("exact distribution_after", test_exact_distribution_after);
      ("exact mixing two-state", test_exact_mixing_two_state);
      ("exact mixing monotone in eps", test_exact_mixing_monotone_eps);
      ("exact build invalid", test_exact_build_invalid);
      ("exact build merges duplicates", test_exact_build_merges_duplicates);
      ("sparse construction", test_sparse_construction);
      ("sparse/dense roundtrip + spmv", test_sparse_dense_roundtrip);
      ("stationary near-reducible", test_exact_stationary_near_reducible);
      ("stationary cache", test_exact_stationary_cache);
      ("exact accessors", test_exact_accessors);
      ("builder reachable + build_mix", test_builder_reachable_and_mix);
      ("profile drop_below", test_worst_tv_profile_drop_below);
      ("state index basics", test_state_index_basics);
      ("blocked csr roundtrip", test_blocked_roundtrip);
      ("blocked csr spill roundtrip", test_blocked_spill_roundtrip);
      ("blocked multi-vector kernel bitwise", test_blocked_multi_bitwise);
      ("blocked csr killed build rejected", test_blocked_killed_build_rejected);
      ("blocked csr builder invalid", test_blocked_builder_invalid);
      ("streaming build = direct build", test_builder_streaming_equals_direct);
      ("mixing_time starts subset", test_mixing_starts_subset);
      ("checkpoint file roundtrip", test_checkpoint_file_roundtrip);
      ("checkpoint sink throttle", test_checkpoint_sink_throttle);
      ("mixing checkpoint resume via file", test_mixing_checkpoint_resume_file);
      ("mixing: one product per time step", test_mixing_one_product_per_step);
      ("partition enumerate order", test_partition_enumerate_order);
      ("checkpoint refuses a foreign chain", test_checkpoint_refuses_foreign_chain);
      ("blocked csr digest", test_blocked_digest);
    ])
