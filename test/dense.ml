(* The dense reference the blocked-CSR exact analysis is tested against:
   row-major matrices, a chain's transition matrix read back from its
   blocked store, and the historical power iteration and step-by-step
   mixing-time scan over full powers P^t.  Quadratic storage and a full
   dense product per time step, so for small chains only. *)

module Matrix = struct
  type t = { rows : int; cols : int; data : float array }

  let create ~rows ~cols =
    if rows <= 0 || cols <= 0 then
      invalid_arg "Matrix.create: non-positive size";
    { rows; cols; data = Array.make (rows * cols) 0. }

  let identity n =
    let m = create ~rows:n ~cols:n in
    for i = 0 to n - 1 do
      m.data.((i * n) + i) <- 1.
    done;
    m

  let get m i j = m.data.((i * m.cols) + j)
  let set m i j x = m.data.((i * m.cols) + j) <- x

  let mul a b =
    if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
    let c = create ~rows:a.rows ~cols:b.cols in
    for i = 0 to a.rows - 1 do
      for k = 0 to a.cols - 1 do
        let aik = a.data.((i * a.cols) + k) in
        if aik <> 0. then
          for j = 0 to b.cols - 1 do
            c.data.((i * c.cols) + j) <-
              c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
          done
      done
    done;
    c

  (* [vec_mul v m] is the row vector [v m]: one step of distribution
     evolution when [m] is a transition matrix. *)
  let vec_mul v m =
    if Array.length v <> m.rows then
      invalid_arg "Matrix.vec_mul: dimension mismatch";
    let out = Array.make m.cols 0. in
    for i = 0 to m.rows - 1 do
      let vi = v.(i) in
      if vi <> 0. then
        for j = 0 to m.cols - 1 do
          out.(j) <- out.(j) +. (vi *. m.data.((i * m.cols) + j))
        done
    done;
    out

  let row m i = Array.sub m.data (i * m.cols) m.cols

  let is_stochastic ?(tol = 1e-9) m =
    let ok = ref true in
    for i = 0 to m.rows - 1 do
      let s = ref 0. in
      for j = 0 to m.cols - 1 do
        let x = m.data.((i * m.cols) + j) in
        if x < -.tol then ok := false;
        s := !s +. x
      done;
      if Float.abs (!s -. 1.) > tol then ok := false
    done;
    !ok

  let max_abs_diff a b =
    if a.rows <> b.rows || a.cols <> b.cols then
      invalid_arg "Matrix.max_abs_diff: dimension mismatch";
    let best = ref 0. in
    Array.iteri
      (fun k x -> best := Float.max !best (Float.abs (x -. b.data.(k))))
      a.data;
    !best

  (* The matrix whose row [i] holds the entries [rows.(i)], duplicate
     columns summed. *)
  let of_rows ~cols rows =
    let m = create ~rows:(Array.length rows) ~cols in
    Array.iteri
      (fun i r -> List.iter (fun (j, x) -> set m i j (get m i j +. x)) r)
      rows;
    m
end

(* Row [i] of a blocked store is the product [e_i · P]: each entry is
   [1 × p_ij] plus zeros, so the copy is exact. *)
let of_blocked b =
  let rows = Markov.Blocked_csr.rows b and cols = Markov.Blocked_csr.cols b in
  let m = Matrix.create ~rows ~cols in
  let k = Markov.Blocked_csr.kernel b in
  let src = Array.make rows 0. and dst = Array.make cols 0. in
  for i = 0 to rows - 1 do
    src.(i) <- 1.;
    Markov.Blocked_csr.spmv k ~src ~dst;
    Array.blit dst 0 m.Matrix.data (i * cols) cols;
    src.(i) <- 0.
  done;
  m

let matrix c = of_blocked (Markov.Exact.blocked c)

(* Power iteration with the historical successive-iterate stopping
   rule, which stops early on slowly-mixing chains. *)
let stationary ?(tol = 1e-12) ?(max_iter = 1_000_000) c =
  let m = matrix c in
  let n = Markov.Exact.size c in
  let dist = ref (Array.make n (1. /. float_of_int n)) in
  let rec go iter =
    if iter > max_iter then failwith "Dense.stationary: did not converge";
    let next = Matrix.vec_mul !dist m in
    let d = Markov.Exact.tv_distance !dist next in
    dist := next;
    if d > tol then go (iter + 1)
  in
  go 0;
  !dist

(* Step-by-step scan over the rows of P^t, all starts at once. *)
let mixing_time ?(eps = 0.25) ?(max_t = 100_000) c =
  let m = matrix c in
  let pi = stationary c in
  let n = Markov.Exact.size c in
  let rec go t current =
    if t > max_t then failwith "Dense.mixing_time: not mixed within max_t";
    let worst = ref 0. in
    for start = 0 to n - 1 do
      worst :=
        Float.max !worst
          (Markov.Exact.tv_distance (Matrix.row current start) pi)
    done;
    if !worst <= eps then t else go (t + 1) (Matrix.mul current m)
  in
  go 0 (Matrix.identity n)

(* Matrix's own unit tests; the markov suite runs them. *)

let test_identity_mul () =
  let a = Matrix.create ~rows:2 ~cols:2 in
  Matrix.set a 0 0 1.;
  Matrix.set a 0 1 2.;
  Matrix.set a 1 0 3.;
  Matrix.set a 1 1 4.;
  let i = Matrix.identity 2 in
  Alcotest.(check (float 1e-12))
    "left id" 0.
    (Matrix.max_abs_diff (Matrix.mul i a) a);
  Alcotest.(check (float 1e-12))
    "right id" 0.
    (Matrix.max_abs_diff (Matrix.mul a i) a)

let test_mul_known () =
  let a = Matrix.create ~rows:2 ~cols:3 in
  let b = Matrix.create ~rows:3 ~cols:2 in
  (* a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12] *)
  List.iteri
    (fun k x -> Matrix.set a (k / 3) (k mod 3) x)
    [ 1.; 2.; 3.; 4.; 5.; 6. ];
  List.iteri
    (fun k x -> Matrix.set b (k / 2) (k mod 2) x)
    [ 7.; 8.; 9.; 10.; 11.; 12. ];
  let c = Matrix.mul a b in
  Alcotest.(check (float 1e-12)) "c00" 58. (Matrix.get c 0 0);
  Alcotest.(check (float 1e-12)) "c01" 64. (Matrix.get c 0 1);
  Alcotest.(check (float 1e-12)) "c10" 139. (Matrix.get c 1 0);
  Alcotest.(check (float 1e-12)) "c11" 154. (Matrix.get c 1 1)

let test_vec_mul () =
  let m = Matrix.create ~rows:2 ~cols:2 in
  Matrix.set m 0 0 0.5;
  Matrix.set m 0 1 0.5;
  Matrix.set m 1 0 1.;
  let v = Matrix.vec_mul [| 0.4; 0.6 |] m in
  Alcotest.(check (float 1e-12)) "v0" 0.8 v.(0);
  Alcotest.(check (float 1e-12)) "v1" 0.2 v.(1)

let test_stochastic () =
  let m = Matrix.create ~rows:2 ~cols:2 in
  Matrix.set m 0 0 0.3;
  Matrix.set m 0 1 0.7;
  Matrix.set m 1 0 1.0;
  Alcotest.(check bool) "stochastic" true (Matrix.is_stochastic m);
  Matrix.set m 1 0 0.9;
  Alcotest.(check bool) "not stochastic" false (Matrix.is_stochastic m)

let test_invalid () =
  Alcotest.check_raises "bad size"
    (Invalid_argument "Matrix.create: non-positive size") (fun () ->
      ignore (Matrix.create ~rows:0 ~cols:2));
  let a = Matrix.create ~rows:2 ~cols:2 and b = Matrix.create ~rows:3 ~cols:2 in
  Alcotest.check_raises "mul mismatch"
    (Invalid_argument "Matrix.mul: dimension mismatch") (fun () ->
      ignore (Matrix.mul a b));
  Alcotest.check_raises "vec_mul mismatch"
    (Invalid_argument "Matrix.vec_mul: dimension mismatch") (fun () ->
      ignore (Matrix.vec_mul [| 1. |] (Matrix.identity 2)))

let matrix_tests =
  [
    ("matrix identity mul", test_identity_mul);
    ("matrix mul known", test_mul_known);
    ("matrix vec_mul", test_vec_mul);
    ("matrix stochastic", test_stochastic);
    ("matrix invalid", test_invalid);
  ]
