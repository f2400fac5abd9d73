(* Cross-cutting property tests: invariants that tie several modules
   together, each stated as a qcheck law. *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector
module Sr = Core.Scheduling_rule
module C = Edgeorient.Class_chain

let rng_of seed = Prng.Rng.create ~seed ()

let random_vector g ~n ~m =
  let a = Array.make n 0 in
  for _ = 1 to m do
    let i = Prng.Rng.int g n in
    a.(i) <- a.(i) + 1
  done;
  Lv.of_array a

let qcheck_counts_by_load_reconstructs =
  QCheck.Test.make ~name:"counts_by_load partitions the vector" ~count:300
    QCheck.(triple small_int (int_range 1 12) (int_range 0 40))
    (fun (seed, n, m) ->
      let v = random_vector (rng_of seed) ~n ~m in
      let classes = Lv.counts_by_load v in
      let total_bins = List.fold_left (fun a (_, c) -> a + c) 0 classes in
      let total_balls = List.fold_left (fun a (l, c) -> a + (l * c)) 0 classes in
      let decreasing =
        let rec ok = function
          | (l1, _) :: ((l2, _) :: _ as rest) -> l1 > l2 && ok rest
          | _ -> true
        in
        ok classes
      in
      total_bins = n && total_balls = m && decreasing)

let qcheck_diameter_bound =
  (* The paper's remark: Delta(v, u) <= m - ceil(m/n) for v, u in
     Omega_m. *)
  QCheck.Test.make ~name:"Delta diameter <= m - ceil(m/n)" ~count:300
    QCheck.(triple small_int (int_range 1 10) (int_range 1 30))
    (fun (seed, n, m) ->
      let g = rng_of seed in
      let v = random_vector g ~n ~m and u = random_vector g ~n ~m in
      Lv.delta v u <= m - ((m + n - 1) / n))

let qcheck_oplus_ominus_roundtrip =
  QCheck.Test.make ~name:"ominus inverts oplus" ~count:300
    QCheck.(triple small_int (int_range 1 10) (int_range 0 25))
    (fun (seed, n, m) ->
      let g = rng_of seed in
      let v = random_vector g ~n ~m in
      let i = Prng.Rng.int g n in
      let v' = Lv.oplus v i in
      (* The added ball sits at first_equal of the new value; removing a
         ball of that value restores v. *)
      let j = Lv.first_equal v' (Lv.first_equal v i) in
      Lv.equal (Lv.ominus v' j) v)

let qcheck_abku_rank_distribution_monotone =
  QCheck.Test.make ~name:"ABKU rank distribution increases with rank" ~count:200
    QCheck.(pair (int_range 2 30) (int_range 2 4))
    (fun (n, d) ->
      let loads = Array.make n 0 in
      let dist = Sr.rank_distribution (Sr.abku d) ~loads in
      let ok = ref true in
      for j = 1 to n - 1 do
        if dist.(j) < dist.(j - 1) -. 1e-12 then ok := false
      done;
      !ok)

let qcheck_exact_transitions_stay_in_space =
  QCheck.Test.make ~name:"exact transitions stay inside Omega_m" ~count:100
    QCheck.(quad small_int (int_range 2 5) (int_range 1 7) bool)
    (fun (seed, n, m, scenario_b) ->
      let g = rng_of seed in
      let scenario = if scenario_b then Core.Scenario.B else Core.Scenario.A in
      let process = Core.Dynamic_process.make scenario (Sr.abku 2) ~n in
      let states = Markov.Partition_space.enumerate ~n ~m in
      let idx = Markov.Partition_space.index_of_space states in
      let v = random_vector g ~n ~m in
      List.for_all
        (fun (s, _) ->
          match Markov.Partition_space.find idx s with
          | _ -> true
          | exception Not_found -> false)
        (Core.Dynamic_process.exact_transitions process v))

let qcheck_partition_count_matches_enumerate =
  (* The closed-form DP count against the explicit enumeration over the
     full grid up to n = m = 12 — the sizes the extended e07/e14 grids
     rely on. *)
  QCheck.Test.make ~name:"Partition_space.count = |enumerate| up to 12x12"
    ~count:300
    QCheck.(pair (int_range 1 12) (int_range 0 12))
    (fun (n, m) ->
      Markov.Partition_space.count ~n ~m
      = Array.length (Markov.Partition_space.enumerate ~n ~m))

(* A random lazy stochastic chain: strictly positive off-diagonal mass
   (irreducible and aperiodic, so everything is well defined) with a
   self-loop weight [a] that slows mixing down enough that starts cross
   ε at different times away from the t <= 1 corner. *)
let random_chain g ~n ~a =
  let states = Array.init n Fun.id in
  let rows =
    Array.init n (fun _ ->
        let w = Array.init n (fun _ -> 0.05 +. Prng.Rng.float g) in
        let total = Array.fold_left ( +. ) 0. w in
        Array.map (fun x -> x /. total *. (1. -. a)) w)
  in
  Markov.Exact_builder.build (Markov.Exact_builder.enumerated states)
    ~transitions:(fun i ->
      (i, a) :: Array.to_list (Array.mapi (fun j p -> (j, p)) rows.(i)))

let qcheck_sparse_dense_agree =
  (* The blocked-CSR analysis against the dense reference in the test
     tree: the stationary distributions agree to 1e-9 entrywise and the
     mixing times are identical — over all starts, over a random
     non-empty subset of them, and through a checkpointed search, each
     at one and two domains. *)
  QCheck.Test.make ~name:"sparse and dense stationary/mixing agree" ~count:60
    QCheck.(triple small_int (int_range 2 8) (int_range 0 9))
    (fun (seed, n, tenths) ->
      let a = float_of_int tenths /. 10. in
      let chain = random_chain (rng_of seed) ~n ~a in
      let pi_sparse = Markov.Exact.stationary chain in
      let pi_dense = Dense.stationary chain in
      let close =
        Array.for_all2
          (fun x y -> Float.abs (x -. y) <= 1e-9)
          pi_sparse pi_dense
      in
      let eps = 0.25 in
      let subset =
        let g = rng_of (seed + 7) in
        let pick =
          List.filter (fun _ -> Prng.Rng.bool g) (List.init n Fun.id)
        in
        Array.of_list (if pick = [] then [ Prng.Rng.int g n ] else pick)
      in
      let agree ?starts () =
        let tau_dense = Dense.mixing_time ~eps ?starts chain in
        List.for_all
          (fun domains ->
            let sink, _ = Markov.Exact_checkpoint.memory_sink () in
            Markov.Exact.mixing_time ~eps ~domains ?starts chain = tau_dense
            && Markov.Exact.mixing_time ~eps ~domains ?starts ~checkpoint:sink
                 chain
               = tau_dense)
          [ 1; 2 ]
      in
      close && agree () && agree ~starts:subset ())

let qcheck_empirical_tv_range =
  QCheck.Test.make ~name:"empirical TV in [0,1]" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (int_range 0 5))
              (list_of_size (Gen.int_range 1 30) (int_range 0 5)))
    (fun (a, b) ->
      let tv =
        Markov.Empirical.tv_between_samples (Array.of_list a) (Array.of_list b)
      in
      tv >= 0. && tv <= 1.)

let qcheck_emd_metric =
  QCheck.Test.make ~name:"edge EMD is a metric" ~count:200
    QCheck.(pair small_int (int_range 3 8))
    (fun (seed, n) ->
      let g = rng_of seed in
      let state () =
        let diffs = Array.make n 0 in
        for _ = 1 to n do
          let i, j = Prng.Rng.pair_distinct g n in
          if abs diffs.(i) < n - 1 && abs diffs.(j) < n - 1 then begin
            diffs.(i) <- diffs.(i) + 1;
            diffs.(j) <- diffs.(j) - 1
          end
        done;
        C.of_discrepancies diffs
      in
      let x = state () and y = state () and z = state () in
      C.emd x y = C.emd y x
      && C.emd x z <= C.emd x y + C.emd y z
      && (C.emd x y = 0) = C.equal x y)

let qcheck_parallel_places_all =
  QCheck.Test.make ~name:"parallel allocation places every ball" ~count:100
    QCheck.(quad small_int (int_range 1 64) (int_range 0 128) (int_range 0 4))
    (fun (seed, n, m, rounds) ->
      let g = rng_of seed in
      let result = Core.Parallel_alloc.run g ~n ~m ~d:2 ~rounds () in
      Array.fold_left ( + ) 0 result.loads = m
      && result.fallback_balls <= m
      && result.max_load <= m)

let qcheck_weighted_mass_balance =
  QCheck.Test.make ~name:"weighted system conserves mass" ~count:100
    QCheck.(triple small_int (int_range 1 16) (int_range 0 50))
    (fun (seed, n, m) ->
      let g = rng_of seed in
      let t = Core.Weighted.static_run g ~n ~m ~d:2 ~dist:Core.Weighted.Uniform_unit in
      let sum = ref 0. in
      for b = 0 to n - 1 do
        sum := !sum +. Core.Weighted.load t b
      done;
      Float.abs (!sum -. Core.Weighted.total_weight t) < 1e-9
      && Core.Weighted.num_balls t = m)

let qcheck_theorem1_monotone =
  QCheck.Test.make ~name:"Theorem 1 monotone in m and 1/eps" ~count:200
    QCheck.(pair (int_range 1 1000) (float_range 0.01 0.9))
    (fun (m, eps) ->
      Theory.Bounds.theorem1 ~m:(m + 1) ~eps >= Theory.Bounds.theorem1 ~m ~eps
      && Theory.Bounds.theorem1 ~m ~eps:(eps /. 2.)
         >= Theory.Bounds.theorem1 ~m ~eps)

let qcheck_delayed_bound_at_least_block =
  QCheck.Test.make ~name:"delayed bound >= one block" ~count:200
    QCheck.(quad (int_range 1 20) (float_range 0. 0.99) (int_range 1 50)
              (float_range 0.01 0.9))
    (fun (block, beta, diameter, eps) ->
      Coupling.Delayed.bound ~block ~beta ~diameter ~eps
      >= float_of_int block)

let qcheck_monotone_coupling_preserves_totals =
  QCheck.Test.make ~name:"monotone coupling preserves both totals" ~count:150
    QCheck.(quad small_int (int_range 2 8) (int_range 2 20) bool)
    (fun (seed, n, m, scenario_b) ->
      let g = rng_of seed in
      let scenario = if scenario_b then Core.Scenario.B else Core.Scenario.A in
      let process = Core.Dynamic_process.make scenario (Sr.abku 2) ~n in
      let c = Core.Coupled.monotone process in
      let x = Mv.of_load_vector (random_vector g ~n ~m) in
      let y = Mv.of_load_vector (random_vector g ~n ~m) in
      let ok = ref true in
      for _ = 1 to 20 do
        let x', y' = c.Coupling.Coupled_chain.step g x y in
        if Mv.total x' <> m || Mv.total y' <> m then ok := false
      done;
      !ok)

let qcheck_probe_replay_identical =
  QCheck.Test.make ~name:"probes replay identically from copied rng" ~count:200
    QCheck.(pair small_int (int_range 1 50))
    (fun (seed, n) ->
      let g = rng_of seed in
      let g' = Prng.Rng.copy g in
      let p = Core.Probe.create g ~n and p' = Core.Probe.create g' ~n in
      let ok = ref true in
      for i = 0 to 30 do
        if Core.Probe.get p i <> Core.Probe.get p' i then ok := false
      done;
      !ok)

let qcheck_fluid_profile_valid =
  QCheck.Test.make ~name:"fluid fixed points are monotone profiles in [0,1]"
    ~count:30
    QCheck.(pair (int_range 1 3) (int_range 1 3))
    (fun (d, ratio) ->
      let s =
        Fluid.Mean_field.fixed_point_a ~d ~m_over_n:(float_of_int ratio)
          ~levels:(10 + (10 * ratio))
      in
      let ok = ref true in
      Array.iteri
        (fun i si ->
          if si < -1e-9 || si > 1. +. 1e-9 then ok := false;
          if i > 0 && si > s.(i - 1) +. 1e-9 then ok := false)
        s;
      !ok
      && Float.abs (Fluid.Mean_field.mean_load s -. float_of_int ratio) < 1e-4)

let qcheck_go_left_places_everything =
  QCheck.Test.make ~name:"go-left places every ball in range" ~count:100
    QCheck.(triple small_int (int_range 1 8) (int_range 0 60))
    (fun (seed, d, m) ->
      let n = d * 8 in
      let g = rng_of seed in
      let rule = Core.Go_left.make ~d ~n in
      let bins = Core.Go_left.static_run rule g ~m in
      Core.Bins.num_balls bins = m)

let qcheck_blocked_spmv_agrees =
  (* The blocked store against the dense product on random stochastic
     matrices with irregular row fill, across degenerate and generic
     block sizes — including one size past the column-chunk width so the
     pooled split actually partitions work.  The pooled kernel must be
     bit-identical to the sequential one (the column-owner-computes
     guarantee), and both within float noise of the dense product. *)
  QCheck.Test.make ~name:"blocked spmv = flat spmv (blocks 1/7/n, pooled)"
    ~count:40
    QCheck.(pair small_int (oneofl [ 2; 3; 7; 19; 1500 ]))
    (fun (seed, n) ->
      let g = rng_of seed in
      let rows =
        Array.init n (fun _ ->
            let k = 1 + Prng.Rng.int g (min n 6) in
            let cols =
              List.sort_uniq compare (List.init k (fun _ -> Prng.Rng.int g n))
            in
            let w = List.map (fun j -> (j, 0.1 +. Prng.Rng.float g)) cols in
            let total = List.fold_left (fun a (_, x) -> a +. x) 0. w in
            List.map (fun (j, x) -> (j, x /. total)) w)
      in
      let src = Array.init n (fun _ -> Prng.Rng.float g) in
      let expect =
        Dense.Matrix.vec_mul src (Dense.Matrix.of_rows ~cols:n rows)
      in
      List.for_all
        (fun block_rows ->
          let bld = Markov.Blocked_csr.builder ~block_rows () in
          Array.iter (Markov.Blocked_csr.add_row bld) rows;
          let b = Markov.Blocked_csr.finish bld ~cols:n in
          let dst = Array.make n nan in
          let k_seq = Markov.Blocked_csr.kernel b in
          let r_seq = Markov.Blocked_csr.step_l1 k_seq ~src ~dst in
          let close =
            Array.for_all2
              (fun a b -> Float.abs (a -. b) <= 1e-12)
              dst expect
          in
          let dst_par = Array.make n nan in
          let bitwise =
            Parallel.Pool.with_pool ~domains:3 (fun pool ->
                let k_par = Markov.Blocked_csr.kernel ~pool b in
                let r_par =
                  Markov.Blocked_csr.step_l1 k_par ~src ~dst:dst_par
                in
                Float.equal r_seq r_par
                && Array.for_all2 Float.equal dst dst_par)
          in
          close && bitwise)
        [ 1; 7; n ])

exception Killed

let qcheck_checkpoint_resume_tau =
  (* Crash-safety law: kill a checkpointed mixing run at the k-th store
     — sometimes just after the write lands, sometimes mid-write so the
     previous snapshot survives (what the atomic rename guarantees) —
     then resume on a freshly built chain.  The resumed run must
     reproduce the uninterrupted tau exactly.  Small k kills during the
     stationary solve, larger k during the crossing searches, and k past
     the store count degenerates to an uninterrupted checkpointed run. *)
  QCheck.Test.make ~name:"kill + resume reproduces tau exactly" ~count:30
    QCheck.(triple small_int (int_range 3 7) (int_range 1 400))
    (fun (seed, n, kill_at) ->
      let a = 0.6 +. (0.35 *. Prng.Rng.float (rng_of seed)) in
      let make () = random_chain (rng_of (seed + 1)) ~n ~a in
      let eps = 0.05 in
      let tau = Markov.Exact.mixing_time ~eps (make ()) in
      let cell = ref None in
      let stores = ref 0 in
      let killing =
        Markov.Exact_checkpoint.sink ~min_interval:0.
          ~store:(fun s ->
            incr stores;
            if !stores >= kill_at then begin
              if kill_at mod 2 = 0 then cell := Some s;
              raise Killed
            end;
            cell := Some s)
          ~fetch:(fun () -> !cell)
          ()
      in
      (match Markov.Exact.mixing_time ~eps ~checkpoint:killing (make ()) with
      | (_ : int) -> ()
      | exception Killed -> ());
      let resumed =
        Markov.Exact_checkpoint.sink ~min_interval:0.
          ~store:(fun s -> cell := Some s)
          ~fetch:(fun () -> !cell)
          ()
      in
      tau = Markov.Exact.mixing_time ~eps ~checkpoint:resumed (make ()))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      qcheck_counts_by_load_reconstructs;
      qcheck_diameter_bound;
      qcheck_oplus_ominus_roundtrip;
      qcheck_abku_rank_distribution_monotone;
      qcheck_exact_transitions_stay_in_space;
      qcheck_partition_count_matches_enumerate;
      qcheck_sparse_dense_agree;
      qcheck_empirical_tv_range;
      qcheck_emd_metric;
      qcheck_parallel_places_all;
      qcheck_weighted_mass_balance;
      qcheck_theorem1_monotone;
      qcheck_delayed_bound_at_least_block;
      qcheck_monotone_coupling_preserves_totals;
      qcheck_probe_replay_identical;
      qcheck_fluid_profile_valid;
      qcheck_go_left_places_everything;
      qcheck_blocked_spmv_agrees;
      qcheck_checkpoint_resume_tau;
    ]
