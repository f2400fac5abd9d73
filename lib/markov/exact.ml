type 'state t = {
  states : 'state array;
  find : 'state -> int option;
  bcsr : Blocked_csr.t;
  kernel : Blocked_csr.kernel; (* sequential kernel, shared (read-only in use) *)
  mutable pi : (float array * float) option; (* cached stationary, with its tol *)
}

let of_blocked ~states ~find bcsr =
  let n = Array.length states in
  if Blocked_csr.rows bcsr <> n || Blocked_csr.cols bcsr <> n then
    invalid_arg "Exact.of_blocked: matrix shape does not match the states";
  { states; find; bcsr; kernel = Blocked_csr.kernel bcsr; pi = None }

let size c = Array.length c.states
let blocked c = c.bcsr
let states c = Array.copy c.states

let index c s = match c.find s with Some i -> i | None -> raise Not_found
let state c i = c.states.(i)

let tv_distance p q =
  if Array.length p <> Array.length q then
    invalid_arg "Exact.tv_distance: length mismatch";
  let acc = ref 0. in
  Array.iteri (fun i x -> acc := !acc +. Float.abs (x -. q.(i))) p;
  !acc /. 2.

let l1_diff a b =
  let acc = ref 0. in
  for i = 0 to Array.length a - 1 do
    acc := !acc +. Float.abs (Array.unsafe_get a i -. Array.unsafe_get b i)
  done;
  !acc

(* TV between a dense distribution and pi, without allocating. *)
let tv_to_pi pi d = l1_diff pi d /. 2.

(* The kernel products are driven through: the chain's own sequential
   kernel, or a pool-parallel one prepared for the given pool.  Results
   are bit-identical either way (see {!Blocked_csr}). *)
let kernel_for c = function
  | None -> c.kernel
  | Some pool -> Blocked_csr.kernel ~pool c.bcsr

(* Multi-domain access (pooled kernels, per-start fan-outs) is only safe
   when every shard is resident: disk-backed shards stream through one
   shared channel. *)
let fan_out_safe c = Blocked_csr.in_memory c.bcsr

let fingerprint_matches c (s : Exact_checkpoint.snapshot) =
  s.Exact_checkpoint.states = size c
  && s.Exact_checkpoint.nnz = Blocked_csr.nnz c.bcsr

(* Power iteration with a gap-corrected stopping rule.  The naive rule
   "stop when successive iterates are close" can stop far from π on a
   slowly-mixing chain: the residual r_k = ‖d_k P − d_k‖₁ relates to the
   true error as ‖d_k − π‖₁ ≈ r_k / (1 − λ₂).  We estimate the decay
   factor λ₂ from the residual ratio and require both the residual and
   the gap-corrected error to be ≤ tol.  If the residual stops
   decreasing (floating-point floor) while already ≤ tol, no further
   progress is possible and we accept the iterate.

   [step] is the fused product: dst ← src·P returning ‖dst − src‖₁.
   [resume] restarts from a checkpointed (iter, prev_r, dist);
   [on_progress] observes each non-final iterate (for checkpointing) —
   both capture the loop state exactly, so a resumed iteration replays
   the same sequence as an uninterrupted one. *)
let power_stationary ~tol ~max_iter ~n ?resume ?on_progress step =
  let dist, next, prev_r, iter =
    match resume with
    | Some (i, r, d) -> (ref (Array.copy d), ref (Array.make n 0.), ref r, ref i)
    | None ->
        ( ref (Array.make n (1. /. float_of_int n)),
          ref (Array.make n 0.),
          ref infinity,
          ref 0 )
  in
  let result = ref None in
  while !result = None do
    if !iter > max_iter then failwith "Exact.stationary: did not converge";
    let r = step ~src:!dist ~dst:!next in
    let converged =
      r = 0.
      || r <= tol
         &&
         let rho = r /. !prev_r in
         (rho < 1. && r /. (1. -. rho) <= tol) || r >= !prev_r
    in
    prev_r := r;
    let tmp = !dist in
    dist := !next;
    next := tmp;
    if converged then result := Some !dist;
    incr iter;
    match on_progress with
    | Some f when !result = None -> f ~iter:!iter ~prev_r:!prev_r ~dist:!dist
    | _ -> ()
  done;
  (Option.get !result, !iter)

(* Shared cached π: reused when it was computed at a tolerance at least
   as tight as the requested one. *)
let stationary_cached ?(tol = 1e-12) ?(max_iter = 1_000_000) ?pool ?checkpoint c
    =
  match c.pi with
  | Some (pi, cached_tol) when cached_tol <= tol -> pi
  | _ ->
      let resume =
        match checkpoint with
        | None -> None
        | Some sink -> (
            match Exact_checkpoint.resume sink with
            | Some
                ({ phase = Stationary { tol = t'; iter; prev_r; dist }; _ } as s)
              when fingerprint_matches c s && t' = tol ->
                Some (iter, prev_r, dist)
            | _ -> None)
      in
      let on_progress =
        Option.map
          (fun sink ~iter ~prev_r ~dist ->
            Exact_checkpoint.offer sink (fun () ->
                {
                  Exact_checkpoint.states = size c;
                  nnz = Blocked_csr.nnz c.bcsr;
                  phase =
                    Stationary { tol; iter; prev_r; dist = Array.copy dist };
                }))
          checkpoint
      in
      let k = kernel_for c pool in
      let sp =
        if Obs.enabled () then
          Obs.begin_span "exact.stationary"
            ~args:[ ("states", Obs.Int (size c)) ]
        else Obs.null_span
      in
      let pi, iters =
        power_stationary ~tol ~max_iter ~n:(size c) ?resume ?on_progress
          (fun ~src ~dst -> Blocked_csr.step_l1 k ~src ~dst)
      in
      Obs.end_span ~args:[ ("iterations", Obs.Int iters) ] sp;
      c.pi <- Some (pi, tol);
      pi

let stationary ?tol ?max_iter ?domains ?checkpoint c =
  let solve pool = stationary_cached ?tol ?max_iter ?pool ?checkpoint c in
  let pi =
    match domains with
    | Some d when d > 1 && fan_out_safe c ->
        Parallel.Pool.with_pool ~domains:d (fun pool -> solve (Some pool))
    | _ -> solve None
  in
  Array.copy pi

let distribution_after c ~start t =
  if t < 0 then invalid_arg "Exact.distribution_after: negative t";
  let n = size c in
  if start < 0 || start >= n then invalid_arg "Exact.distribution_after: start";
  let cur = ref (Array.make n 0.) in
  let nxt = ref (Array.make n 0.) in
  !cur.(start) <- 1.;
  for _ = 1 to t do
    Blocked_csr.spmv c.kernel ~src:!cur ~dst:!nxt;
    let tmp = !cur in
    cur := !nxt;
    nxt := tmp
  done;
  !cur

let resolve_starts ~what c = function
  | None -> Array.init (size c) Fun.id
  | Some s ->
      if Array.length s = 0 then
        invalid_arg (Printf.sprintf "Exact.%s: empty starts" what);
      Array.iter
        (fun i ->
          if i < 0 || i >= size c then
            invalid_arg (Printf.sprintf "Exact.%s: start out of range" what))
        s;
      s

(* {2 Batched per-start sweeps}

   All-start analyses (TV profiles, mixing searches) evolve one point
   mass per start through repeated fused products.  The matrix read —
   nnz indices plus values — dominates each product's memory traffic, so
   the sweeps below advance starts in {e batches} through
   {!Blocked_csr.step_tv_multi}: one traversal of the matrix per time
   step serves the whole batch, bit-identically per vector (see
   [DESIGN.md], "The representation layer").  The worthwhile batch width
   grows with the mean row density nnz/n (the same quantity the
   [bcsr.block_nnz] histogram reports per block): the denser the matrix,
   the more vector traffic one amortized traversal pays for.  The cap
   keeps a batch's 2B dense vectors within reach of the outer cache. *)
let multi_batch c =
  Stdlib.max 4
    (Stdlib.min 16 (Blocked_csr.nnz c.bcsr / Stdlib.max 1 (size c)))

let chunk_starts bsz starts =
  let m = Array.length starts in
  Array.init
    ((m + bsz - 1) / bsz)
    (fun g -> Array.sub starts (g * bsz) (Stdlib.min bsz (m - (g * bsz))))

(* One point mass per start of the batch, plus matching scratch. *)
let point_masses ~n batch =
  Array.map
    (fun start ->
      let a = Array.make n 0. in
      a.(start) <- 1.;
      a)
    batch

let worst_tv_after ?domains c ~pi t =
  if t < 0 then invalid_arg "Exact.distribution_after: negative t";
  let n = size c in
  let domains = if fan_out_safe c then domains else Some 1 in
  let batches = chunk_starts (multi_batch c) (Array.init n Fun.id) in
  let tvs =
    Parallel.map_array ?domains
      (fun batch ->
        let cur = ref (point_masses ~n batch) in
        if t = 0 then
          Array.fold_left
            (fun acc d -> Float.max acc (tv_to_pi pi d))
            0. !cur
        else begin
          let kern = Blocked_csr.kernel c.bcsr in
          let nxt = ref (Array.map (fun _ -> Array.make n 0.) batch) in
          for _ = 1 to t do
            Blocked_csr.spmv_multi kern ~srcs:!cur ~dsts:!nxt;
            let tmp = !cur in
            cur := !nxt;
            nxt := tmp
          done;
          (* The final distance is taken flat over the vector — the same
             summation order the historical per-start scan used. *)
          Array.fold_left
            (fun acc d -> Float.max acc (tv_to_pi pi d))
            0. !cur
        end)
      batches
  in
  Array.fold_left Float.max 0. tvs

let stationary_expectation c ?pi ~f () =
  let pi = match pi with Some p -> p | None -> stationary_cached c in
  let acc = ref 0. in
  Array.iteri (fun i s -> acc := !acc +. (pi.(i) *. f s)) c.states;
  !acc

(* Per-start TV decay curves, swept in fused batches.  Work is
   independent per start, so the batches fan out over domains; within a
   batch every still-active start advances through one shared matrix
   traversal per time step, with per-vector results bit-identical to the
   historical one-start-at-a-time sweep (so the curves — and hence their
   pointwise max — are identical for any domain count and batch shape).
   A start whose TV has fallen to ≤ drop_below stops evolving (it drops
   out of the batch) and keeps its last value: per-start TV to π is
   non-increasing, so the profile error is at most drop_below (exact for
   the default drop_below = 0). *)
let worst_tv_profile ?domains ?(drop_below = 0.) ?starts c ~max_t =
  if max_t < 0 then invalid_arg "Exact.worst_tv_profile: negative max_t";
  let starts = resolve_starts ~what:"worst_tv_profile" c starts in
  let pi = stationary_cached c in
  let n = size c in
  let domains = if fan_out_safe c then domains else Some 1 in
  let batches = chunk_starts (multi_batch c) starts in
  let per_batch =
    Parallel.map_array ?domains
      (fun batch ->
        let kern = Blocked_csr.kernel c.bcsr in
        let m = Array.length batch in
        let tvs = Array.init m (fun _ -> Array.make (max_t + 1) 0.) in
        let cur = point_masses ~n batch in
        let nxt = Array.map (fun _ -> Array.make n 0.) batch in
        (* [act.(0 .. nact-1)] are the batch positions still evolving;
           a retired start holds its last value through max_t. *)
        let act = Array.init m Fun.id in
        let retire i t =
          for u = t + 1 to max_t do
            tvs.(i).(u) <- tvs.(i).(t)
          done
        in
        let nact = ref 0 in
        for i = 0 to m - 1 do
          tvs.(i).(0) <- tv_to_pi pi cur.(i);
          if tvs.(i).(0) <= drop_below then retire i 0
          else begin
            act.(!nact) <- i;
            incr nact
          end
        done;
        let t = ref 1 in
        while !nact > 0 && !t <= max_t do
          let srcs = Array.init !nact (fun p -> cur.(act.(p))) in
          let dsts = Array.init !nact (fun p -> nxt.(act.(p))) in
          let ds = Blocked_csr.step_tv_multi kern ~pi ~srcs ~dsts in
          let w = ref 0 in
          for p = 0 to !nact - 1 do
            let i = act.(p) in
            let tmp = cur.(i) in
            cur.(i) <- nxt.(i);
            nxt.(i) <- tmp;
            tvs.(i).(!t) <- ds.(p);
            if ds.(p) <= drop_below then retire i !t
            else begin
              act.(!w) <- i;
              incr w
            end
          done;
          nact := !w;
          incr t
        done;
        tvs)
      batches
  in
  let per_start = Array.concat (Array.to_list per_batch) in
  Array.init (max_t + 1) (fun t ->
      Array.fold_left (fun acc tvs -> Float.max acc tvs.(t)) 0. per_start)

let relaxation_estimate ?domains ?starts c ?(max_t = 200) () =
  (* Points below 1e-8 are excluded from the fit, so dropping starts
     once they decay past 1e-9 does not perturb it. *)
  let profile = worst_tv_profile ?domains ?starts ~drop_below:1e-9 c ~max_t in
  (* Fit only the clean exponential regime: below the initial transient,
     above the floating-point noise floor. *)
  let pts = ref [] in
  Array.iteri
    (fun t d ->
      if d <= 0.1 && d >= 1e-8 then pts := (float_of_int t, log d) :: !pts)
    profile;
  (match !pts with
  | _ :: _ :: _ -> ()
  | _ -> failwith "Exact.relaxation_estimate: profile decayed too fast to fit");
  (* OLS slope of log TV vs t; tau_rel = -1/slope. *)
  let pts = Array.of_list !pts in
  let n = float_of_int (Array.length pts) in
  let sx = Array.fold_left (fun a (x, _) -> a +. x) 0. pts /. n in
  let sy = Array.fold_left (fun a (_, y) -> a +. y) 0. pts /. n in
  let sxx = Array.fold_left (fun a (x, _) -> a +. ((x -. sx) ** 2.)) 0. pts in
  let sxy =
    Array.fold_left (fun a (x, y) -> a +. ((x -. sx) *. (y -. sy))) 0. pts
  in
  if sxx = 0. || sxy >= 0. then
    failwith "Exact.relaxation_estimate: no exponential decay detected";
  -.sxx /. sxy

(* Doubling-then-bisect search for one start's ε-crossing time.

   Per-start TV to π is non-increasing in t (P contracts signed measures
   in L1), so τ_x = min {t : ‖P^t(x,·) − π‖ ≤ ε} is well defined and
   bisection over the bracket is sound.  [base] holds the distribution
   at time [t_base] (always a t with TV > ε, so the bracket invariant is
   maintained); probes evolve a scratch copy forward without touching
   it, and a probe that becomes the new lower bound is committed by
   swapping buffers.

   [tau_hat] is a shared lower bound on the answer (the max of the exact
   τ_x found so far).  Each start first probes there: if its TV is
   already ≤ ε it cannot raise the max and is abandoned with a single
   probe.  The final max is independent of the probe schedule — a start
   attaining the max has TV > ε at every t below its τ_x, so it is never
   pruned and always contributes its exact crossing — which keeps the
   result identical for any domain count despite the shared counter, and
   identical across kill/resume boundaries despite the restarted
   schedule.

   [save] (when checkpointing) is offered the live bracket after every
   state change: (t_base, lo, hi, base) is exactly the loop state, so a
   resumed search continues the same trajectory.  [resume] re-enters the
   search at such a bracket, skipping the pruning phase. *)
let search_crossing ~kern c ~pi ~eps ~max_t ~tau_hat ?save ?resume start =
  let n = size c in
  let base = ref (Array.make n 0.) in
  let w1 = ref (Array.make n 0.) in
  let w2 = ref (Array.make n 0.) in
  !base.(start) <- 1.;
  let t_base = ref 0 in
  let lo = ref 0 in
  let hi = ref 0 in
  let step ~src ~dst = Blocked_csr.step_tv kern ~pi ~src ~dst in
  let probe target =
    let tv = ref (step ~src:!base ~dst:!w1) in
    for _ = 2 to target - !t_base do
      tv := step ~src:!w1 ~dst:!w2;
      let tmp = !w1 in
      w1 := !w2;
      w2 := tmp
    done;
    !tv
  in
  (* Traced probe: one span per doubling/bisection step carrying the
     probed time and the resulting TV distance.  [kind] distinguishes the
     two search phases in the trace view. *)
  let probe kind target =
    if not (Obs.enabled ()) then probe target
    else begin
      let sp =
        Obs.begin_span kind
          ~args:[ ("start", Obs.Int start); ("target", Obs.Int target) ]
      in
      let tv = probe target in
      Obs.end_span ~args:[ ("tv", Obs.Float tv) ] sp;
      tv
    end
  in
  let commit target =
    let tmp = !base in
    base := !w1;
    w1 := tmp;
    t_base := target
  in
  let offer_bracket () =
    match save with
    | None -> ()
    | Some f -> f ~t_base:!t_base ~lo:!lo ~hi:!hi ~base:!base
  in
  let enter_bracket =
    match resume with
    | Some (r : Exact_checkpoint.inflight) ->
        Array.fill !base 0 n 0.;
        Array.blit r.base 0 !base 0 n;
        t_base := r.t_base;
        lo := r.lo;
        hi := r.hi;
        true
    | None -> false
  in
  let pruned =
    if enter_bracket then None
    else begin
      let guess = min (Atomic.get tau_hat) max_t in
      let prune_sp =
        if Obs.enabled () then
          Obs.begin_span "exact.prune"
            ~args:[ ("start", Obs.Int start); ("guess", Obs.Int guess) ]
        else Obs.null_span
      in
      (* Pruning probe, stepping toward [guess] but checking the
         (monotone) per-start TV after every product: a start that
         crosses ε at some s ≤ guess is certified under the shared bound
         after only s steps instead of always paying the full [guess]. *)
      let t = ref 1 in
      let last_tv = ref (step ~src:!base ~dst:!w1) in
      let crossed = ref (!last_tv <= eps) in
      while (not !crossed) && !t < guess do
        last_tv := step ~src:!w1 ~dst:!w2;
        let tmp = !w1 in
        w1 := !w2;
        w2 := tmp;
        incr t;
        crossed := !last_tv <= eps
      done;
      if Obs.enabled () then
        Obs.end_span
          ~args:[ ("t", Obs.Int !t); ("tv", Obs.Float !last_tv) ]
          prune_sp;
      if !crossed then Some !t (* τ_x = t ≤ guess ≤ answer: cannot raise it *)
      else if guess >= max_t then
        failwith "Exact.mixing_time: not mixed within max_t"
      else begin
        commit guess;
        lo := guess;
        hi := 0;
        offer_bracket ();
        None
      end
    end
  in
  match pruned with
  | Some t -> t
  | None ->
      while !hi = 0 do
        let target = min (2 * !lo) max_t in
        if probe "exact.double" target <= eps then begin
          hi := target;
          offer_bracket ()
        end
        else if target >= max_t then
          failwith "Exact.mixing_time: not mixed within max_t"
        else begin
          commit target;
          lo := target;
          offer_bracket ()
        end
      done;
      while !hi - !lo > 1 do
        let mid = !lo + ((!hi - !lo) / 2) in
        if probe "exact.bisect" mid <= eps then begin
          hi := mid;
          offer_bracket ()
        end
        else begin
          commit mid;
          lo := mid;
          offer_bracket ()
        end
      done;
      let rec bump () =
        let cur = Atomic.get tau_hat in
        if !hi > cur && not (Atomic.compare_and_set tau_hat cur !hi) then
          bump ()
      in
      bump ();
      !hi

(* Certify a batch of starts against the shared lower bound in fused
   steps: all their point masses evolve together — one matrix traversal
   per time step — and a start drops out of the batch as soon as its
   (monotone) TV crosses ε at some t ≤ guess ≤ τ-so-far, since it can no
   longer raise the maximum.  Starts still above ε at the bound are
   returned for an exact individual {!search_crossing}.  The per-start
   TVs are bit-identical to the single-vector pruning probe's, so the
   certification decisions — and through them the final τ — match the
   unbatched search exactly. *)
let batch_prune ~kern c ~pi ~eps ~max_t ~tau_hat batch =
  let n = size c in
  let m = Array.length batch in
  let guess = Stdlib.min (Atomic.get tau_hat) max_t in
  let sp =
    if Obs.enabled () then
      Obs.begin_span "exact.prune_batch"
        ~args:[ ("starts", Obs.Int m); ("guess", Obs.Int guess) ]
    else Obs.null_span
  in
  let cur = point_masses ~n batch in
  let nxt = Array.map (fun _ -> Array.make n 0.) batch in
  let act = Array.init m Fun.id in
  let nact = ref m in
  let t = ref 0 in
  while !nact > 0 && !t < guess do
    incr t;
    let srcs = Array.init !nact (fun p -> cur.(act.(p))) in
    let dsts = Array.init !nact (fun p -> nxt.(act.(p))) in
    let ds = Blocked_csr.step_tv_multi kern ~pi ~srcs ~dsts in
    let w = ref 0 in
    for p = 0 to !nact - 1 do
      let i = act.(p) in
      let tmp = cur.(i) in
      cur.(i) <- nxt.(i);
      nxt.(i) <- tmp;
      if ds.(p) > eps then begin
        act.(!w) <- i;
        incr w
      end
    done;
    nact := !w
  done;
  Obs.end_span ~args:[ ("survivors", Obs.Int !nact) ] sp;
  Array.to_list (Array.init !nact (fun p -> batch.(act.(p))))

let mixing_time_impl ~eps ~max_t ~domains ?starts ?checkpoint c =
  let n = size c in
  let starts = resolve_starts ~what:"mixing_time" c starts in
  let nnz = Blocked_csr.nnz c.bcsr in
  (* A checkpointed search runs the starts sequentially so the snapshot
     is a single well-defined cursor; pooled products keep the domains
     busy instead.  Either way the answer is identical (see above). *)
  let sequential = Option.is_some checkpoint || Array.length starts <= 2 in
  let body pool =
    (* Restore a matching mixing snapshot before π is computed: it
       carries the converged π, so a resumed run skips the solve. *)
    let mix0 =
      match checkpoint with
      | None -> None
      | Some sink -> (
          match Exact_checkpoint.resume sink with
          | Some ({ phase = Mixing m; _ } as s)
            when fingerprint_matches c s && m.eps = eps ->
              Some m
          | _ -> None)
    in
    (match mix0 with
    | Some m -> c.pi <- Some (m.pi, m.pi_tol)
    | None -> ());
    let pi_tol = 1e-12 in
    let pi = stationary_cached ~tol:pi_tol ?pool ?checkpoint c in
    (* TV of the point mass at [start] against π. *)
    let tv0 start =
      let acc = ref 0. in
      for j = 0 to n - 1 do
        acc := !acc +. if j = start then Float.abs (1. -. pi.(j)) else pi.(j)
      done;
      !acc /. 2.
    in
    let tv0s = Array.map tv0 starts in
    let worst0 = Array.fold_left Float.max 0. tv0s in
    if worst0 <= eps then 0
    else if max_t < 1 then failwith "Exact.mixing_time: not mixed within max_t"
    else begin
      (* Only starts still above ε at t = 0 can determine τ; visit the
         farthest-from-π ones first so the shared lower bound is tight
         early and most remaining starts are pruned after one probe. *)
      let order =
        Array.to_list (Array.mapi (fun k start -> (k, start)) starts)
        |> List.filter (fun (k, _) -> tv0s.(k) > eps)
        |> List.sort (fun (ka, a) (kb, b) ->
               match Float.compare tv0s.(kb) tv0s.(ka) with
               | 0 -> Int.compare a b
               | c -> c)
        |> List.map snd |> Array.of_list
      in
      let tau_hat =
        Atomic.make
          (match mix0 with Some m -> max 1 m.tau_hat | None -> 1)
      in
      if sequential then begin
        let kern = kernel_for c pool in
        let completed =
          ref (match mix0 with Some m -> m.completed | None -> [])
        in
        let inflight0 = match mix0 with Some m -> m.inflight | None -> None in
        let snapshot ?inflight () =
          {
            Exact_checkpoint.states = n;
            nnz;
            phase =
              Mixing
                {
                  eps;
                  pi_tol;
                  pi = Array.copy pi;
                  tau_hat = Atomic.get tau_hat;
                  completed = !completed;
                  inflight;
                };
          }
        in
        (* Mark the phase transition: a kill between π and the first
           crossing then resumes into the mixing phase directly. *)
        (match (checkpoint, mix0) with
        | Some sink, None -> Exact_checkpoint.commit sink (snapshot ())
        | _ -> ());
        let best = ref 1 in
        Array.iter
          (fun start ->
            let tau =
              match List.assoc_opt start !completed with
              | Some t -> t
              | None ->
                  let resume =
                    match inflight0 with
                    | Some i when i.Exact_checkpoint.start = start -> Some i
                    | _ -> None
                  in
                  let save =
                    Option.map
                      (fun sink ~t_base ~lo ~hi ~base ->
                        Exact_checkpoint.offer sink (fun () ->
                            snapshot
                              ~inflight:
                                {
                                  Exact_checkpoint.start;
                                  t_base;
                                  lo;
                                  hi;
                                  base = Array.copy base;
                                }
                              ()))
                      checkpoint
                  in
                  let tau =
                    search_crossing ~kern c ~pi ~eps ~max_t ~tau_hat ?save
                      ?resume start
                  in
                  completed := (start, tau) :: !completed;
                  (match checkpoint with
                  | Some sink ->
                      Exact_checkpoint.offer sink (fun () -> snapshot ())
                  | None -> ());
                  tau
            in
            if tau > !best then best := tau)
          order;
        (match checkpoint with
        | Some sink -> Exact_checkpoint.commit sink (snapshot ())
        | None -> ());
        !best
      end
      else begin
        (* Fused-batch search: the farthest-from-π start is searched
           exactly first, so the shared bound is tight from the outset;
           the remaining starts are then certified against it in fused
           batches — one matrix traversal per time step serves a whole
           batch — and the rare survivors (starts that can still raise
           the maximum) get exact individual searches.  τ is identical
           to the unbatched per-start fan-out: certified starts provably
           cannot raise the maximum, and every survivor's exact crossing
           bumps the shared bound.  (Batches fan out over domains when
           every shard is resident; the probe *schedule* still depends
           on the shared bound, so span counts may vary across runs; the
           final τ does not.) *)
        let kern = Blocked_csr.kernel c.bcsr in
        let first = search_crossing ~kern c ~pi ~eps ~max_t ~tau_hat order.(0) in
        let rest = Array.sub order 1 (Array.length order - 1) in
        let batches = chunk_starts (multi_batch c) rest in
        let batch_domains = if fan_out_safe c then domains else 1 in
        let survivors =
          if Array.length batches = 0 then [||]
          else begin
            (* One trace track per batch, reserved before the fan-out so
               the merged trace groups each batch's probes together
               regardless of which domain ran it. *)
            let track0 =
              if Obs.enabled () then
                Obs.task_base ~count:(Array.length batches)
              else 0
            in
            Parallel.map_array ~domains:batch_domains
              (fun (g, batch) ->
                Obs.in_task (track0 + g) (fun () ->
                    let kern = Blocked_csr.kernel c.bcsr in
                    batch_prune ~kern c ~pi ~eps ~max_t ~tau_hat batch))
              (Array.mapi (fun g batch -> (g, batch)) batches)
          end
        in
        let best = ref (max 1 first) in
        Array.iter
          (List.iter (fun start ->
               let tau =
                 search_crossing ~kern c ~pi ~eps ~max_t ~tau_hat start
               in
               if tau > !best then best := tau))
          survivors;
        max !best (Atomic.get tau_hat)
      end
    end
  in
  (* Pooled products only pay off once the vectors span several column
     chunks; below that the per-product barrier dominates. *)
  if sequential && domains > 1 && fan_out_safe c && n > 1024 then
    Parallel.Pool.with_pool ~domains (fun pool -> body (Some pool))
  else body None

let mixing_time ?(eps = 0.25) ?(max_t = 100_000) ?domains ?starts ?checkpoint c
    =
  let domains =
    match domains with
    | Some d ->
        if d < 1 then invalid_arg "Exact.mixing_time: domains < 1";
        d
    | None -> Parallel.recommended_domains ()
  in
  let sp =
    if Obs.enabled () then
      Obs.begin_span "exact.mixing_time"
        ~args:[ ("states", Obs.Int (size c)); ("eps", Obs.Float eps) ]
    else Obs.null_span
  in
  match mixing_time_impl ~eps ~max_t ~domains ?starts ?checkpoint c with
  | tau ->
      Obs.end_span ~args:[ ("tau", Obs.Int tau) ] sp;
      tau
  | exception e ->
      Obs.end_span sp;
      raise e
