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

(* TV between the point mass at [start] and pi, summed term by term in
   index order without building the vector. *)
let tv_point pi start =
  let acc = ref 0. in
  for j = 0 to Array.length pi - 1 do
    acc :=
      !acc +. Float.abs (Array.unsafe_get pi j -. if j = start then 1. else 0.)
  done;
  !acc /. 2.

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

let stationary_expectation c ?pi ~f () =
  let pi = match pi with Some p -> p | None -> stationary_cached c in
  let acc = ref 0. in
  Array.iteri (fun i s -> acc := !acc +. (pi.(i) *. f s)) c.states;
  !acc

(* {2 The per-start sweep}

   Every per-start analysis (TV profiles, mixing times) evolves one
   point mass per start through repeated fused products.  The matrix
   read — nnz indices plus values — dominates each product's memory
   traffic, so starts advance in {e batches} through
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

let point_masses ~n batch =
  Array.map
    (fun start ->
      let a = Array.make n 0. in
      a.(start) <- 1.;
      a)
    batch

(* Advance the distributions [cur] (positions of one batch, all at time
   [t0]) one fused product at a time, up to [max_t].  After the product
   to time t, [retire i t tv] is told each live position's TV to pi and
   answers whether that position is done; a retired position stops
   evolving, so a start costs exactly the products up to its retirement.
   [on_step t live] then sees the positions still live ([cur] holds
   their distributions at t).  Returns the positions live at [max_t].
   A vector's bits at t do not depend on which batch carried it. *)
let sweep kern ~pi ~max_t ~t0 ~retire ?(on_step = fun _ _ -> ()) cur =
  let sp =
    if Obs.enabled () then
      Obs.begin_span "exact.sweep"
        ~args:[ ("starts", Obs.Int (Array.length cur)); ("t0", Obs.Int t0) ]
    else Obs.null_span
  in
  let nxt = Array.map (fun d -> Array.make (Array.length d) 0.) cur in
  let rec go t live =
    if Array.length live = 0 || t >= max_t then (t, live)
    else begin
      let t = t + 1 in
      let tvs =
        Blocked_csr.step_tv_multi kern ~pi
          ~srcs:(Array.map (Array.get cur) live)
          ~dsts:(Array.map (Array.get nxt) live)
      in
      Array.iter
        (fun i ->
          let d = cur.(i) in
          cur.(i) <- nxt.(i);
          nxt.(i) <- d)
        live;
      let live =
        Array.of_list
          (List.filteri
             (fun p i -> not (retire i t tvs.(p)))
             (Array.to_list live))
      in
      on_step t live;
      go t live
    end
  in
  let t, live = go t0 (Array.init (Array.length cur) Fun.id) in
  Obs.end_span
    ~args:[ ("t", Obs.Int t); ("live", Obs.Int (Array.length live)) ]
    sp;
  live

(* [f] over the batches, fanned out over [domains].  Each batch records
   on its own trace track, reserved before the fan-out, so the merged
   trace groups a batch's events together whichever domain ran it. *)
let map_batches ?domains f batches =
  let track0 =
    if Obs.enabled () then Obs.task_base ~count:(Array.length batches) else 0
  in
  Parallel.map_array ?domains
    (fun (g, batch) -> Obs.in_task (track0 + g) (fun () -> f batch))
    (Array.mapi (fun g batch -> (g, batch)) batches)

(* The pointwise max of per-start TV curves.  A start whose TV has
   fallen to ≤ drop_below retires and holds its last value through
   max_t: per-start TV to π is non-increasing, so the profile error is
   at most drop_below (exact for the default drop_below = 0). *)
let worst_tv_profile ?domains ?(drop_below = 0.) ?starts c ~max_t =
  if max_t < 0 then invalid_arg "Exact.worst_tv_profile: negative max_t";
  let starts = resolve_starts ~what:"worst_tv_profile" c starts in
  let pi = stationary_cached c in
  let retire worst t tv =
    if tv <= drop_below then begin
      for u = t to max_t do
        worst.(u) <- Float.max worst.(u) tv
      done;
      true
    end
    else begin
      worst.(t) <- Float.max worst.(t) tv;
      false
    end
  in
  let profile = Array.make (max_t + 1) 0. in
  let live =
    Array.of_list
      (List.filter
         (fun s -> not (retire profile 0 (tv_point pi s)))
         (Array.to_list starts))
  in
  let domains = if fan_out_safe c then domains else Some 1 in
  let per_batch =
    map_batches ?domains
      (fun batch ->
        let worst = Array.make (max_t + 1) 0. in
        ignore
          (sweep (Blocked_csr.kernel c.bcsr) ~pi ~max_t ~t0:0
             ~retire:(fun _ -> retire worst)
             (point_masses ~n:(size c) batch));
        worst)
      (chunk_starts (multi_batch c) live)
  in
  Array.iter
    (Array.iteri (fun t tv -> profile.(t) <- Float.max profile.(t) tv))
    per_batch;
  profile

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

(* τ(ε) is the largest per-start crossing τ_x = min {t : ‖P^t(x,·) − π‖
   ≤ ε}: per-start TV to π is non-increasing in t (P contracts signed
   measures in L1), so the first t at or below ε is the crossing, and a
   start retires from its batch there — exactly τ_x products, the fewest
   that certify it.  τ is a maximum over starts, so it depends neither
   on the batch shape nor on the order or domain the batches ran on, nor
   on a kill and resume (a resumed batch holds the bits the killed one
   had reached). *)
let mixing_time_impl ~eps ~max_t ~domains ?starts ?checkpoint c =
  let n = size c in
  let starts = resolve_starts ~what:"mixing_time" c starts in
  let bsz = multi_batch c in
  (* A checkpointed search runs its batches in order, so a snapshot is a
     single well-defined cursor; starts that fit in one batch leave
     nothing to fan out.  Both keep the domains busy inside each product
     instead. *)
  let in_order = Option.is_some checkpoint || Array.length starts <= bsz in
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
    Option.iter
      (fun (m : Exact_checkpoint.mixing) -> c.pi <- Some (m.pi, m.pi_tol))
      mix0;
    let pi_tol = 1e-12 in
    let pi = stationary_cached ~tol:pi_tol ?pool ?checkpoint c in
    let completed =
      ref (match mix0 with Some m -> m.completed | None -> [])
    in
    let known = Hashtbl.of_seq (List.to_seq !completed) in
    (* A start within ε of π at t = 0 crosses there; every other one is
       swept, unless a snapshot already holds its crossing. *)
    let seen, todo =
      List.filter (fun s -> tv_point pi s > eps) (Array.to_list starts)
      |> List.partition (Hashtbl.mem known)
    in
    let resumed, todo =
      match Option.bind mix0 (fun m -> m.inflight) with
      | Some f when Array.for_all (fun s -> List.mem s todo) f.starts ->
          ( [| (f.t, f.starts, Some f.dists) |],
            List.filter (fun s -> not (Array.mem s f.starts)) todo )
      | _ -> ([||], todo)
    in
    let batches =
      Array.append resumed
        (Array.map
           (fun b -> (0, b, None))
           (chunk_starts bsz (Array.of_list todo)))
    in
    let snapshot ?inflight completed =
      {
        Exact_checkpoint.states = n;
        nnz = Blocked_csr.nnz c.bcsr;
        phase =
          Mixing { eps; pi_tol; pi = Array.copy pi; completed; inflight };
      }
    in
    (* Mark the phase transition: a kill between π and the first batch
       then resumes into the mixing phase directly. *)
    (match (checkpoint, mix0) with
    | Some sink, None -> Exact_checkpoint.commit sink (snapshot !completed)
    | _ -> ());
    let shared = if in_order then Some (kernel_for c pool) else None in
    (* One batch: the crossings of its starts.  With a sink, a snapshot
       of the live batch is offered after every product and one is
       committed after the batch. *)
    let run_batch (t0, batch, dists) =
      let kern =
        match shared with Some k -> k | None -> Blocked_csr.kernel c.bcsr
      in
      let cur =
        match dists with Some d -> d | None -> point_masses ~n batch
      in
      let crossed = ref [] in
      let retire i t tv =
        tv <= eps
        && begin
             crossed := (batch.(i), t) :: !crossed;
             true
           end
      in
      let on_step =
        Option.map
          (fun sink t live ->
            Exact_checkpoint.offer sink (fun () ->
                snapshot
                  ~inflight:
                    {
                      Exact_checkpoint.t;
                      starts = Array.map (Array.get batch) live;
                      dists = Array.map (fun i -> Array.copy cur.(i)) live;
                    }
                  (!crossed @ !completed)))
          checkpoint
      in
      if sweep kern ~pi ~max_t ~t0 ~retire ?on_step cur <> [||] then
        failwith "Exact.mixing_time: not mixed within max_t";
      Option.iter
        (fun sink ->
          completed := !crossed @ !completed;
          Exact_checkpoint.commit sink (snapshot !completed))
        checkpoint;
      List.map snd !crossed
    in
    let domains = if in_order || not (fan_out_safe c) then 1 else domains in
    List.map (Hashtbl.find known) seen
    :: Array.to_list (map_batches ~domains run_batch batches)
    |> List.fold_left (List.fold_left Stdlib.max) 0
  in
  (* Pooled products only pay off once the vectors span several column
     chunks; below that the per-product barrier dominates. *)
  if in_order && domains > 1 && fan_out_safe c && n > 1024 then
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
