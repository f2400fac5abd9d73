(* E8 — Corollary 6.4 and Theorem 2: the edge-orientation chain mixes in
   O(n^3 (ln n + ln eps^-1)) by the direct path-coupling argument,
   improved to O(n^2 ln^2 n), with an Omega(n^2) lower bound.

   Coalescence of the Section 6 coupling (shared (phi, psi, b) with the
   Lemma 6.2(7) bit flip) from the adversarial state vs the all-zero
   state. *)

module C = Edgeorient.Class_chain
module Ctx = Experiment.Ctx

let run ctx =
  let reps = Ctx.reps ctx in
  let table =
    Ctx.table ctx ~title:"E8: coalescence of the Section-6 edge coupling"
      ~columns:
        [
          "n";
          "median coalescence [q10,q90]";
          "Thm 2 (n^2 ln^2 n)";
          "Cor 6.4 (n^3 ln n)";
          "ratio to Thm 2";
        ]
  in
  let points = ref [] in
  Ctx.iter_cells ctx
    (fun n ->
      let coupled = C.coupled () in
      let thm2 = Theory.Bounds.theorem2 ~n in
      let cor = Theory.Bounds.corollary64 ~n ~eps:0.25 in
      let limit = 100 * int_of_float thm2 in
      let rng = Ctx.rng ctx ~experiment:(8000 + n) in
      let meas, metrics =
        Coupling.Coalescence.measure_with_metrics ~domains:(Ctx.domains ctx)
          ~reps ~limit ~rng coupled
          ~init:(fun _g -> (C.adversarial ~n, C.start ~n))
      in
      points := (float_of_int n, meas.median) :: !points;
      Ctx.row table
        ~values:
          (Ctx.measurement_values meas @ [ ("thm2", thm2); ("cor64", cor) ])
        ~metrics
        [
          string_of_int n;
          Ctx.cell_measurement meas;
          Printf.sprintf "%.0f" thm2;
          Printf.sprintf "%.0f" cor;
          Ctx.ratio_cell meas.median thm2;
        ]);
  Ctx.note_exponent table ~points:(List.rev !points) ~log_exponent:0.
    ~expected:"2..2.4 (n^2 times log factors; Cor 6.4 alone would allow 3+)"
    ~what:"median vs n";
  Ctx.emit ctx table;
  (* Exact ground truth on the enumerable state space Psi (the paper's
     Section 6 representation): tau(1/4) from the transition matrix next
     to the closed-form bounds. *)
  let exact_table =
    Ctx.table ctx ~title:"E8b: exact mixing of the edge chain on Psi"
      ~columns:
        [
          "n"; "|Psi|"; "exact tau(1/4)"; "beta on Gamma";
          "Lemma 3.1 bound"; "Thm 2"; "Cor 6.4";
        ]
  in
  let exact_sizes =
    if Ctx.full ctx then [ 4; 5; 6; 7; 8; 9 ] else [ 4; 5; 6; 7; 8 ]
  in
  List.iter
    (fun n ->
      let a =
        Markov.Exact_builder.build_mix ~eps:0.25 ~max_t:1_000_000
          ~domains:(Ctx.domains ctx)
          (Markov.Exact_builder.reachable ~root:(C.start ~n))
          ~transitions:C.exact_transitions
      in
      let states = Markov.Exact.states a.chain in
      let tau = a.tau in
      (* The full Section-6 pipeline, exactly: worst-case contraction of
         the coupling over Gamma pairs in the Definition-6.3 metric, fed
         through Lemma 3.1(1). *)
      let metric = Edgeorient.Path_metric.build ~states in
      let beta =
        List.fold_left
          (fun worst (x, y, _) ->
            let d0 =
              float_of_int (Edgeorient.Path_metric.distance metric x y)
            in
            let e =
              List.fold_left
                (fun acc ((x', y'), p) ->
                  acc
                  +. (p
                     *. float_of_int
                          (Edgeorient.Path_metric.distance metric x' y')))
                0.
                (C.coupled_exact_transitions x y)
            in
            Float.max worst (e /. d0))
          0.
          (Edgeorient.Path_metric.gamma_pairs metric)
      in
      let lemma_bound =
        Theory.Bounds.path_coupling_case1 ~beta
          ~diameter:(Edgeorient.Path_metric.diameter metric) ~eps:0.25
      in
      Ctx.row exact_table
        ~values:
          [
            ("state_count", float_of_int (Array.length states));
            ("exact_tau", float_of_int tau);
            ("beta", beta);
            ("lemma_bound", lemma_bound);
            ("thm2", Theory.Bounds.theorem2 ~n);
            ("cor64", Theory.Bounds.corollary64 ~n ~eps:0.25);
          ]
        [
          string_of_int n;
          string_of_int (Array.length states);
          string_of_int tau;
          Printf.sprintf "%.4f" beta;
          Printf.sprintf "%.0f" lemma_bound;
          Printf.sprintf "%.0f" (Theory.Bounds.theorem2 ~n);
          Printf.sprintf "%.0f" (Theory.Bounds.corollary64 ~n ~eps:0.25);
        ])
    exact_sizes;
  Ctx.note exact_table
    "soundness anchor: exact tau is below BOTH the Lemma 3.1 bound \
     (computed from the exact worst-case Gamma contraction in the \
     Definition-6.3 metric) and the closed-form theorems; the two upper \
     bounds are not mutually ordered at such small n";
  Ctx.emit ctx exact_table

let spec =
  Experiment.Spec.v ~id:"e8"
    ~claim:"edge orientation: O(n^3 ln n) -> O(n^2 ln^2 n), Omega(n^2)"
    ~tags:[ "edge-orientation"; "mixing"; "coupling"; "exact" ]
    ~grid:
      (Experiment.Grid.v ~axis:"n" ~quick:[ 8; 16; 32; 48; 64 ]
         ~full:[ 8; 16; 32; 64; 96 ] ~reps:(11, 21) ())
    run
