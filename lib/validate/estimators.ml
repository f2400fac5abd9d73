let check_lengths what freq expected =
  if Array.length expected <> Stats.Freq.size freq then
    invalid_arg (Printf.sprintf "Estimators.%s: length mismatch" what)

let plugin_tv freq ~expected = Stats.Freq.tv_against freq expected

(* Under the null, cell i's empirical frequency is asymptotically normal
   with variance q(1-q)/N; the mean absolute deviation of that normal is
   √(2 q(1-q)/(π N)).  Summing halves gives the expected plug-in TV. *)
let tv_bias ~expected ~total =
  if total <= 0 then invalid_arg "Estimators.tv_bias: no observations";
  let n = float_of_int total in
  let acc = ref 0. in
  Array.iter
    (fun q ->
      if q > 0. then
        acc := !acc +. sqrt (2. *. q *. (1. -. q) /. (Float.pi *. n)))
    expected;
  0.5 *. !acc

let bias_corrected_tv freq ~expected =
  check_lengths "bias_corrected_tv" freq expected;
  let tv = plugin_tv freq ~expected in
  Float.max 0. (tv -. tv_bias ~expected ~total:(Stats.Freq.total freq))

type gof = {
  statistic : float;
  df : int;
  p_value : float;
  cells : int;
  pooled : int;
  forbidden : int;
}

(* Deterministic pooling: positive-expectation cells sorted by rising
   expected count (index as tie-break) are greedily grouped until each
   group's expectation reaches the threshold; a short final group is
   folded into its predecessor. *)
let pooled_cells ~min_expected freq ~expected =
  let total = float_of_int (Stats.Freq.total freq) in
  let cells = ref [] in
  Array.iteri
    (fun i q ->
      if q > 0. then
        cells := (q *. total, float_of_int (Stats.Freq.get freq i), i) :: !cells)
    expected;
  let cells =
    List.sort
      (fun (ea, _, ia) (eb, _, ib) ->
        match Float.compare ea eb with 0 -> compare ia ib | c -> c)
      !cells
  in
  let groups = ref [] in
  let cur_e = ref 0. and cur_o = ref 0. and cur_n = ref 0 in
  List.iter
    (fun (e, o, _) ->
      cur_e := !cur_e +. e;
      cur_o := !cur_o +. o;
      incr cur_n;
      if !cur_e >= min_expected then begin
        groups := (!cur_e, !cur_o) :: !groups;
        cur_e := 0.;
        cur_o := 0.;
        cur_n := 0
      end)
    cells;
  (if !cur_n > 0 then
     match !groups with
     | (e, o) :: rest -> groups := (e +. !cur_e, o +. !cur_o) :: rest
     | [] -> groups := [ (!cur_e, !cur_o) ]);
  (List.rev !groups, List.length cells)

let forbidden_mass freq ~expected =
  let acc = ref 0 in
  Array.iteri
    (fun i q -> if q <= 0. then acc := !acc + Stats.Freq.get freq i)
    expected;
  !acc

let gof_of_statistic ~statistic ~groups ~cells ~forbidden =
  let df = List.length groups - 1 in
  let p_value =
    if forbidden > 0 then 0.
    else if df <= 0 then 1.
    else Stats.Special.chi_square_sf ~df statistic
  in
  let statistic = if forbidden > 0 then infinity else statistic in
  { statistic; df; p_value; cells; pooled = List.length groups; forbidden }

let g_test ?(min_expected = 5.) freq ~expected =
  check_lengths "g_test" freq expected;
  let groups, cells = pooled_cells ~min_expected freq ~expected in
  let statistic =
    2.
    *. List.fold_left
         (fun acc (e, o) -> if o > 0. then acc +. (o *. log (o /. e)) else acc)
         0. groups
  in
  let forbidden = forbidden_mass freq ~expected in
  gof_of_statistic ~statistic ~groups ~cells ~forbidden

let chi_square_test ?(min_expected = 5.) freq ~expected =
  check_lengths "chi_square_test" freq expected;
  let groups, cells = pooled_cells ~min_expected freq ~expected in
  let statistic =
    List.fold_left
      (fun acc (e, o) ->
        let d = o -. e in
        acc +. (d *. d /. e))
      0. groups
  in
  let forbidden = forbidden_mass freq ~expected in
  gof_of_statistic ~statistic ~groups ~cells ~forbidden

let standardized_residuals freq ~expected =
  check_lengths "standardized_residuals" freq expected;
  let n = float_of_int (Stats.Freq.total freq) in
  Array.mapi
    (fun i q ->
      let o = float_of_int (Stats.Freq.get freq i) in
      let variance = n *. q *. (1. -. q) in
      if variance > 0. then (o -. (n *. q)) /. sqrt variance
      else if o = n *. q then 0.
      else infinity)
    expected

let tv_ci ?(replicates = 200) ?(level = 0.95) ~rng freq ~expected =
  check_lengths "tv_ci" freq expected;
  let n = Stats.Freq.size freq in
  let total = Stats.Freq.total freq in
  if total = 0 then invalid_arg "Estimators.tv_ci: no observations";
  (* Expand the counts into a sample of cell indices so the generic
     percentile bootstrap applies unchanged. *)
  let xs = Array.make total 0. in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    for _ = 1 to Stats.Freq.get freq i do
      xs.(!pos) <- float_of_int i;
      incr pos
    done
  done;
  let counts = Array.make n 0 in
  let stat sample =
    Array.fill counts 0 n 0;
    Array.iter
      (fun x ->
        let i = int_of_float x in
        counts.(i) <- counts.(i) + 1)
      sample;
    let inv = 1. /. float_of_int (Array.length sample) in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. Float.abs ((float_of_int counts.(i) *. inv) -. expected.(i))
    done;
    0.5 *. !acc
  in
  Stats.Bootstrap.ci ~replicates ~level ~rng ~stat xs
