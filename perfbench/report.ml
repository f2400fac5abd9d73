(* What one run reports, and how it is printed.

   Every run prints human-readable lines first — each metric with its
   unit and the sample count behind it — and then, as its last line,
   one JSON object: {"correct", "attempted", "failed", "metrics"}.  The
   metrics are the end-to-end set for an untraced run and the per-layer
   set for a traced one, with the names and units BENCHMARK.json
   declares. *)

module Json = Experiment.Json

(* What BENCHMARK.json declares: the workloads, and (name, unit) per
   end-to-end and per-layer metric. *)
type declared = {
  workloads : string list;
  end_to_end : (string * string) list;
  per_layer : (string * string) list;
}

let declared path =
  let fail what = failwith (Printf.sprintf "perfbench: %s: %s" path what) in
  let j =
    match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> fail e
  in
  let field key m =
    match Json.member key m with
    | Some (Json.String s) -> s
    | _ -> fail ("an entry lacks " ^ key)
  in
  let entries key =
    match Json.member key j with Some (Json.List l) -> l | _ -> fail ("no " ^ key)
  in
  let metrics key = List.map (fun m -> (field "name" m, field "unit" m)) (entries key) in
  { workloads = List.map (field "name") (entries "workloads");
    end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

type t = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
      (** Everything the run measured; the JSON line picks the
          end-to-end or the per-layer set. *)
  samples : (string * int) list;  (** Sample count behind a metric. *)
  notes : string list;  (** Extra lines for the human-readable part. *)
  problems : string list;  (** Failed output checks. *)
}

(* p99 is printed, not reported: on a virtual machine whose host steals
   CPU time it tracks the steal rate rather than the program. *)
let p99_note ~p99 ~n =
  Printf.sprintf "p99 %.6g us over %d samples (%d beyond it; printed, not a metric)"
    p99 n (n - Sample.rank ~n 0.99)

let value r name =
  match List.assoc_opt name r.metrics with
  | Some v -> v
  | None -> failwith ("metric not measured: " ^ name)

let print_human d r =
  Printf.printf "perfbench %s: %s, %d attempted, %d failed\n" r.workload
    (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed;
  List.iter (fun p -> Printf.printf "  check failed: %s\n" p) r.problems;
  List.iter
    (fun (name, v) ->
      let samples =
        match List.assoc_opt name r.samples with
        | Some n -> Printf.sprintf "  (%d samples)" n
        | None -> ""
      in
      Printf.printf "  %-34s %16.6g %s%s\n" name v
        (List.assoc name (d.end_to_end @ d.per_layer))
        samples)
    r.metrics;
  List.iter (fun n -> Printf.printf "  %s\n" n) r.notes

(* The result line over [metrics], (name, unit) pairs.  A float prints
   with the digits that read back as the same value. *)
let json_line r ~metrics =
  let metric (name, unit) =
    let v = value r name in
    if not (Float.is_finite v) then failwith ("non-finite metric: " ^ name);
    (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ])
  in
  Json.to_string ~indent:0
    (Json.Obj
       [ ("correct", Json.Bool r.correct); ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed); ("metrics", Json.Obj (List.map metric metrics)) ])
