(* The one codec of the durable files: every primitive round-trips;
   every strict prefix of a serve snapshot, an exact checkpoint and a
   spill file is refused with the codec's typed error, never a value
   and never another exception; every cut of a journal replays exactly
   the records that end before it; and each format's bytes for fixed
   inputs are pinned by digest, so a schema change is a reviewed edit
   of this file. *)

module Codec = Common.Codec
module Ck = Markov.Exact_checkpoint

let with_dir f =
  Test_serve.with_dir (fun dir ->
      Sys.mkdir dir 0o755;
      f dir)

let read path = In_channel.with_open_bin path In_channel.input_all
let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* [f] must refuse with [Codec.Error]: a value or any other exception
   fails the test. *)
let refused what f =
  match f () with
  | _ -> Alcotest.failf "%s: decoded a value" what
  | exception Codec.Error _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e)

(* Every strict prefix of [bytes], written to [path], is refused by
   [load]. *)
let prefixes_refused what ~path bytes load =
  for k = 0 to String.length bytes - 1 do
    write path (String.sub bytes 0 k);
    refused (Printf.sprintf "%s cut at %d" what k) load
  done

(* {2 Primitives} *)

type item =
  | Int of int
  | Float of float
  | Tag of int
  | String of string
  | Ints of int array
  | Int64s of int64 array
  | Floats of float array
  | Int_slice of int array
  | Float_slice of float array

let put buf = function
  | Int v -> Codec.put_int buf v
  | Float v -> Codec.put_float buf v
  | Tag v -> Codec.put_byte buf v
  | String s -> Codec.put_string buf s
  | Ints a -> Codec.put_ints buf a
  | Int64s a -> Codec.put_int64s buf a
  | Floats a -> Codec.put_floats buf a
  | Int_slice a -> Codec.put_int_slice buf a ~pos:0 ~len:(Array.length a)
  | Float_slice a -> Codec.put_float_slice buf a ~pos:0 ~len:(Array.length a)

(* Read back an item of the same kind (and, for slices, length). *)
let get c = function
  | Int _ -> Int (Codec.get_int c)
  | Float _ -> Float (Codec.get_float c)
  | Tag _ -> Tag (Codec.get_tag c 256 "tag")
  | String _ -> String (Codec.get_string c)
  | Ints _ -> Ints (Codec.get_ints c)
  | Int64s _ -> Int64s (Codec.get_int64s c)
  | Floats _ -> Floats (Codec.get_floats c)
  | Int_slice a -> Int_slice (Codec.get_int_slice c (Array.length a))
  | Float_slice a -> Float_slice (Codec.get_float_slice c (Array.length a))

(* Floats compare by their bits: NaN payloads and signed zeros too. *)
let same a b =
  let bits = Array.map Int64.bits_of_float in
  match (a, b) with
  | Float x, Float y -> bits [| x |] = bits [| y |]
  | Floats x, Floats y | Float_slice x, Float_slice y -> bits x = bits y
  | _ -> a = b

let item_gen =
  QCheck.Gen.(
    let arr g = array_size (int_bound 6) g in
    oneof
      [ map (fun v -> Int v) int;
        map (fun v -> Float v) float;
        map (fun v -> Tag v) (int_bound 255);
        map (fun s -> String s) (string_size (int_bound 12));
        map (fun a -> Ints a) (arr int);
        map (fun a -> Int64s a) (arr ui64);
        map (fun a -> Floats a) (arr float);
        map (fun a -> Int_slice a) (arr int);
        map (fun a -> Float_slice a) (arr float) ])

let qcheck_roundtrip =
  QCheck.Test.make ~name:"every primitive round-trips; prefixes are refused"
    ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 8) item_gen))
    (fun items ->
      let buf = Buffer.create 64 in
      List.iter (put buf) items;
      let bytes = Buffer.contents buf in
      let c = Codec.cursor bytes in
      let back = List.map (get c) items in
      Codec.finish c;
      let truncated k =
        let c = Codec.cursor (String.sub bytes 0 k) in
        match List.iter (fun i -> ignore (get c i)) items with
        | () -> false
        | exception Codec.Error (Codec.Truncated _) -> true
      in
      List.for_all2 same items back
      && Seq.for_all truncated (Seq.init (String.length bytes) Fun.id))

let test_errors () =
  let err f =
    match f () with
    | _ -> Alcotest.fail "no error"
    | exception Codec.Error e -> e
  in
  let check what want got =
    Alcotest.(check bool) what true (want = got)
  in
  let buf = Buffer.create 16 in
  Codec.put_int buf (-1);
  Buffer.add_string buf "MAGIC";
  let bytes = Buffer.contents buf in
  let at8 () =
    let c = Codec.cursor bytes in
    ignore (Codec.get_int c);
    c
  in
  check "negative length" (Codec.Corrupt (8, "negative length"))
    (err (fun () -> Codec.get_ints (Codec.cursor bytes)));
  check "literal" (Codec.Corrupt (8, "want \"MAGIX\""))
    (err (fun () -> Codec.expect (at8 ()) "MAGIX"));
  check "tag" (Codec.Corrupt (8, "tag"))
    (err (fun () -> Codec.get_tag (at8 ()) 4 "tag"));
  check "past the end" (Codec.Truncated 8)
    (err (fun () -> Codec.get_int (at8 ())));
  check "trailing" (Codec.Corrupt (8, "trailing bytes"))
    (err (fun () -> Codec.finish (at8 ())));
  Alcotest.(check string) "described" "f: corrupt at byte 8 (tag)"
    (Codec.describe ~path:"f" (Codec.Corrupt (8, "tag")));
  with_dir (fun dir ->
      let path = Filename.concat dir "f" in
      Alcotest.(check (option string)) "missing" None (Codec.read_file path);
      Codec.write_file path buf;
      Alcotest.(check (option string)) "whole file" (Some bytes)
        (Codec.read_file path);
      Alcotest.(check bool) "no temporary left" false
        (Sys.file_exists (path ^ ".tmp"));
      In_channel.with_open_bin path (fun ch ->
          let c = Codec.read_at ch ~pos:8 ~len:5 in
          Codec.expect c "MAGIC";
          Alcotest.(check int) "file offsets" 13 (Codec.offset c);
          check "read past the end" (Codec.Truncated 9)
            (err (fun () -> Codec.read_at ch ~pos:9 ~len:5))))

(* {2 Formats: prefixes, journal cuts, pinned bytes} *)

let cluster_config ~process =
  { Serve.Cluster.n = 8; m = 16; shards = 2; process;
    scenario = Core.Scenario.A; rule = Core.Scheduling_rule.abku 2;
    repr = Core.Repr.Array_backed; seed = 11 }

let sequential_config = cluster_config ~process:Serve.Process.Sequential

let fingerprint = Serve.Journal.fingerprint_of_config sequential_config

let pinned_events =
  Engine.Event.
    [| Insert 5; Remove; Step; Insert (-3); Remove; Insert max_int; Step |]

let pinned_stationary =
  { Ck.states = 3; nnz = 5; digest = 0x5eed;
    phase =
      Ck.Stationary
        { tol = 1e-12; iter = 41; prev_r = 0.125; dist = [| 0.1; 0.2; 0.7 |] } }

let pinned_mixing inflight =
  { Ck.states = 2; nnz = 4; digest = -7;
    phase =
      Ck.Mixing
        { eps = 0.25; pi_tol = 1e-12; pi = [| 0.25; 0.75 |];
          completed = [ (1, 9); (0, 4) ]; inflight } }

let pinned_inflight =
  Some { Ck.t = 8; starts = [| 3; 5 |];
         dists = [| [| 0.5; 0.5 |]; [| 0.125; 0.875 |] |] }

let pinned_rows =
  [ [ (0, 0.5); (2, 0.5) ]; [ (1, 1.) ]; [ (0, 0.25); (1, 0.25); (2, 0.5) ];
    [ (2, 1.) ]; [ (0, 1. /. 3.); (1, 2. /. 3.) ] ]

(* One file of each format from the fixed inputs above, in [dir]. *)
let write_pinned dir =
  let file name = Filename.concat dir name in
  let snapshot name ~process events =
    let config = cluster_config ~process in
    let cluster = Serve.Cluster.create config in
    ignore (Serve.Cluster.apply_batch cluster events);
    Serve.Journal.save_snapshot ~path:(file name)
      (Serve.Journal.fingerprint_of_config config)
      (Serve.Cluster.state cluster)
  in
  snapshot "snapshot" ~process:Serve.Process.Sequential pinned_events;
  snapshot "snapshot-rbb" ~process:Serve.Process.Rbb
    Engine.Event.[| Round; Insert 2; Round; Insert 9 |];
  let w = Serve.Journal.Writer.create ~path:(file "journal") fingerprint in
  Serve.Journal.Writer.append w ~seq:0 pinned_events;
  Serve.Journal.Writer.append w ~seq:7 Engine.Event.[| Round; Insert 1 |];
  Serve.Journal.Writer.close w;
  Ck.save_file (file "stationary") pinned_stationary;
  Ck.save_file (file "mixing") (pinned_mixing None);
  Ck.save_file (file "inflight") (pinned_mixing pinned_inflight);
  let b = Markov.Blocked_csr.builder ~block_rows:2 ~spill:(file "spill") () in
  List.iter (Markov.Blocked_csr.add_row b) pinned_rows;
  Markov.Blocked_csr.close (Markov.Blocked_csr.finish b ~cols:3);
  file

(* Digests of the files [write_pinned] writes, recorded from the encoder
   that preceded the codec.  A schema change must update these: the
   serve snapshot and journal were re-recorded at schemas /5 and /4, and
   equal the /4 and /3 files with the backend, router counts and level
   buckets cut out. *)
let pinned_digests =
  [ ("snapshot", "90c742cf68c3649b4420a4db25a69c72");
    ("snapshot-rbb", "a2743e37bdcfb1f1655023d598da6d12");
    ("journal", "80c09810fc91c96aad676a3d136d619c");
    ("stationary", "b089071e24b3990ea0043efc75421a65");
    ("mixing", "70f87a41e9a39307b07afd8a58c2306f");
    ("inflight", "b20e9054731395aaae4fe786a2b308bb");
    ("spill", "77a47bda9800c28ec41573b3b83de3e6") ]

let test_pinned_bytes () =
  with_dir (fun dir ->
      let file = write_pinned dir in
      List.iter
        (fun (name, hex) ->
          Alcotest.(check string) name hex
            (Digest.to_hex (Digest.file (file name))))
        pinned_digests)

let test_prefixes_refused () =
  with_dir (fun dir ->
      let file = write_pinned dir in
      let cut = Filename.concat dir "cut" in
      List.iter
        (fun (name, fp) ->
          prefixes_refused name ~path:cut (read (file name)) (fun () ->
              Serve.Journal.load_snapshot ~path:cut fp))
        [ ("snapshot", fingerprint);
          ( "snapshot-rbb",
            Serve.Journal.fingerprint_of_config
              (cluster_config ~process:Serve.Process.Rbb) ) ];
      List.iter
        (fun (name, snap) ->
          let bytes = read (file name) in
          Alcotest.(check bool) (name ^ " decodes") true
            (Ck.decode bytes = snap);
          for k = 0 to String.length bytes - 1 do
            refused
              (Printf.sprintf "%s cut at %d" name k)
              (fun () -> Ck.decode (String.sub bytes 0 k))
          done)
        [ ("stationary", pinned_stationary); ("mixing", pinned_mixing None);
          ("inflight", pinned_mixing pinned_inflight) ];
      let spill = read (file "spill") in
      let b = Markov.Blocked_csr.open_file (file "spill") in
      Alcotest.(check int) "three blocks" 3 (Markov.Blocked_csr.block_count b);
      Markov.Blocked_csr.close b;
      prefixes_refused "spill" ~path:cut spill (fun () ->
          Markov.Blocked_csr.open_file cut))

(* A kill can cut the journal anywhere: inside its header it reads as no
   journal, and past it every record that ends by the cut replays, in
   order, and nothing else. *)
let test_journal_cuts () =
  with_dir (fun dir ->
      let path = Filename.concat dir "journal" in
      let records =
        [ (0, pinned_events); (7, Engine.Event.[| Round |]);
          (8, Engine.Event.[| Insert 42; Remove; Step |]); (11, [||]);
          (11, Engine.Event.[| Insert min_int |]) ]
      in
      let w = Serve.Journal.Writer.create ~path fingerprint in
      let header = Serve.Journal.Writer.bytes w in
      let ends =
        List.map
          (fun (seq, events) ->
            Serve.Journal.Writer.append w ~seq events;
            Serve.Journal.Writer.flush w;
            Serve.Journal.Writer.bytes w)
          records
      in
      Serve.Journal.Writer.close w;
      let bytes = read path in
      let cut = Filename.concat dir "cut" in
      for k = 0 to String.length bytes do
        write cut (String.sub bytes 0 k);
        let got = ref [] in
        let r =
          Serve.Journal.replay ~path:cut fingerprint ~f:(fun ~seq events ->
              got := (seq, events) :: !got)
        in
        let want = List.filteri (fun i _ -> List.nth ends i <= k) records in
        let valid_end =
          List.fold_left max header (List.filter (( >= ) k) ends)
        in
        let where = Printf.sprintf "cut at %d" k in
        Alcotest.(check (option int)) (where ^ ": offset")
          (if k < header then None else Some valid_end)
          r;
        Alcotest.(check bool) (where ^ ": records") true (List.rev !got = want);
        Alcotest.(check int) (where ^ ": fold") (List.length want)
          (Serve.Journal.fold ~path:cut ~init:0 ~f:(fun n ~seq:_ _ -> n + 1))
      done)

let suite =
  [
    Alcotest.test_case "typed errors and files" `Quick test_errors;
    Alcotest.test_case "pinned bytes of every format" `Quick test_pinned_bytes;
    Alcotest.test_case "strict prefixes are refused" `Quick
      test_prefixes_refused;
    Alcotest.test_case "journal cuts replay whole records" `Quick
      test_journal_cuts;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_roundtrip ]
