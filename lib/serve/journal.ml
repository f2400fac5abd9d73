(* Durability for the allocation service: a snapshot file plus an
   append-only event journal.

   Snapshot schema "repro.serve-snapshot/5" (primitives from
   {!Common.Codec}: integers int64 LE, strings and arrays
   length-prefixed):

     magic[23] = "repro.serve-snapshot/5\n"
     fingerprint            — n, m, shards, seed, process, scenario,
                              rule
     seq                    — mutations routed when the snapshot was cut
     router[5]              — router generator words
     per shard: applied, watermark, rng[5],
                registry (n, balls[...], slot_order[...], nonempty[...])

   Schema /2 replaced the per-shard load vector with the full
   {!Core.Bins} registry snapshot: loads alone do not replay
   bit-identically because removals sample registry orders.  Schema /3
   added the representation backend to the fingerprint and per-level
   bucket orders to the registry, for a cutoff-table insertion that
   picked uniformly inside a bucket.  Schema /4 added the process
   family (sequential vs round-synchronous) to the fingerprint: the
   same event suffix means different things to different machines.
   Schema /5 dropped the backend, the bucket orders and the router's
   per-shard ball counts: every shard is array-backed, and the router
   weights each shard by the ball count its restored registry holds.

   Journal schema "repro.serve-journal/4" (bumped alongside /5 for the
   fingerprint without the backend; /3 added the process field and the
   round record): the same fingerprint header, then records

     [seq i64][count i64][count x event][trailer "JRNL"]
     event = tag u8: 0 = Step | 1 = Insert key:i64 | 2 = Remove
             | 3 = Round

   The trailer is written last, so a record is valid iff its trailer is
   intact: a kill mid-append leaves a torn tail, which [replay] stops
   at and [Writer.open_at] truncates.  A kill inside [Writer.create]
   leaves a strict prefix of the header, which [replay] reads as no
   journal; any other header that does not decode is a typed error.
   The snapshot is written to a temporary sibling and renamed into
   place, so a snapshot that does not decode is damage, never a kill.
   Records carry every routed mutation — including ones the router
   later rejected, which consume no randomness — so replay from a
   snapshot cut at a record boundary is exactly: apply each record with
   [record.seq >= snapshot.seq]. *)

let snapshot_magic = "repro.serve-snapshot/5\n"
let journal_magic = "repro.serve-journal/4\n"
let trailer = "JRNL"

type fingerprint = {
  n : int;
  m : int;
  shards : int;
  seed : int;
  process : string;
  scenario : string;
  rule : string;
}

let fingerprint_of_config (c : Cluster.config) =
  { n = c.n; m = c.m; shards = c.shards; seed = c.seed;
    process = Process.name c.process;
    scenario = Core.Scenario.name c.scenario;
    rule = Core.Scheduling_rule.name c.rule }

let fingerprint_to_string fp =
  Printf.sprintf "n=%d m=%d shards=%d seed=%d process=%s scenario=%s rule=%s"
    fp.n fp.m fp.shards fp.seed fp.process fp.scenario fp.rule

(* {2 Encoding} *)

module Codec = Common.Codec

let put_fingerprint buf fp =
  List.iter (Codec.put_int buf) [ fp.n; fp.m; fp.shards; fp.seed ];
  List.iter (Codec.put_string buf) [ fp.process; fp.scenario; fp.rule ]

let get_fingerprint c =
  let n = Codec.get_int c in
  let m = Codec.get_int c in
  let shards = Codec.get_int c in
  let seed = Codec.get_int c in
  let process = Codec.get_string c in
  let scenario = Codec.get_string c in
  let rule = Codec.get_string c in
  { n; m; shards; seed; process; scenario; rule }

let check_fingerprint ~file fp on_disk =
  if on_disk <> fp then
    failwith
      (Printf.sprintf "%s belongs to a different service (%s, want %s)" file
         (fingerprint_to_string on_disk)
         (fingerprint_to_string fp))

(* A cursor past the [magic] and fingerprint opening a file's bytes, and
   that fingerprint. *)
let read_header magic bytes =
  let c = Codec.cursor bytes in
  Codec.expect c magic;
  (c, get_fingerprint c)

(* {2 Snapshots} *)

let save_snapshot ~path fp (st : Cluster.state) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf snapshot_magic;
  put_fingerprint buf fp;
  Codec.put_int buf st.seq;
  Codec.put_int64s buf st.router;
  Codec.put_int buf (Array.length st.shards);
  Array.iter
    (fun (sh : Shard.state) ->
      let b = sh.bins in
      List.iter (Codec.put_int buf) [ sh.applied; sh.watermark ];
      Codec.put_int64s buf sh.rng;
      Codec.put_int buf b.Core.Bins.sn_n;
      List.iter (Codec.put_ints buf)
        [ b.sn_balls; b.sn_slot_order; b.sn_nonempty ])
    st.shards;
  Codec.write_file path buf

let get_shard c =
  let applied = Codec.get_int c in
  let watermark = Codec.get_int c in
  let rng = Codec.get_int64s c in
  let sn_n = Codec.get_int c in
  let sn_balls = Codec.get_ints c in
  let sn_slot_order = Codec.get_ints c in
  let sn_nonempty = Codec.get_ints c in
  { Shard.applied; watermark; rng;
    bins = { Core.Bins.sn_n; sn_balls; sn_slot_order; sn_nonempty } }

let load_snapshot ~path fp =
  Codec.read_file path
  |> Option.map (fun bytes ->
         let c, on_disk = read_header snapshot_magic bytes in
         check_fingerprint ~file:("snapshot " ^ path) fp on_disk;
         let seq = Codec.get_int c in
         let router = Codec.get_int64s c in
         let shards =
           Array.init (Codec.get_count c ~size:8) (fun _ -> get_shard c)
         in
         Codec.finish c;
         { Cluster.seq; router; shards })

(* {2 Journal records} *)

let encode_record buf ~seq events =
  Codec.put_int buf seq;
  Codec.put_int buf (Array.length events);
  Array.iter
    (fun ev ->
      match ev with
      | Engine.Event.Step -> Codec.put_byte buf 0
      | Engine.Event.Insert key ->
          Codec.put_byte buf 1;
          Codec.put_int buf key
      | Engine.Event.Remove -> Codec.put_byte buf 2
      | Engine.Event.Round -> Codec.put_byte buf 3
      | ev ->
          invalid_arg
            ("Serve.Journal: cannot journal non-mutation "
           ^ Engine.Event.name ev))
    events;
  Buffer.add_string buf trailer

let get_event c =
  match Codec.get_tag c 4 "event tag" with
  | 0 -> Engine.Event.Step
  | 1 -> Engine.Event.Insert (Codec.get_int c)
  | 2 -> Engine.Event.Remove
  | _ -> Engine.Event.Round

(* Hand each valid record to [f], in order; return the offset just past
   the last one, where a torn tail (a kill mid-append) begins. *)
let rec scan_records c f =
  let valid_end = Codec.offset c in
  match
    if Codec.at_end c then None
    else begin
      let seq = Codec.get_int c in
      let count = Codec.get_count c ~size:1 in
      let events = Array.init count (fun _ -> get_event c) in
      Codec.expect c trailer;
      Some (seq, events)
    end
  with
  | None | (exception Codec.Error _) -> valid_end
  | Some (seq, events) ->
      f ~seq events;
      scan_records c f

let header fp =
  let buf = Buffer.create 256 in
  Buffer.add_string buf journal_magic;
  put_fingerprint buf fp;
  Buffer.contents buf

let replay ~path fp ~f =
  Option.bind (Codec.read_file path) (fun data ->
      match read_header journal_magic data with
      | c, on_disk ->
          check_fingerprint ~file:("journal " ^ path) fp on_disk;
          Some (scan_records c f)
      | exception (Codec.Error _ as e) ->
          (* What a kill inside [Writer.create] leaves. *)
          if String.starts_with ~prefix:data (header fp) then None else raise e)

let fold ~path ~init ~f =
  let acc = ref init in
  (match Option.map (read_header journal_magic) (Codec.read_file path) with
  | Some (c, _) ->
      ignore (scan_records c (fun ~seq evs -> acc := f !acc ~seq evs))
  | None | (exception Codec.Error _) -> ());
  !acc

(* {2 Writer} *)

module Writer = struct
  type t = {
    ch : out_channel;
    buf : Buffer.t;
    (* Durability gauges for the stats report: when the journal last
       reached the OS ([flush]) and the disk ([sync]). *)
    mutable last_flush_ns : int64;
    mutable last_sync_ns : int64 option;
  }

  let open_at ~path offset =
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    Unix.ftruncate fd offset;
    let ch = Unix.out_channel_of_descr fd in
    seek_out ch offset;
    { ch; buf = Buffer.create 4096;
      last_flush_ns = Obs.Clock.now_ns (); last_sync_ns = None }

  let create ~path fp =
    let header = header fp in
    Out_channel.with_open_bin path (fun ch -> output_string ch header);
    open_at ~path (String.length header)

  let append t ~seq events =
    Buffer.clear t.buf;
    encode_record t.buf ~seq events;
    Buffer.output_buffer t.ch t.buf

  let flush t =
    flush t.ch;
    t.last_flush_ns <- Obs.Clock.now_ns ()

  let sync t =
    flush t;
    Unix.fsync (Unix.descr_of_out_channel t.ch);
    t.last_sync_ns <- Some (Obs.Clock.now_ns ())

  let close t = close_out t.ch

  let bytes t = pos_out t.ch
  (* Bytes written so far, buffered output included. *)

  let flush_age_s t = Obs.Clock.seconds_since t.last_flush_ns
  let sync_age_s t = Option.map Obs.Clock.seconds_since t.last_sync_ns
end
