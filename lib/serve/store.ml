(* The durable service state: a {!Cluster} paired with its snapshot and
   write-ahead journal in one directory.

   Batch protocol: journal the batch's mutations (arrival order, record
   seq = cluster seq before application), flush, then apply the whole
   batch to the cluster.  A kill between the journal write and the
   application is harmless — restore replays the journaled record onto
   the pre-batch state and lands exactly where the apply would have.

   Snapshots are cut at batch boundaries every [snapshot_every]
   mutations; after a successful (atomic) snapshot the journal is
   compacted — restarted fresh — so restore cost stays bounded by one
   snapshot interval.  A crash between the rename and the compaction
   only leaves fully-covered records behind, which the replay skip rule
   ([record.seq >= snapshot.seq]) ignores. *)

type t = {
  config : Cluster.config;
  fp : Journal.fingerprint;
  cluster : Cluster.t;
  mutable writer : Journal.Writer.t;
  journal_path : string;
  snapshot_path : string;
  snapshot_every : int;
  sync : bool;
  mutable last_snapshot_seq : int;
  mutable last_snapshot_ns : int64;  (* boot time until the first cut *)
  mutable closed : bool;
}

let journal_file = "journal.bin"
let snapshot_file = "snapshot.bin"

(* Each file is read once.  A snapshot that exists but does not decode,
   or a journal header that neither decodes nor is a prefix of this
   service's, is refused before anything is written: booting the
   initial state instead would serve it and overwrite the evidence. *)
let restore ~snapshot_path ~journal_path config fp =
  let decode read path =
    try read ~path
    with Common.Codec.Error e -> failwith (Common.Codec.describe ~path e)
  in
  let cluster =
    match decode (Journal.load_snapshot fp) snapshot_path with
    | Some st -> Cluster.of_state config st
    | None -> Cluster.create config
  in
  let apply ~seq events =
    let cur = Cluster.seq cluster in
    if seq = cur then ignore (Cluster.apply_batch cluster events)
    else if seq > cur then
      failwith
        (Printf.sprintf
           "journal %s has a gap: record seq %d but service is at %d"
           journal_path seq cur)
    else if seq + Array.length events > cur then
      failwith
        (Printf.sprintf
           "journal %s record [%d, %d) straddles the snapshot seq %d"
           journal_path seq
           (seq + Array.length events)
           cur)
  in
  let writer =
    match decode (Journal.replay fp ~f:apply) journal_path with
    | None -> Journal.Writer.create ~path:journal_path fp
    | Some valid_end -> Journal.Writer.open_at ~path:journal_path valid_end
  in
  (cluster, writer)

let open_ ?(snapshot_every = 1_000_000) ?(sync = false) ~dir config =
  if snapshot_every <= 0 then
    invalid_arg "Serve.Store.open_: snapshot_every must be positive";
  Common.Util.mkdir_p dir;
  let snapshot_path = Filename.concat dir snapshot_file in
  let journal_path = Filename.concat dir journal_file in
  let fp = Journal.fingerprint_of_config config in
  match restore ~snapshot_path ~journal_path config fp with
  | cluster, writer ->
      Ok
        { config; fp; cluster; writer; journal_path; snapshot_path;
          snapshot_every; sync; last_snapshot_seq = Cluster.seq cluster;
          last_snapshot_ns = Obs.Clock.now_ns (); closed = false }
  | exception Failure msg -> Error msg
  | exception Invalid_argument msg -> Error msg

let cluster t = t.cluster
let config t = t.config
let seq t = Cluster.seq t.cluster

let set_telemetry t tel =
  Cluster.set_telemetry t.cluster tel;
  let r = Telemetry.registry tel in
  let gauge name help read = Obs.Registry.gauge r name ~help read
  and age name help read = Obs.Registry.gauge_float r name ~help read in
  gauge "journal_bytes" "Journal file size in bytes" (fun () ->
      Journal.Writer.bytes t.writer);
  age "journal_flush_age_seconds" "Seconds since the journal last flushed"
    (fun () -> Some (Journal.Writer.flush_age_s t.writer));
  age "journal_sync_age_seconds" "Seconds since the journal last fsynced"
    (fun () -> Journal.Writer.sync_age_s t.writer);
  gauge "snapshot_seq" "Sequence of the last snapshot" (fun () ->
      t.last_snapshot_seq);
  age "snapshot_age_seconds" "Seconds since the last snapshot" (fun () ->
      Some (Obs.Clock.seconds_since t.last_snapshot_ns));
  gauge "since_snapshot" "Mutations not yet covered by a snapshot" (fun () ->
      Cluster.seq t.cluster - t.last_snapshot_seq)

let snapshot_now t =
  Journal.save_snapshot ~path:t.snapshot_path t.fp (Cluster.state t.cluster);
  (* Compact: everything on disk is now covered by the snapshot. *)
  Journal.Writer.close t.writer;
  t.writer <- Journal.Writer.create ~path:t.journal_path t.fp;
  t.last_snapshot_seq <- Cluster.seq t.cluster;
  t.last_snapshot_ns <- Obs.Clock.now_ns ()

let count_mutations events =
  Array.fold_left
    (fun k ev -> if Engine.Event.is_mutation ev then k + 1 else k)
    0 events

let apply_batch t events =
  if t.closed then invalid_arg "Serve.Store.apply_batch: closed";
  let muts = count_mutations events in
  if muts > 0 then begin
    let record =
      if muts = Array.length events then events
      else begin
        let r = Array.make muts Engine.Event.Step in
        let k = ref 0 in
        Array.iter
          (fun ev ->
            if Engine.Event.is_mutation ev then begin
              r.(!k) <- ev;
              incr k
            end)
          events;
        r
      end
    in
    Journal.Writer.append t.writer ~seq:(Cluster.seq t.cluster) record;
    if t.sync then Journal.Writer.sync t.writer
    else Journal.Writer.flush t.writer
  end;
  let replies = Cluster.apply_batch t.cluster events in
  if Cluster.seq t.cluster - t.last_snapshot_seq >= t.snapshot_every then
    snapshot_now t;
  replies

let apply t ev = (apply_batch t [| ev |]).(0)

let close t =
  if not t.closed then begin
    snapshot_now t;
    Journal.Writer.close t.writer;
    t.closed <- true
  end
