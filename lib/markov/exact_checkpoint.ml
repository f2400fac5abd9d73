(* Versioned snapshots of long exact-analysis runs.

   Schema "repro.exact-checkpoint/3" (all integers int64 LE, floats
   IEEE-754 binary64 LE):

     magic[24] = "repro.exact-checkpoint/3"
     states, nnz, digest                — chain fingerprint
     phase tag (u8): 0 = Stationary, 1 = Mixing
     Stationary: tol, iter, prev_r, n, dist[n]
     Mixing:     eps, pi_tol, n, pi[n],
                 k, (start, tau)[k]     — completed crossings
                 inflight flag (u8); if 1: t, b, start[b], (n, dist[n])[b]

   Every quantity a resumed run needs is either here or redundant: the
   remaining starts follow from (pi, eps) and the completed set, and a
   live start's distribution at t is the same bits however it got there,
   so a kill at any point resumes to a bit-identical answer.  A file of
   an older schema reads as foreign: "/1" held no live batch, and "/1"
   and "/2" fingerprinted the chain by its shape alone, which two
   processes on one state space can share.

   Files are written to a temporary sibling and renamed into place, so
   a kill mid-write leaves the previous snapshot intact.  [load_file]
   treats a missing, truncated or foreign file as "no checkpoint". *)

let magic = "repro.exact-checkpoint/3"

type inflight = {
  t : int;
  starts : int array; (* the live starts; each TV > eps at [t] *)
  dists : float array array; (* their distributions at [t] *)
}

type stationary = {
  tol : float;
  iter : int;
  prev_r : float;
  dist : float array;
}

type mixing = {
  eps : float;
  pi_tol : float;
  pi : float array;
  completed : (int * int) list; (* (start, tau), completion order *)
  inflight : inflight option;
}

type phase = Stationary of stationary | Mixing of mixing

type snapshot = { states : int; nnz : int; digest : int; phase : phase }

(* {2 Encoding} *)

let put_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)
let put_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)
let put_vec buf a = Array.iter (put_f64 buf) a

let encode s =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  put_i64 buf s.states;
  put_i64 buf s.nnz;
  put_i64 buf s.digest;
  (match s.phase with
  | Stationary { tol; iter; prev_r; dist } ->
      Buffer.add_char buf '\000';
      put_f64 buf tol;
      put_i64 buf iter;
      put_f64 buf prev_r;
      put_i64 buf (Array.length dist);
      put_vec buf dist
  | Mixing { eps; pi_tol; pi; completed; inflight } ->
      Buffer.add_char buf '\001';
      put_f64 buf eps;
      put_f64 buf pi_tol;
      put_i64 buf (Array.length pi);
      put_vec buf pi;
      put_i64 buf (List.length completed);
      List.iter
        (fun (s, t) ->
          put_i64 buf s;
          put_i64 buf t)
        completed;
      (match inflight with
      | None -> Buffer.add_char buf '\000'
      | Some { t; starts; dists } ->
          Buffer.add_char buf '\001';
          put_i64 buf t;
          put_i64 buf (Array.length starts);
          Array.iter (put_i64 buf) starts;
          Array.iter
            (fun d ->
              put_i64 buf (Array.length d);
              put_vec buf d)
            dists));
  buf

exception Corrupt

let decode bytes =
  let pos = ref 0 in
  let len = Bytes.length bytes in
  let need n = if !pos + n > len then raise Corrupt in
  let get_i64 () =
    need 8;
    let v = Int64.to_int (Bytes.get_int64_le bytes !pos) in
    pos := !pos + 8;
    v
  in
  let get_f64 () =
    need 8;
    let v = Int64.float_of_bits (Bytes.get_int64_le bytes !pos) in
    pos := !pos + 8;
    v
  in
  let get_u8 () =
    need 1;
    let v = Char.code (Bytes.get bytes !pos) in
    incr pos;
    v
  in
  let get_vec () =
    let n = get_i64 () in
    if n < 0 || n > (len - !pos) / 8 then raise Corrupt;
    Array.init n (fun _ -> get_f64 ())
  in
  need (String.length magic);
  if Bytes.sub_string bytes 0 (String.length magic) <> magic then raise Corrupt;
  pos := String.length magic;
  let states = get_i64 () in
  let nnz = get_i64 () in
  let digest = get_i64 () in
  let phase =
    match get_u8 () with
    | 0 ->
        let tol = get_f64 () in
        let iter = get_i64 () in
        let prev_r = get_f64 () in
        let dist = get_vec () in
        Stationary { tol; iter; prev_r; dist }
    | 1 ->
        let eps = get_f64 () in
        let pi_tol = get_f64 () in
        let pi = get_vec () in
        let k = get_i64 () in
        if k < 0 || k > (len - !pos) / 16 then raise Corrupt;
        let completed =
          List.init k (fun _ ->
              let s = get_i64 () in
              let t = get_i64 () in
              (s, t))
        in
        let inflight =
          match get_u8 () with
          | 0 -> None
          | 1 ->
              let t = get_i64 () in
              let b = get_i64 () in
              if b < 0 || b > (len - !pos) / 16 then raise Corrupt;
              let starts = Array.init b (fun _ -> get_i64 ()) in
              let dists = Array.init b (fun _ -> get_vec ()) in
              Some { t; starts; dists }
          | _ -> raise Corrupt
        in
        Mixing { eps; pi_tol; pi; completed; inflight }
    | _ -> raise Corrupt
  in
  if !pos <> len then raise Corrupt;
  { states; nnz; digest; phase }

let save_file path s =
  let tmp = path ^ ".tmp" in
  let ch = open_out_bin tmp in
  Buffer.output_buffer ch (encode s);
  close_out ch;
  Sys.rename tmp path

let load_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ch ->
      let r =
        match really_input_string ch (in_channel_length ch) with
        | exception End_of_file -> None
        | raw -> ( try Some (decode (Bytes.of_string raw)) with Corrupt -> None)
      in
      close_in_noerr ch;
      r

(* {2 Sinks}

   Exact-analysis code talks to an abstract sink so tests can inject
   in-memory sinks that count stores or simulate a kill by raising. *)

type sink = {
  store : snapshot -> unit;
  fetch : unit -> snapshot option;
  min_interval : float; (* seconds between periodic offers *)
  mutable last_store : float; (* Unix time; -infinity = never *)
}

let sink ?(min_interval = 0.) ~store ~fetch () =
  { store; fetch; min_interval; last_store = neg_infinity }

let file_sink ?(min_interval = 15.) path =
  sink ~min_interval
    ~store:(fun s -> save_file path s)
    ~fetch:(fun () -> load_file path)
    ()

let memory_sink ?min_interval () =
  let cell = ref None in
  ( sink ?min_interval ~store:(fun s -> cell := Some s)
      ~fetch:(fun () -> !cell)
      (),
    cell )

let commit t s =
  t.store s;
  t.last_store <- Unix.gettimeofday ()

let offer t make =
  let now = Unix.gettimeofday () in
  if now -. t.last_store >= t.min_interval then begin
    t.store (make ());
    t.last_store <- now
  end

let resume t = t.fetch ()
