(* Versioned snapshots of long exact-analysis runs.

   Schema "repro.exact-checkpoint/3" (primitives from {!Common.Codec}:
   integers int64 LE, floats IEEE-754 binary64 LE):

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
   a kill mid-write leaves the previous snapshot intact.  [decode]
   raises the codec's typed error on a truncated or foreign file, which
   [load_file] reads as "no checkpoint". *)

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

module Codec = Common.Codec

let encode s =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  List.iter (Codec.put_int buf) [ s.states; s.nnz; s.digest ];
  (match s.phase with
  | Stationary { tol; iter; prev_r; dist } ->
      Codec.put_byte buf 0;
      Codec.put_float buf tol;
      Codec.put_int buf iter;
      Codec.put_float buf prev_r;
      Codec.put_floats buf dist
  | Mixing { eps; pi_tol; pi; completed; inflight } ->
      Codec.put_byte buf 1;
      Codec.put_float buf eps;
      Codec.put_float buf pi_tol;
      Codec.put_floats buf pi;
      Codec.put_int buf (List.length completed);
      List.iter (fun (s, t) -> List.iter (Codec.put_int buf) [ s; t ])
        completed;
      (match inflight with
      | None -> Codec.put_byte buf 0
      | Some { t; starts; dists } ->
          Codec.put_byte buf 1;
          Codec.put_int buf t;
          Codec.put_ints buf starts;
          Array.iter (Codec.put_floats buf) dists));
  buf

let decode bytes =
  let c = Codec.cursor bytes in
  Codec.expect c magic;
  let states = Codec.get_int c in
  let nnz = Codec.get_int c in
  let digest = Codec.get_int c in
  let phase =
    if Codec.get_tag c 2 "phase tag" = 0 then begin
      let tol = Codec.get_float c in
      let iter = Codec.get_int c in
      let prev_r = Codec.get_float c in
      let dist = Codec.get_floats c in
      Stationary { tol; iter; prev_r; dist }
    end
    else begin
      let eps = Codec.get_float c in
      let pi_tol = Codec.get_float c in
      let pi = Codec.get_floats c in
      let completed =
        List.init (Codec.get_count c ~size:16) (fun _ ->
            let s = Codec.get_int c in
            (s, Codec.get_int c))
      in
      let inflight =
        if Codec.get_tag c 2 "inflight flag" = 0 then None
        else begin
          let t = Codec.get_int c in
          let starts = Codec.get_ints c in
          let dists = Array.map (fun _ -> Codec.get_floats c) starts in
          Some { t; starts; dists }
        end
      in
      Mixing { eps; pi_tol; pi; completed; inflight }
    end
  in
  Codec.finish c;
  { states; nnz; digest; phase }

let save_file path s = Codec.write_file path (encode s)

let load_file path =
  try Option.map decode (Codec.read_file path) with Codec.Error _ -> None

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
