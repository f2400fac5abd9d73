(* Blocked CSR transition-matrix store.

   The matrix is split into fixed row-range blocks; each block is a
   compact CSR shard (local row pointers, column indices, values).
   Shards live in memory by default, or append to a disk-backed block
   file as each block completes ([?spill]), so a build whose transition
   structure exceeds RAM still finishes: the builder only ever holds the
   block under construction.

   Rows arrive one at a time, in order, through [add_row] — the shape a
   BFS enumeration produces naturally, since state [i]'s row is fully
   determined by the time [i] is dequeued.  The final column count is
   only known once discovery ends, so bounds are checked at [finish].

   Spill file format "repro.blocked-csr/1" (primitives from
   {!Common.Codec}: integers int64 LE, values IEEE-754 float64 LE, the
   arrays unprefixed slices):

     per block, in order:
       nrows, nnz, row_ptr[nrows+1], col_idx[nnz], values[nnz]
     footer:
       nblocks, then per block: pos, nrows, nnz
     trailer (fixed 48 bytes at EOF):
       rows, cols, block_rows, total nnz, footer pos, magic[8] = "rprbcsr1"

   The trailer is written last, so a file missing or corrupting it (a
   killed build) is rejected by [open_file] rather than half-read. *)

let magic = "rprbcsr1"
let default_block_rows = 4096

type shard = {
  row_ptr : int array; (* local; length nrows+1 *)
  col_idx : int array;
  values : float array;
}

type storage =
  | Mem of shard
  | Disk of { pos : int; nrows : int; nnz : int }

type t = {
  rows : int;
  cols : int;
  block_rows : int;
  blocks : storage array;
  channel : in_channel option; (* open block file when any block is Disk *)
  path : string option;
  nnz : int;
}

let rows t = t.rows
let cols t = t.cols
let nnz t = t.nnz
let block_rows t = t.block_rows
let block_count t = Array.length t.blocks
let path t = t.path
let close t = Option.iter close_in_noerr t.channel

let spmv_counter = Obs.Counter.make "bcsr.spmv_calls"
let block_nnz_hist = Obs.Histogram.make "bcsr.block_nnz"

(* {2 Binary encoding} *)

module Codec = Common.Codec

(* One block: nrows and nnz, then its three arrays. *)
let read_block ch ~pos ~nrows ~nnz =
  let c = Codec.read_at ch ~pos ~len:(8 * (3 + nrows + (2 * nnz))) in
  if Codec.get_int c <> nrows || Codec.get_int c <> nnz then
    Codec.corrupt pos "block header";
  let row_ptr = Codec.get_int_slice c (nrows + 1) in
  let col_idx = Codec.get_int_slice c nnz in
  let values = Codec.get_float_slice c nnz in
  { row_ptr; col_idx; values }

(* Load block [b] and apply [f] to its shard; [row0] is the global index
   of the shard's first row.  Disk shards are read fresh per call — the
   working set is one block, whatever the matrix size. *)
let with_shard t b f =
  let row0 = b * t.block_rows in
  match t.blocks.(b) with
  | Mem s -> f ~row0 s
  | Disk { pos; nrows; nnz } ->
      f ~row0 (read_block (Option.get t.channel) ~pos ~nrows ~nnz)

(* {2 Streaming builder} *)

type builder = {
  target_block_rows : int;
  out : (out_channel * string) option; (* the spill file and its path *)
  buf : Buffer.t; (* the spill's encoding buffer, reused per block *)
  mutable written : int; (* bytes written so far = pos of next block *)
  mutable done_blocks : storage list; (* reversed *)
  mutable nrows : int; (* rows fed in, across all blocks *)
  mutable total_nnz : int;
  mutable max_col : int;
  (* block under construction *)
  mutable cur_rows : int;
  mutable cur_ptr : int array; (* length target_block_rows + 1 *)
  mutable cur_col : int array; (* growable *)
  mutable cur_val : float array;
}

let builder ?(block_rows = default_block_rows) ?spill () =
  if block_rows < 1 then invalid_arg "Blocked_csr.builder: block_rows < 1";
  {
    target_block_rows = block_rows;
    out = Option.map (fun path -> (open_out_bin path, path)) spill;
    buf = Buffer.create 64;
    written = 0;
    done_blocks = [];
    nrows = 0;
    total_nnz = 0;
    max_col = -1;
    cur_rows = 0;
    cur_ptr = Array.make (block_rows + 1) 0;
    cur_col = Array.make 64 0;
    cur_val = Array.make 64 0.;
  }

(* Encode the block under construction straight from the builder's
   arrays and append it to the spill file. *)
let spill_block b ch =
  let nrows = b.cur_rows and nnz = b.cur_ptr.(b.cur_rows) in
  let buf = b.buf in
  Buffer.clear buf;
  List.iter (Codec.put_int buf) [ nrows; nnz ];
  Codec.put_int_slice buf b.cur_ptr ~pos:0 ~len:(nrows + 1);
  Codec.put_int_slice buf b.cur_col ~pos:0 ~len:nnz;
  Codec.put_float_slice buf b.cur_val ~pos:0 ~len:nnz;
  let sp =
    if Obs.enabled () then
      Obs.begin_span "bcsr.spill"
        ~args:
          [
            ("block", Obs.Int (List.length b.done_blocks));
            ("bytes", Obs.Int (Buffer.length buf));
          ]
    else Obs.null_span
  in
  let pos = b.written in
  Buffer.output_buffer ch buf;
  b.written <- b.written + Buffer.length buf;
  Obs.end_span sp;
  Disk { pos; nrows; nnz }

let flush_block b =
  if b.cur_rows > 0 then begin
    let nnz = b.cur_ptr.(b.cur_rows) in
    Obs.Histogram.observe block_nnz_hist nnz;
    let st =
      match b.out with
      | None ->
          Mem
            {
              row_ptr = Array.sub b.cur_ptr 0 (b.cur_rows + 1);
              col_idx = Array.sub b.cur_col 0 nnz;
              values = Array.sub b.cur_val 0 nnz;
            }
      | Some (ch, _) -> spill_block b ch
    in
    b.done_blocks <- st :: b.done_blocks;
    b.cur_rows <- 0;
    Array.fill b.cur_ptr 0 (Array.length b.cur_ptr) 0
  end

let ensure_entry_room b need =
  let cap = Array.length b.cur_col in
  if need > cap then begin
    let cap' = ref (Stdlib.max 64 (cap * 2)) in
    while !cap' < need do
      cap' := !cap' * 2
    done;
    let col' = Array.make !cap' 0 and val' = Array.make !cap' 0. in
    Array.blit b.cur_col 0 col' 0 cap;
    Array.blit b.cur_val 0 val' 0 cap;
    b.cur_col <- col';
    b.cur_val <- val'
  end

(* Per row: sort by column, merge duplicates, drop exact zeros, so
   [nnz] counts structural non-zeros only. *)
let add_row b entries =
  let a = Array.of_list entries in
  Array.iter
    (fun (j, _) ->
      if j < 0 then invalid_arg "Blocked_csr.add_row: negative column index";
      if j > b.max_col then b.max_col <- j)
    a;
  Array.sort (fun (a, _) (b, _) -> compare (a : int) b) a;
  let base = b.cur_ptr.(b.cur_rows) in
  ensure_entry_room b (base + Array.length a);
  let out = ref base in
  let k = Array.length a in
  let p = ref 0 in
  while !p < k do
    let j, _ = a.(!p) in
    let v = ref 0. in
    while !p < k && fst a.(!p) = j do
      v := !v +. snd a.(!p);
      incr p
    done;
    if !v <> 0. then begin
      b.cur_col.(!out) <- j;
      b.cur_val.(!out) <- !v;
      incr out
    end
  done;
  b.total_nnz <- b.total_nnz + (!out - base);
  b.cur_rows <- b.cur_rows + 1;
  b.cur_ptr.(b.cur_rows) <- !out;
  b.nrows <- b.nrows + 1;
  if b.cur_rows = b.target_block_rows then flush_block b

let finish b ~cols =
  Obs.with_span "bcsr.build"
    ~args:
      (if Obs.enabled () then
         [ ("rows", Obs.Int b.nrows); ("nnz", Obs.Int b.total_nnz) ]
       else [])
    (fun () ->
      if b.nrows = 0 then invalid_arg "Blocked_csr.finish: empty matrix";
      if cols <= 0 then invalid_arg "Blocked_csr.finish: non-positive cols";
      if b.max_col >= cols then
        invalid_arg "Blocked_csr.finish: column index out of bounds";
      flush_block b;
      let blocks = Array.of_list (List.rev b.done_blocks) in
      let channel, path =
        match b.out with
        | Some (ch, path) ->
            let buf = b.buf in
            Buffer.clear buf;
            Codec.put_int buf (Array.length blocks);
            Array.iter
              (function
                | Disk { pos; nrows; nnz } ->
                    List.iter (Codec.put_int buf) [ pos; nrows; nnz ]
                | Mem _ -> assert false)
              blocks;
            List.iter (Codec.put_int buf)
              [ b.nrows; cols; b.target_block_rows; b.total_nnz; b.written ];
            Buffer.add_string buf magic;
            Buffer.output_buffer ch buf;
            close_out ch;
            (Some (open_in_bin path), Some path)
        | None -> (None, None)
      in
      { rows = b.nrows; cols; block_rows = b.target_block_rows; blocks;
        channel; path; nnz = b.total_nnz })

let open_file path =
  let ch = open_in_bin path in
  try
    let len = in_channel_length ch in
    let c = Codec.read_at ch ~pos:(len - 48) ~len:48 in
    let rows = Codec.get_int c in
    let cols = Codec.get_int c in
    let block_rows = Codec.get_int c in
    let total_nnz = Codec.get_int c in
    let footer_pos = Codec.get_int c in
    Codec.expect c magic;
    if rows <= 0 || cols <= 0 || block_rows <= 0 || footer_pos < 0 then
      Codec.corrupt (len - 48) "trailer";
    let c = Codec.read_at ch ~pos:footer_pos ~len:(len - 48 - footer_pos) in
    let nblocks = Codec.get_count c ~size:24 in
    let blocks =
      Array.init nblocks (fun _ ->
          let pos = Codec.get_int c in
          let nrows = Codec.get_int c in
          Disk { pos; nrows; nnz = Codec.get_int c })
    in
    Codec.finish c;
    { rows; cols; block_rows; blocks; channel = Some ch; path = Some path;
      nnz = total_nnz }
  with e ->
    close_in_noerr ch;
    raise e

(* {2 Queries} *)

let row_sums t =
  let sums = Array.make t.rows 0. in
  for b = 0 to block_count t - 1 do
    with_shard t b (fun ~row0 s ->
        let nrows = Array.length s.row_ptr - 1 in
        for r = 0 to nrows - 1 do
          let acc = ref 0. in
          for k = s.row_ptr.(r) to s.row_ptr.(r + 1) - 1 do
            acc := !acc +. s.values.(k)
          done;
          sums.(row0 + r) <- !acc
        done)
  done;
  sums

let is_stochastic ?(tol = 1e-9) t =
  t.rows = t.cols
  && Array.for_all (fun s -> Float.abs (s -. 1.) <= tol) (row_sums t)

let in_memory t =
  Array.for_all (function Mem _ -> true | Disk _ -> false) t.blocks

(* Row by row, so the block layout and the spill do not enter: each
   row's length, then its column indices and value bits.  A word is
   xored in, then the running hash is multiplied by an odd constant
   (carrying bits up) and xor-shifted (folding them down); both are
   bijections, so changing any one word always changes the digest. *)
let digest t =
  let mix h x =
    let h = (h lxor x) * 0x100000001b3 in
    h lxor (h lsr 29)
  in
  let h = ref (mix (mix 0 t.rows) t.cols) in
  for b = 0 to block_count t - 1 do
    with_shard t b (fun ~row0:_ s ->
        for r = 0 to Array.length s.row_ptr - 2 do
          h := mix !h (s.row_ptr.(r + 1) - s.row_ptr.(r));
          for k = s.row_ptr.(r) to s.row_ptr.(r + 1) - 1 do
            let bits = Int64.bits_of_float s.values.(k) in
            h :=
              mix
                (mix (mix !h s.col_idx.(k)) (Int64.to_int bits))
                (Int64.to_int (Int64.shift_right_logical bits 32))
          done
        done)
  done;
  !h

(* {2 Kernels}

   [dst <- src · P] plus optionally a fused L1 statistic.  The product is
   one row-major scatter over the blocks, streaming any disk shard, so
   each [dst.(j)] accumulates over rows in increasing global row order.
   The statistic is summed per fixed-width column chunk (ascending index
   order within the chunk) and each chunk's partial is added to the
   total in chunk order.  That order is part of the bitwise contract:
   every residual, TV and τ the exact layer has recorded was summed in
   it.  A kernel holds no mutable state, so one kernel serves any number
   of concurrent products on an in-memory store. *)

let chunk_cols = 1024

type kernel = t

let kernel t = t

let check_dims t ~src ~dst =
  if Array.length src <> t.rows || Array.length dst <> t.cols then
    invalid_arg "Blocked_csr.spmv: dimension mismatch"

(* The fused statistics read [src] or [pi] at every column index. *)
let check_pi t pi =
  if Array.length pi <> t.cols then
    invalid_arg "Blocked_csr.step_tv: pi dimension mismatch"

(* [Σ_j |a.(j) − b.(j)|] over the columns, in the chunked order above. *)
let chunked_l1 t a b =
  let total = ref 0. in
  let j0 = ref 0 in
  while !j0 < t.cols do
    let j1 = Stdlib.min t.cols (!j0 + chunk_cols) in
    let acc = ref 0. in
    for j = !j0 to j1 - 1 do
      acc := !acc +. Float.abs (Array.unsafe_get a j -. Array.unsafe_get b j)
    done;
    total := !total +. !acc;
    j0 := j1
  done;
  !total

let spmv t ~src ~dst =
  check_dims t ~src ~dst;
  Obs.Counter.incr spmv_counter;
  Array.fill dst 0 t.cols 0.;
  for b = 0 to block_count t - 1 do
    with_shard t b (fun ~row0 s ->
        let rp = s.row_ptr and ci = s.col_idx and vs = s.values in
        let nrows = Array.length rp - 1 in
        for r = 0 to nrows - 1 do
          let v = Array.unsafe_get src (row0 + r) in
          if v <> 0. then
            for k = Array.unsafe_get rp r to Array.unsafe_get rp (r + 1) - 1 do
              let j = Array.unsafe_get ci k in
              Array.unsafe_set dst j
                (Array.unsafe_get dst j +. (v *. Array.unsafe_get vs k))
            done
        done)
  done

let step_l1 t ~src ~dst =
  if t.rows <> t.cols then
    invalid_arg "Blocked_csr.step_l1: matrix is not square";
  spmv t ~src ~dst;
  chunked_l1 t dst src

let step_tv t ~pi ~src ~dst =
  check_pi t pi;
  spmv t ~src ~dst;
  chunked_l1 t dst pi /. 2.

(* {2 Multi-vector fused products}

   Advance a whole batch of distribution vectors through one traversal
   of the matrix.  In memory this buys little, since a row's CSR entries
   stay in L1 while the vectors replay them either way (0.72–1.18× the
   speed of separate products for 8 vectors).  On a spilled store it is
   what keeps per-start sweeps affordable: the blocks stream from disk
   once per batch instead of once per vector (3.3–7.4× for 4–16).

   Bit-identity with the single-vector path is preserved per vector: a
   contribution [src.(row) * v] is added to [dst.(j)] if and only if
   [src.(row) <> 0.] (the same skip {!spmv} performs), each [dst.(j)]
   accumulates over rows in increasing global row order, and each
   vector's TV is summed in the same chunked order, so
   [step_tv_multi k ~pi ~srcs ~dsts] returns exactly the values the B
   separate [step_tv] calls would.

   The row's entries are the innermost loop, replayed once per vector
   with the source value and destination array in registers: a row (a
   few hundred bytes of CSR data) is pulled from the block once and
   re-read from L1 by the remaining B-1 vectors.  Entry-innermost
   ordering (one pass over the row updating all B vectors per entry)
   measures slower: it pays an [rv] load, a branch and a [dsts.(b)]
   indirection per (entry, vector) while saving only L1-hot re-reads. *)
let step_tv_multi t ~pi ~srcs ~dsts =
  let nb = Array.length srcs in
  if Array.length dsts <> nb then
    invalid_arg "Blocked_csr.step_tv_multi: srcs/dsts length mismatch";
  if nb = 0 then [||]
  else if nb = 1 then [| step_tv t ~pi ~src:srcs.(0) ~dst:dsts.(0) |]
  else begin
    check_pi t pi;
    Array.iteri (fun b src -> check_dims t ~src ~dst:dsts.(b)) srcs;
    Obs.Counter.incr spmv_counter;
    Array.iter (fun d -> Array.fill d 0 t.cols 0.) dsts;
    for blk = 0 to block_count t - 1 do
      with_shard t blk (fun ~row0 s ->
          let rp = s.row_ptr and ci = s.col_idx and vs = s.values in
          let nrows = Array.length rp - 1 in
          for r = 0 to nrows - 1 do
            let row = row0 + r in
            let k0 = Array.unsafe_get rp r in
            let k1 = Array.unsafe_get rp (r + 1) in
            for b = 0 to nb - 1 do
              let sv = Array.unsafe_get (Array.unsafe_get srcs b) row in
              if sv <> 0. then begin
                let d = Array.unsafe_get dsts b in
                for k = k0 to k1 - 1 do
                  let j = Array.unsafe_get ci k in
                  Array.unsafe_set d j
                    (Array.unsafe_get d j +. (sv *. Array.unsafe_get vs k))
                done
              end
            done
          done)
    done;
    Array.map (fun d -> chunked_l1 t d pi /. 2.) dsts
  end
