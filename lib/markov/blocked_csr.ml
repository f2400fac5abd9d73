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

   Spill file format "repro.blocked-csr/1" (all integers int64 LE,
   values IEEE-754 float64 LE):

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

let put_i64 buf v = Buffer.add_int64_le buf (Int64.of_int v)
let put_f64 buf v = Buffer.add_int64_le buf (Int64.bits_of_float v)

let read_block ch ~pos =
  seek_in ch pos;
  let b8 = Bytes.create 8 in
  let get_i64 () =
    really_input ch b8 0 8;
    Int64.to_int (Bytes.get_int64_le b8 0)
  in
  let nrows = get_i64 () in
  let nnz = get_i64 () in
  if nrows < 0 || nnz < 0 then failwith "Blocked_csr: corrupt block header";
  let bulk = Bytes.create (8 * (nrows + 1 + nnz + nnz)) in
  really_input ch bulk 0 (Bytes.length bulk);
  let row_ptr =
    Array.init (nrows + 1) (fun i -> Int64.to_int (Bytes.get_int64_le bulk (8 * i)))
  in
  let off = 8 * (nrows + 1) in
  let col_idx =
    Array.init nnz (fun k -> Int64.to_int (Bytes.get_int64_le bulk (off + (8 * k))))
  in
  let off = off + (8 * nnz) in
  let values =
    Array.init nnz (fun k ->
        Int64.float_of_bits (Bytes.get_int64_le bulk (off + (8 * k))))
  in
  { row_ptr; col_idx; values }

(* Load block [b] and apply [f] to its shard; [row0] is the global index
   of the shard's first row.  Disk shards are read fresh per call — the
   working set is one block, whatever the matrix size. *)
let with_shard t b f =
  let row0 = b * t.block_rows in
  match t.blocks.(b) with
  | Mem s -> f ~row0 s
  | Disk { pos; _ } -> f ~row0 (read_block (Option.get t.channel) ~pos)

(* {2 Streaming builder} *)

type builder = {
  target_block_rows : int;
  spill : string option;
  mutable out : out_channel option;
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
    spill;
    out = None;
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

let spill_block b (s : shard) =
  let ch =
    match b.out with
    | Some ch -> ch
    | None ->
        let ch = open_out_bin (Option.get b.spill) in
        b.out <- Some ch;
        ch
  in
  let nnz = Array.length s.values in
  let buf = Buffer.create (8 * (2 + Array.length s.row_ptr + (2 * nnz))) in
  put_i64 buf (Array.length s.row_ptr - 1);
  put_i64 buf nnz;
  Array.iter (put_i64 buf) s.row_ptr;
  Array.iter (put_i64 buf) s.col_idx;
  Array.iter (put_f64 buf) s.values;
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
  Disk { pos; nrows = Array.length s.row_ptr - 1; nnz }

let flush_block b =
  if b.cur_rows > 0 then begin
    let nnz = b.cur_ptr.(b.cur_rows) in
    let s =
      {
        row_ptr = Array.sub b.cur_ptr 0 (b.cur_rows + 1);
        col_idx = Array.sub b.cur_col 0 nnz;
        values = Array.sub b.cur_val 0 nnz;
      }
    in
    Obs.Histogram.observe block_nnz_hist nnz;
    let st = match b.spill with None -> Mem s | Some _ -> spill_block b s in
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
      match b.out with
      | None ->
          {
            rows = b.nrows;
            cols;
            block_rows = b.target_block_rows;
            blocks;
            channel = None;
            path = None;
            nnz = b.total_nnz;
          }
      | Some ch ->
          let footer_pos = b.written in
          let buf = Buffer.create 1024 in
          put_i64 buf (Array.length blocks);
          Array.iter
            (function
              | Disk { pos; nrows; nnz } ->
                  put_i64 buf pos;
                  put_i64 buf nrows;
                  put_i64 buf nnz
              | Mem _ -> assert false)
            blocks;
          put_i64 buf b.nrows;
          put_i64 buf cols;
          put_i64 buf b.target_block_rows;
          put_i64 buf b.total_nnz;
          put_i64 buf footer_pos;
          Buffer.add_string buf magic;
          Buffer.output_buffer ch buf;
          close_out ch;
          b.out <- None;
          let path = Option.get b.spill in
          {
            rows = b.nrows;
            cols;
            block_rows = b.target_block_rows;
            blocks;
            channel = Some (open_in_bin path);
            path = Some path;
            nnz = b.total_nnz;
          })

let open_file path =
  let ch = open_in_bin path in
  let fail fmt =
    Printf.ksprintf
      (fun m ->
        close_in_noerr ch;
        failwith ("Blocked_csr.open_file: " ^ m))
      fmt
  in
  let len = in_channel_length ch in
  if len < 48 then fail "%s: truncated file" path;
  seek_in ch (len - 48);
  let b = Bytes.create 48 in
  really_input ch b 0 48;
  if Bytes.sub_string b 40 8 <> magic then fail "%s: bad magic" path;
  let get i = Int64.to_int (Bytes.get_int64_le b (8 * i)) in
  let rows = get 0
  and cols = get 1
  and block_rows = get 2
  and total_nnz = get 3
  and footer_pos = get 4 in
  if rows <= 0 || cols <= 0 || block_rows <= 0 || footer_pos < 0 then
    fail "%s: corrupt trailer" path;
  seek_in ch footer_pos;
  let b8 = Bytes.create 8 in
  let get_i64 () =
    really_input ch b8 0 8;
    Int64.to_int (Bytes.get_int64_le b8 0)
  in
  let nblocks = get_i64 () in
  if nblocks < 0 || nblocks > rows then fail "%s: corrupt footer" path;
  let blocks =
    Array.init nblocks (fun _ ->
        let pos = get_i64 () in
        let nrows = get_i64 () in
        let nnz = get_i64 () in
        Disk { pos; nrows; nnz })
  in
  { rows; cols; block_rows; blocks; channel = Some ch; path = Some path;
    nnz = total_nnz }

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

(* {2 Kernels}

   [dst <- src · P] plus optionally a fused L1 statistic, deterministic
   for {e any} pool size.  Parallelism is column-owner-computes: the
   columns are cut into fixed-width chunks (a property of the matrix,
   not of the pool), each worker owns a contiguous chunk range, writes
   only the dst entries in it, and accumulates each dst entry over rows
   in increasing global row order — exactly the order the sequential
   row-major scatter uses, so every dst value is bit-identical to the
   sequential result.  Fused statistics are likewise summed per chunk
   and then across chunks in chunk order on the caller's domain, making
   residuals and TV values independent of the domain count too. *)

let chunk_cols = 1024

type stat = No_stat | L1_diff | Tv of float array

type kernel = {
  mat : t;
  pool : Parallel.Pool.t option;
  nchunks : int;
  ranges : int array; (* length workers+1; worker w owns chunks [r.(w), r.(w+1)) *)
  chunk_stat : float array; (* per-chunk partials of the fused statistic *)
}

(* Cut the chunks into [workers] contiguous ranges of roughly equal
   nnz, so a matrix whose mass concentrates in a few column bands still
   splits evenly. *)
let balance_ranges ~nchunks ~workers per_chunk_nnz =
  let total = Array.fold_left ( + ) 0 per_chunk_nnz in
  let ranges = Array.make (workers + 1) 0 in
  if total = 0 then
    for w = 0 to workers do
      ranges.(w) <- nchunks * w / workers
    done
  else begin
    let c = ref 0 and acc = ref 0 in
    for w = 1 to workers - 1 do
      let target = total * w / workers in
      while !c < nchunks && !acc + per_chunk_nnz.(!c) <= target do
        acc := !acc + per_chunk_nnz.(!c);
        incr c
      done;
      ranges.(w) <- !c
    done;
    ranges.(workers) <- nchunks
  end;
  ranges

let all_mem t = Array.for_all (function Mem _ -> true | Disk _ -> false) t.blocks
let in_memory = all_mem

let kernel ?pool mat =
  let nchunks = Stdlib.max 1 ((mat.cols + chunk_cols - 1) / chunk_cols) in
  (* A pool only helps when every shard is resident: disk shards are
     streamed through one shared channel and stay on the sequential
     path. *)
  let pool =
    match pool with
    | Some p when Parallel.Pool.size p > 1 && all_mem mat -> Some p
    | _ -> None
  in
  let workers = match pool with Some p -> Parallel.Pool.size p | None -> 1 in
  let per_chunk = Array.make nchunks 0 in
  if workers > 1 then
    Array.iter
      (function
        | Mem s ->
            Array.iter
              (fun j ->
                per_chunk.(j / chunk_cols) <- per_chunk.(j / chunk_cols) + 1)
              s.col_idx
        | Disk _ -> ())
      mat.blocks;
  let ranges = balance_ranges ~nchunks ~workers per_chunk in
  { mat; pool; nchunks; ranges; chunk_stat = Array.make nchunks 0. }

(* Sequential row-major scatter over the blocks, streaming any disk
   shard; the reference order every parallel variant reproduces. *)
let seq_spmv t ~src ~dst =
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

(* Worker slice: fill and accumulate the dst entries in column range
   [j0, j1), reading every block but touching only the columns it owns.
   For each row a binary search finds where the range starts in the
   row's sorted columns; entries are then consumed sequentially.  Each
   dst entry is owned by exactly one worker and accumulated over rows in
   increasing global order — the same per-entry summation order as
   {!seq_spmv}, hence bit-identical results for any pool size. *)
let slice_spmv mat ~src ~dst ~j0 ~j1 =
  Array.fill dst j0 (j1 - j0) 0.;
  Array.iteri
    (fun b st ->
      match st with
      | Disk _ -> assert false
      | Mem s ->
          let row0 = b * mat.block_rows in
          let rp = s.row_ptr and ci = s.col_idx and vs = s.values in
          let nrows = Array.length rp - 1 in
          for r = 0 to nrows - 1 do
            let v = Array.unsafe_get src (row0 + r) in
            if v <> 0. then begin
              let kend = Array.unsafe_get rp (r + 1) in
              let lo = ref (Array.unsafe_get rp r) and hi = ref kend in
              if j0 > 0 then
                while !lo < !hi do
                  let mid = (!lo + !hi) / 2 in
                  if Array.unsafe_get ci mid < j0 then lo := mid + 1
                  else hi := mid
                done;
              let k = ref !lo in
              let continue_ = ref (!k < kend) in
              while !continue_ do
                let j = Array.unsafe_get ci !k in
                if j >= j1 then continue_ := false
                else begin
                  Array.unsafe_set dst j
                    (Array.unsafe_get dst j +. (v *. Array.unsafe_get vs !k));
                  incr k;
                  if !k >= kend then continue_ := false
                end
              done
            end
          done)
    mat.blocks

let chunk_bounds mat c =
  (c * chunk_cols, Stdlib.min mat.cols ((c + 1) * chunk_cols))

let chunk_stat_value ~stat ~src ~dst ~j0 ~j1 =
  match stat with
  | No_stat -> 0.
  | L1_diff ->
      let acc = ref 0. in
      for j = j0 to j1 - 1 do
        acc :=
          !acc +. Float.abs (Array.unsafe_get dst j -. Array.unsafe_get src j)
      done;
      !acc
  | Tv pi ->
      let acc = ref 0. in
      for j = j0 to j1 - 1 do
        acc :=
          !acc +. Float.abs (Array.unsafe_get dst j -. Array.unsafe_get pi j)
      done;
      !acc

(* Fused product: dst <- src · P, returning the requested L1 statistic.
   The statistic is accumulated per fixed-width chunk (in ascending
   index order within the chunk) and the chunk partials are summed in
   chunk order on the caller's domain — both the chunk width and the
   summation order are properties of the matrix alone, so the value is
   identical for any pool size, including the sequential path. *)
let run k ~stat ~src ~dst =
  let mat = k.mat in
  if Array.length src <> mat.rows || Array.length dst <> mat.cols then
    invalid_arg "Blocked_csr.spmv: dimension mismatch";
  Obs.Counter.incr spmv_counter;
  let stat_chunks ~c0 ~c1 =
    match stat with
    | No_stat -> ()
    | _ ->
        for c = c0 to c1 - 1 do
          let j0, j1 = chunk_bounds mat c in
          k.chunk_stat.(c) <- chunk_stat_value ~stat ~src ~dst ~j0 ~j1
        done
  in
  (match k.pool with
  | None ->
      seq_spmv mat ~src ~dst;
      stat_chunks ~c0:0 ~c1:k.nchunks
  | Some pool ->
      Parallel.Pool.run pool (fun w _ ->
          let c0 = k.ranges.(w) and c1 = k.ranges.(w + 1) in
          if c1 > c0 then begin
            let j0 = c0 * chunk_cols
            and j1 = Stdlib.min mat.cols (c1 * chunk_cols) in
            slice_spmv mat ~src ~dst ~j0 ~j1;
            stat_chunks ~c0 ~c1
          end));
  match stat with
  | No_stat -> 0.
  | _ ->
      let total = ref 0. in
      for c = 0 to k.nchunks - 1 do
        total := !total +. k.chunk_stat.(c)
      done;
      !total

let spmv k ~src ~dst = ignore (run k ~stat:No_stat ~src ~dst)
let step_l1 k ~src ~dst = run k ~stat:L1_diff ~src ~dst
let step_tv k ~pi ~src ~dst = run k ~stat:(Tv pi) ~src ~dst /. 2.

(* {2 Multi-vector fused products}

   Advance a whole batch of distribution vectors through one traversal
   of the matrix.  The matrix is the dominant memory traffic of a fused
   step (nnz column indices + values versus a handful of dense vectors),
   so amortizing its read over B vectors is close to a Bx reduction in
   traffic — the win the batched mixing sweeps in {!Exact} are built on.

   Bit-identity with the single-vector path is preserved per vector: a
   contribution [src.(row) * v] is added to [dst.(j)] if and only if
   [src.(row) <> 0.] (the same skip {!seq_spmv} performs), and each
   [dst.(j)] accumulates over rows in increasing global row order —
   exactly the single-vector summation order.  The fused statistic is
   likewise accumulated per column chunk and reduced in chunk order
   independently for every vector, so
   [step_tv_multi k ~pi ~srcs ~dsts] returns exactly the values the B
   separate [step_tv] calls would. *)

(* Sequential batched scatter.  The row's entries are the innermost
   loop, replayed once per vector with the source value and destination
   array in registers: a row (a few hundred bytes of CSR data) is pulled
   from the block once and re-read from L1 by the remaining B-1 vectors,
   which is where the traffic amortization comes from.  Entry-innermost
   ordering (one pass over the row updating all B vectors per entry)
   measures slower: it pays an [rv] load, a branch and a [dsts.(b)]
   indirection per (entry, vector) while saving only L1-hot re-reads. *)
let seq_spmv_multi t ~srcs ~dsts ~nb =
  for b = 0 to nb - 1 do
    Array.fill dsts.(b) 0 t.cols 0.
  done;
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
  done

(* Batched worker slice: the column-owner-computes split of
   {!slice_spmv}, with the same vector-outermost replay of each row's
   owned entry range as {!seq_spmv_multi}.  [any] gates the binary
   search to [j0] (one per row, shared by the batch); the per-vector
   scan then walks the L1-hot entries until it leaves the owned
   column range. *)
let slice_spmv_multi mat ~srcs ~dsts ~nb ~j0 ~j1 =
  for b = 0 to nb - 1 do
    Array.fill dsts.(b) j0 (j1 - j0) 0.
  done;
  Array.iteri
    (fun blk st ->
      match st with
      | Disk _ -> assert false
      | Mem s ->
          let row0 = blk * mat.block_rows in
          let rp = s.row_ptr and ci = s.col_idx and vs = s.values in
          let nrows = Array.length rp - 1 in
          for r = 0 to nrows - 1 do
            let row = row0 + r in
            let any = ref false in
            for b = 0 to nb - 1 do
              if Array.unsafe_get (Array.unsafe_get srcs b) row <> 0. then
                any := true
            done;
            if !any then begin
              let kend = Array.unsafe_get rp (r + 1) in
              let lo = ref (Array.unsafe_get rp r) and hi = ref kend in
              if j0 > 0 then
                while !lo < !hi do
                  let mid = (!lo + !hi) / 2 in
                  if Array.unsafe_get ci mid < j0 then lo := mid + 1
                  else hi := mid
                done;
              let k0 = !lo in
              for b = 0 to nb - 1 do
                let sv = Array.unsafe_get (Array.unsafe_get srcs b) row in
                if sv <> 0. then begin
                  let d = Array.unsafe_get dsts b in
                  let k = ref k0 in
                  let continue_ = ref (k0 < kend) in
                  while !continue_ do
                    let j = Array.unsafe_get ci !k in
                    if j >= j1 then continue_ := false
                    else begin
                      Array.unsafe_set d j
                        (Array.unsafe_get d j
                        +. (sv *. Array.unsafe_get vs !k));
                      incr k;
                      if !k >= kend then continue_ := false
                    end
                  done
                end
              done
            end
          done)
    mat.blocks

let step_tv_multi k ~pi ~srcs ~dsts =
  let mat = k.mat in
  let nb = Array.length srcs in
  if Array.length dsts <> nb then
    invalid_arg "Blocked_csr.step_tv_multi: srcs/dsts length mismatch";
  if nb = 0 then [||]
  else if nb = 1 then [| step_tv k ~pi ~src:srcs.(0) ~dst:dsts.(0) |]
  else begin
    for b = 0 to nb - 1 do
      if Array.length srcs.(b) <> mat.rows || Array.length dsts.(b) <> mat.cols
      then invalid_arg "Blocked_csr.spmv: dimension mismatch"
    done;
    Obs.Counter.incr spmv_counter;
    (* Per-chunk, per-vector partials: chunk c of vector b lives at
       [c * nb + b], written by the (unique) worker owning chunk c. *)
    let chunk_stat = Array.make (k.nchunks * nb) 0. in
    let stat = Tv pi in
    let stat_chunks ~c0 ~c1 =
      for c = c0 to c1 - 1 do
        let j0, j1 = chunk_bounds mat c in
        for b = 0 to nb - 1 do
          chunk_stat.((c * nb) + b) <-
            chunk_stat_value ~stat ~src:srcs.(b) ~dst:dsts.(b) ~j0 ~j1
        done
      done
    in
    (match k.pool with
    | None ->
        seq_spmv_multi mat ~srcs ~dsts ~nb;
        stat_chunks ~c0:0 ~c1:k.nchunks
    | Some pool ->
        Parallel.Pool.run pool (fun w _ ->
            let c0 = k.ranges.(w) and c1 = k.ranges.(w + 1) in
            if c1 > c0 then begin
              let j0 = c0 * chunk_cols
              and j1 = Stdlib.min mat.cols (c1 * chunk_cols) in
              slice_spmv_multi mat ~srcs ~dsts ~nb ~j0 ~j1;
              stat_chunks ~c0 ~c1
            end));
    let totals = Array.make nb 0. in
    for c = 0 to k.nchunks - 1 do
      for b = 0 to nb - 1 do
        totals.(b) <- totals.(b) +. chunk_stat.((c * nb) + b)
      done
    done;
    Array.map (fun s -> s /. 2.) totals
  end
