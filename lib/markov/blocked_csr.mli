(** Blocked CSR transition-matrix store with streaming builds, optional
    disk spill, and fused sequential kernels.

    The matrix is cut into fixed row-range blocks, each a compact CSR
    shard.  Shards either stay in memory or append to a disk-backed
    block file (format ["repro.blocked-csr/1"]) as soon as their row
    range completes, so the builder's working set is one block and
    builds larger than RAM finish.  Rows are fed one at a time in index
    order — exactly what a BFS enumeration produces, since state [i]'s
    row is fully determined when [i] is dequeued.

    Kernels compute [dst ← src · P], optionally fused with an L1
    statistic (power-iteration residual, TV distance to π), in one
    row-major pass over the blocks.  Each [dst.(j)] accumulates over
    rows in increasing row order, and the statistic is summed per
    1024-column chunk and then across chunks in chunk order, so every
    result is a function of the matrix and the inputs alone, whatever
    the block size.  A kernel holds no mutable state: on an in-memory
    store one kernel serves products running on any number of domains
    at once. *)

type t

val rows : t -> int
val cols : t -> int
val nnz : t -> int
val block_count : t -> int

val path : t -> string option
(** The backing block file, when the matrix was spilled or opened from
    disk. *)

val in_memory : t -> bool
(** Whether every shard is resident.  Disk-backed matrices stream
    through one shared channel and are not safe to read from several
    domains at once. *)

val close : t -> unit
(** Close the backing file, if any.  The matrix must not be used
    afterwards unless it is fully in memory. *)

(** {1 Streaming builds} *)

type builder

val builder : ?block_rows:int -> ?spill:string -> unit -> builder
(** A fresh builder (default [block_rows = 4096]).  With [~spill:path],
    each completed block is appended to [path] (created at once) and
    dropped from memory; {!finish} writes the footer and trailer.
    @raise Invalid_argument if [block_rows < 1]. *)

val add_row : builder -> (int * float) list -> unit
(** Append the next row.  Entries are sorted by column, duplicate
    columns merged, exact zeros dropped, so {!nnz} counts structural
    non-zeros only.  Column bounds are checked at {!finish}, when the
    final column count is known.
    @raise Invalid_argument on a negative column index. *)

val finish : builder -> cols:int -> t
(** Seal the matrix with [cols] columns.
    @raise Invalid_argument if no rows were added, or if any recorded
    column index is [>= cols]. *)

val open_file : string -> t
(** Reopen a spilled block file.  Validates the trailer magic, so a
    file from a killed build (no trailer yet) is rejected.
    @raise Common.Codec.Error on a truncated or corrupt file.
    @raise Sys_error if the file cannot be read. *)

(** {1 Queries} *)

val row_sums : t -> float array
val is_stochastic : ?tol:float -> t -> bool

val digest : t -> int
(** A hash of the whole matrix — its shape and, row by row, each
    entry's column index and value bits — in one O(nnz) pass (a spilled
    store streams from disk).  Matrices equal entry for entry, bit for
    bit, share it whatever their block size or spill; a checkpoint
    records it to refuse a resume on a different chain of the same
    shape. *)

(** {1 Kernels} *)

type kernel
(** A matrix prepared for repeated products.  It holds no mutable
    state, so on an in-memory matrix one kernel serves every caller on
    every domain. *)

val kernel : t -> kernel
(** Prepare [t] for repeated products.  Disk-backed matrices stream one
    shard at a time through their shared channel, so their products
    must not run on several domains at once (see {!in_memory}). *)

val spmv : kernel -> src:float array -> dst:float array -> unit
(** [dst ← src · P].
    @raise Invalid_argument on dimension mismatch. *)

val step_l1 : kernel -> src:float array -> dst:float array -> float
(** Fused power-iteration step: [dst ← src · P], returning
    [‖dst − src‖₁], summed per fixed-width column chunk and then across
    chunks in chunk order.
    @raise Invalid_argument if the matrix is not square, or on
    dimension mismatch. *)

val step_tv :
  kernel -> pi:float array -> src:float array -> dst:float array -> float
(** Fused evolution step: [dst ← src · P], returning
    [½ ‖dst − pi‖₁] — the TV distance driving mixing searches.
    @raise Invalid_argument if [pi], [src] or [dst] has the wrong
    dimension. *)

val step_tv_multi :
  kernel ->
  pi:float array ->
  srcs:float array array ->
  dsts:float array array ->
  float array
(** Batched fused evolution step: [dsts.(b) ← srcs.(b) · P] for every
    vector of the batch in {e one} traversal of the matrix, returning
    the per-vector TV distances [½ ‖dsts.(b) − pi‖₁].  On a disk-backed
    matrix the blocks stream from disk once per batch instead of once
    per vector, which is what the batch is for: batches of B = 4, 8, 16
    ran 3.3–3.8×, 4.5–5.3× and 6.7–7.4× faster than B separate
    {!step_tv} calls on a spilled 5,604-state chain.  In memory a row's
    entries stay in L1 for the whole batch either way: a batch of 8 ran
    at 0.72–1.18× the speed of its 8 separate calls on chains of 77 to
    12,310 states.  Every [dsts.(b)] and every returned statistic is
    bit-identical to the corresponding single-vector {!step_tv} call
    (same contribution skips, same per-entry summation order, same
    chunk-order reduction).  See [DESIGN.md], "The representation
    layer".
    @raise Invalid_argument if [srcs] and [dsts] differ in length, or
    [pi] or any vector has the wrong dimension. *)
