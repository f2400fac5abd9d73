(** Blocked CSR transition-matrix store with streaming builds, optional
    disk spill, and deterministic block-parallel kernels.

    The matrix is cut into fixed row-range blocks, each a compact CSR
    shard.  Shards either stay in memory or append to a disk-backed
    block file (format ["repro.blocked-csr/1"]) as soon as their row
    range completes, so the builder's working set is one block and
    builds larger than RAM finish.  Rows are fed one at a time in index
    order — exactly what a BFS enumeration produces, since state [i]'s
    row is fully determined when [i] is dequeued.

    Kernels compute [dst ← src · P], optionally fused with an L1
    statistic (power-iteration residual, TV distance to π).  With a
    {!Parallel.Pool} the product is block-parallel with a
    column-owner-computes split whose results — including the fused
    statistics — are bit-identical to the sequential path for any
    domain count. *)

type t

val rows : t -> int
val cols : t -> int
val nnz : t -> int

val block_rows : t -> int
(** Rows per block (the last block may be shorter). *)

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
    each completed block is appended to [path] and dropped from memory;
    the file is finalized (footer + trailer) by {!finish}.
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
    @raise Failure on a truncated or corrupt file.
    @raise Sys_error if the file cannot be read. *)

(** {1 Queries} *)

val row_sums : t -> float array
val is_stochastic : ?tol:float -> t -> bool

(** {1 Kernels} *)

type kernel
(** A matrix prepared for repeated products: owns the column-chunk
    partition, the per-worker ranges (balanced by per-chunk nnz) and the
    fused-statistic scratch. *)

val kernel : ?pool:Parallel.Pool.t -> t -> kernel
(** Prepare [t] for repeated products.  The pool is used only when its
    size exceeds 1 and every shard is in memory; disk-backed matrices
    always stream sequentially (one shard resident at a time). *)

val spmv : kernel -> src:float array -> dst:float array -> unit
(** [dst ← src · P].  Bit-identical for any pool size.
    @raise Invalid_argument on dimension mismatch. *)

val step_l1 : kernel -> src:float array -> dst:float array -> float
(** Fused power-iteration step: [dst ← src · P], returning
    [‖dst − src‖₁].  The statistic is accumulated per fixed-width column
    chunk and reduced in chunk order, so it too is identical for any
    pool size. *)

val step_tv :
  kernel -> pi:float array -> src:float array -> dst:float array -> float
(** Fused evolution step: [dst ← src · P], returning
    [½ ‖dst − pi‖₁] — the TV distance driving mixing searches. *)

val step_tv_multi :
  kernel ->
  pi:float array ->
  srcs:float array array ->
  dsts:float array array ->
  float array
(** Batched fused evolution step: [dsts.(b) ← srcs.(b) · P] for every
    vector of the batch in {e one} traversal of the matrix, returning
    the per-vector TV distances [½ ‖dsts.(b) − pi‖₁].  The matrix —
    indices plus values — dominates the memory traffic of a fused step,
    so a batch of B vectors costs close to one single-vector product
    instead of B; disk-backed matrices are streamed once per batch
    instead of once per vector.  Every [dsts.(b)] and every returned
    statistic is bit-identical to the corresponding single-vector
    {!step_tv} call (same contribution skips, same per-entry summation
    order, same chunk-order reduction), for any pool size.  See
    [DESIGN.md], "The representation layer".
    @raise Invalid_argument if [srcs] and [dsts] differ in length or any
    vector has the wrong dimension. *)
