(** Staged compilation of lowered loop nests into OCaml closures over
    flat float64 Bigarray buffers — the measurement backend.

    [compile] is a pure pass: it flattens [Unrolled] loops by constant
    substitution, constant-folds indices (Euclidean div/mod), and
    keeps the loop nest otherwise intact.  [bind] resolves tensors in
    a buffer environment (allocating the program's outputs, exactly
    like {!Exec.run}), linearizes every affine multi-index into one
    flat [base + Σ stride·var] address against the buffer's row-major
    strides, and stages the whole program into a reusable thunk.
    Each affine access owns an address cell in one shared [int array]
    beside the loop counters; a loop steps the cells that use its
    counter, so a leaf reads its address with one load.  A loop whose
    body is one constant [Init] or one [+=] of a product of two affine
    loads runs as one native [for] (accumulating in a register when
    the output address is loop-invariant).  Float operations keep the
    reference's order — results are bit-for-bit equal to {!Exec.run}
    (0 ulp).

    The thunk is single-threaded and captures buffers eagerly: rebind
    after replacing any tensor with [Buffer_env.set].  Re-running a
    thunk is idempotent (init nests re-zero accumulators), which is
    what repeated timing needs. *)

type t

(** Unroll-expansion budget: an [Unrolled] loop whose flattening would
    exceed this many statements degrades to [Serial] instead.  Also a
    {!Sandbox.preflight} threshold. *)
val max_unrolled_stmts : int

(** Flatten and fold; raises nothing, performs no allocation of
    tensors. *)
val compile : Loopnest.program -> t

(** Allocate outputs, resolve buffers, stage the program.  Raises
    [Invalid_argument] (naming the tensor) when an input is unbound or
    a rank mismatches. *)
val bind : t -> Ft_interp.Buffer_env.t -> unit -> unit

(** [run t env] = [bind t env ()]. *)
val run : t -> Ft_interp.Buffer_env.t -> unit

val source : t -> string

(** Statement count after unroll flattening. *)
val stmt_count : t -> int
