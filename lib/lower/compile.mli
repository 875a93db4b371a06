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
    counter, so a leaf reads its address with one load.  A fused
    chain — loops each with exactly one loop as body, ending in
    constant [Init]s and [+=]s of a product of two affine loads (one
    statement or a flattened unrolled block) — runs as one closure of
    native [for] loops that steps every address itself; a lone [+=]
    accumulates in a register when its output address does not move
    in the innermost loop and its value does not read the output.
    [bind] proves each fused access in range over the box of its
    enclosing loops and stages only fully proven chains, with
    unchecked accesses; every other loop keeps bounds-checked
    closures.  Float operations keep the reference's order — results
    are bit-for-bit equal to {!Exec.run} (0 ulp).

    The thunk is single-threaded and captures buffers eagerly: rebind
    after replacing any tensor with [Buffer_env.set].  Re-running a
    thunk is idempotent (init nests re-zero accumulators), which is
    what repeated timing needs. *)

type t

(** Unroll-expansion budget: an [Unrolled] loop whose flattening would
    exceed this many statements degrades to [Serial] instead.  Also a
    threshold of {!Sandbox.measurer}'s pre-flight guard. *)
val max_unrolled_stmts : int

(** Flatten and fold; raises nothing, performs no allocation of
    tensors. *)
val compile : Loopnest.program -> t

(** Allocate outputs, resolve buffers, stage the program.  Raises
    [Invalid_argument] (naming the tensor) when an input is unbound or
    a rank mismatches. *)
val bind : t -> Ft_interp.Buffer_env.t -> unit -> unit

(** Statement count after unroll flattening.  Only [test_compile]
    reads it: the compiled body is abstract, so the flattening cannot
    be counted any other way. *)
val stmt_count : t -> int

(** The number of fused chains {!bind} stages with unchecked accesses
    when binding into this environment (allocating outputs as {!bind}
    does).  Only [test_compile] reads it: a proven chain and a checked
    loop give the same bits, so which one ran cannot be seen any other
    way. *)
val fused_chains : t -> Ft_interp.Buffer_env.t -> int
