(* Staged compilation of lowered programs into OCaml closures.

   [Exec] is the reference semantics: a tree walk with assoc-list
   variable bindings and a per-element [List.map] index allocation —
   orders of magnitude too slow to time anything.  This pass removes
   every per-element allocation and name lookup from the hot path:

   - [Unrolled] loops are flattened at compile time by substituting
     the constant counter into their bodies; constant folding
     ({!Ft_ir.Expr.fold_iexpr}) then collapses the BCM/shift-style
     div/mod indices the substitution exposes.
   - Every multi-index whose dimensions are affine
     ({!Ft_ir.Expr.affine_of_iexpr}) is linearized against the
     buffer's row-major strides into [base + Σ coeff·counter] and
     gets an address cell: a slot of the thunk's shared [int array],
     after the loop counters, holding its current flat address.  Each
     loop reads at entry the cells whose address uses its counter,
     sets them to [start + coeff·i] per iteration and restores them
     on exit, so a leaf reads its address with one load.  Non-affine
     indices (variable div/mod) fall back to compiled tree evaluation
     with per-dimension bounds checks over the counters.
   - A fused chain is a maximal run of loops, each with exactly one
     loop as its body, ending in a body of fusible statements: a
     constant [Init] or a [+=] of a product of two affine loads, one
     statement or a flattened unrolled block.  It runs as one closure
     of native [for] loops that steps every address itself, so no
     counter or cell is written inside it: a lone statement passes
     its addresses down the outer levels as arguments and runs the
     two innermost as one native double loop; a block steps a scratch
     address array.  Its statements run in program order each
     iteration; a lone [+=] accumulates in a register when its output
     address does not move in the innermost loop and its value does
     not read the output.  No loop is interchanged and nothing is
     jammed: loads, stores and float operations happen in the
     reference's order, so results are bit-for-bit those of {!Exec}
     and the measured time is the schedule's.
   - [bind] proves each fused access in range over the whole box of
     its enclosing loops (every counter in [0, extent - 1]): an affine
     address is in [0, dim) everywhere in the box when
     [base + Σ min(0, coeff·(extent - 1))] is at least 0 and
     [base + Σ max(0, coeff·(extent - 1))] is below [dim].  Only a
     chain whose every access is proven is staged, with unchecked
     Bigarray accesses; any other loop runs the checked closures, so
     an out-of-range program raises the Bigarray [Invalid_argument]
     after the same writes as before.

   Buffers are the flat float64 Bigarrays of {!Ft_interp.Buffer_env};
   checked affine accesses rely on the Bigarray flat bounds check (a
   schedule that Verify accepts never goes out of bounds per
   dimension).

   The staged thunk is single-threaded (counters and cells live in
   one shared array, each fused block steps its own scratch address
   array) and captures buffers eagerly: rebind after any
   [Buffer_env.set] that replaces a tensor.  Re-running a thunk is
   idempotent — the lowered init nests re-zero accumulators. *)

open Ft_ir

type vec = Ft_interp.Buffer_env.vec

type t = {
  allocs : (string * int list) list;
  body : Loopnest.stmt list;  (* unroll-flattened, constant-folded *)
  slots : int;  (* loop counters (max nesting depth); cells follow *)
}

let stmt_count t = Loopnest.count_stmts t.body

(* -- Unroll flattening and constant folding ------------------------- *)

let rec fold_cond = function
  | Expr.Ge (a, b) -> Expr.Ge (Expr.fold_iexpr a, Expr.fold_iexpr b)
  | Expr.Lt (a, b) -> Expr.Lt (Expr.fold_iexpr a, Expr.fold_iexpr b)
  | Expr.Eq (a, b) -> Expr.Eq (Expr.fold_iexpr a, Expr.fold_iexpr b)
  | Expr.And (a, b) -> Expr.And (fold_cond a, fold_cond b)

let rec fold_texpr = function
  | Expr.Access (tensor, indices) ->
      Expr.Access (tensor, List.map Expr.fold_iexpr indices)
  | Expr.Const x -> Expr.Const x
  | Expr.Add (a, b) -> Expr.Add (fold_texpr a, fold_texpr b)
  | Expr.Sub (a, b) -> Expr.Sub (fold_texpr a, fold_texpr b)
  | Expr.Mul (a, b) -> Expr.Mul (fold_texpr a, fold_texpr b)
  | Expr.Select (c, a, b) -> Expr.Select (fold_cond c, fold_texpr a, fold_texpr b)

let subst_fold_iexpr env e = Expr.fold_iexpr (Expr.subst_iexpr env e)

let rec subst_stmt env = function
  | Loopnest.Loop l ->
      (* An inner loop re-binding the substituted name shadows it. *)
      let env = List.filter (fun (v, _) -> v <> l.var) env in
      Loopnest.Loop { l with body = List.map (subst_stmt env) l.body }
  | Loopnest.Init i ->
      Loopnest.Init { i with indices = List.map (subst_fold_iexpr env) i.indices }
  | Loopnest.Accum a ->
      Loopnest.Accum
        {
          a with
          indices = List.map (subst_fold_iexpr env) a.indices;
          value = fold_texpr (Expr.subst_texpr env a.value);
        }
  | Loopnest.Assign a ->
      Loopnest.Assign
        {
          a with
          indices = List.map (subst_fold_iexpr env) a.indices;
          value = fold_texpr (Expr.subst_texpr env a.value);
        }

(* Flattening an unrolled loop duplicates its body [extent] times; cap
   the blowup so a pathological schedule degrades to a serial loop
   instead of exhausting memory. *)
let max_unrolled_stmts = 4096

let rec flatten_stmt = function
  | Loopnest.Loop ({ extent = 1; _ } as l) ->
      (* A trip-count-1 loop only binds its variable to 0; substitute
         and drop the level, whatever its binding. *)
      let body = List.concat_map flatten_stmt l.body in
      List.map (subst_stmt [ (l.var, Expr.Iconst 0) ]) body
  | Loopnest.Loop ({ binding = Loopnest.Unrolled; _ } as l) ->
      let body = List.concat_map flatten_stmt l.body in
      if l.extent * Loopnest.count_stmts body > max_unrolled_stmts then
        [ Loopnest.Loop { l with binding = Loopnest.Serial; body } ]
      else
        List.concat
          (List.init l.extent (fun i ->
               List.map (subst_stmt [ (l.var, Expr.Iconst i) ]) body))
  | Loopnest.Loop l ->
      [ Loopnest.Loop { l with body = List.concat_map flatten_stmt l.body } ]
  | (Loopnest.Init _ | Loopnest.Accum _ | Loopnest.Assign _) as s ->
      [ subst_stmt [] s ]

let compile (program : Loopnest.program) =
  let body = List.concat_map flatten_stmt program.body in
  {
    allocs = program.allocs;
    body;
    slots = max 1 (Loopnest.max_depth body);
  }

(* -- Staging -------------------------------------------------------- *)

type buf = { data : vec; dims : int array; strides : int array }

(* A linearized affine access: [(base, [(slot, coeff)])]. *)
type lin = int * (int * int) list

(* One [bind]'s staging state: the extent of the loop at each slot
   enclosing the statement being staged, the cells allocated so far
   (after the [slots] counters), their bases, each (cell, slot, coeff)
   term that the loop at [slot] maintains, newest cell first, and the
   number of fused chains staged. *)
type stage = {
  resolve : string -> buf;
  extents : int array;
  mutable next_cell : int;
  mutable bases : (int * int) list;  (* (cell, base) *)
  mutable terms : (int * int * int) list;
  mutable chains : int;
}

type addr = Cell of int | Dynamic of (int array -> int)

let slot_of cenv var =
  match List.assoc_opt var cenv with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Compile: unbound index variable %s" var)

let rec compile_iexpr cenv : Expr.iexpr -> int array -> int = function
  | Expr.Ivar var ->
      let s = slot_of cenv var in
      fun vars -> vars.(s)
  | Expr.Iconst n -> fun _ -> n
  | Expr.Iadd (a, b) ->
      let fa = compile_iexpr cenv a and fb = compile_iexpr cenv b in
      fun vars -> fa vars + fb vars
  | Expr.Isub (a, b) ->
      let fa = compile_iexpr cenv a and fb = compile_iexpr cenv b in
      fun vars -> fa vars - fb vars
  | Expr.Imul (a, b) ->
      let fa = compile_iexpr cenv a and fb = compile_iexpr cenv b in
      fun vars -> fa vars * fb vars
  | Expr.Idiv (a, b) ->
      let fa = compile_iexpr cenv a and fb = compile_iexpr cenv b in
      fun vars -> Expr.euclid_div (fa vars) (fb vars)
  | Expr.Imod (a, b) ->
      let fa = compile_iexpr cenv a and fb = compile_iexpr cenv b in
      fun vars -> Expr.euclid_mod (fa vars) (fb vars)

(* Non-affine fallback: per-dimension closures with the same bounds
   semantics as [Buffer_env.flat_index]. *)
let dynamic_addr cenv tensor buf indices =
  let fns = Array.of_list (List.map (compile_iexpr cenv) indices) in
  fun vars ->
    let acc = ref 0 in
    for d = 0 to Array.length fns - 1 do
      let i = fns.(d) vars in
      if i < 0 || i >= buf.dims.(d) then
        invalid_arg
          (Printf.sprintf
             "Buffer_env.flat_index: %s index %d out of bounds [0, %d)" tensor
             i buf.dims.(d));
      acc := (!acc * buf.dims.(d)) + i
    done;
    !acc

(* [Some (base, [(slot, coeff)])] when every dimension is affine:
   flat = Σ_d stride_d · affine_d against the row-major strides. *)
let linearize cenv tensor buf indices : lin option =
  if List.length indices <> Array.length buf.dims then
    invalid_arg
      (Printf.sprintf "Buffer_env.flat_index: %s rank mismatch" tensor);
  let affine_dims = List.map Expr.affine_of_iexpr indices in
  if List.for_all Option.is_some affine_dims then
    let flat =
      List.fold_left2
        (fun acc a stride ->
          Expr.affine_add acc (Expr.affine_scale stride (Option.get a)))
        (Expr.affine_const 0) affine_dims (Array.to_list buf.strides)
    in
    Some
      (flat.Expr.base, List.map (fun (v, k) -> (slot_of cenv v, k)) flat.Expr.terms)
  else None

let new_cell st ((base, terms) : lin) =
  let c = st.next_cell in
  st.next_cell <- c + 1;
  st.bases <- (c, base) :: st.bases;
  st.terms <- List.map (fun (s, k) -> (c, s, k)) terms @ st.terms;
  c

let addr_of_access st cenv tensor buf indices =
  match linearize cenv tensor buf indices with
  | Some lin -> Cell (new_cell st lin)
  | None -> Dynamic (dynamic_addr cenv tensor buf indices)

let addr_fn = function Cell c -> fun vars -> vars.(c) | Dynamic fn -> fn

let rec compile_cond cenv : Expr.cond -> int array -> bool = function
  | Expr.Ge (a, b) ->
      let fa = compile_iexpr cenv a and fb = compile_iexpr cenv b in
      fun vars -> fa vars >= fb vars
  | Expr.Lt (a, b) ->
      let fa = compile_iexpr cenv a and fb = compile_iexpr cenv b in
      fun vars -> fa vars < fb vars
  | Expr.Eq (a, b) ->
      let fa = compile_iexpr cenv a and fb = compile_iexpr cenv b in
      fun vars -> fa vars = fb vars
  | Expr.And (a, b) ->
      let fa = compile_cond cenv a and fb = compile_cond cenv b in
      fun vars -> fa vars && fb vars

let rec compile_texpr st cenv : Expr.texpr -> int array -> float = function
  | Expr.Access (tensor, indices) -> (
      let buf = st.resolve tensor in
      let data : vec = buf.data in
      match addr_of_access st cenv tensor buf indices with
      | Cell c -> fun vars -> Bigarray.Array1.get data vars.(c)
      | Dynamic fn -> fun vars -> Bigarray.Array1.get data (fn vars))
  | Expr.Const x -> fun _ -> x
  | Expr.Add (a, b) ->
      let fa = compile_texpr st cenv a and fb = compile_texpr st cenv b in
      fun vars -> fa vars +. fb vars
  | Expr.Sub (a, b) ->
      let fa = compile_texpr st cenv a and fb = compile_texpr st cenv b in
      fun vars -> fa vars -. fb vars
  | Expr.Mul (a, b) ->
      let fa = compile_texpr st cenv a and fb = compile_texpr st cenv b in
      fun vars -> fa vars *. fb vars
  | Expr.Select (c, a, b) ->
      (* Branch closures run only when taken, preserving the lazy
         padding semantics of the reference evaluator. *)
      let fc = compile_cond cenv c in
      let fa = compile_texpr st cenv a and fb = compile_texpr st cenv b in
      fun vars -> if fc vars then fa vars else fb vars

(* -- Fused chains (see the header) ---------------------------------- *)

(* A fusible statement as [(value, self, accesses)]: a constant store
   ([Some value]) or a [+=] of a product of two loads ([None]; [self]
   when a load reads the output tensor), with three linearized
   accesses: the output, then the two loads.  A store's loads are its
   output again and are never read, so every statement has three
   addresses.  Resolves and linearizes in [compile_stmt]'s order, so a
   missing tensor or a rank mismatch raises the same error either
   way. *)
let fusible st cenv stmt =
  let access tensor indices =
    let buf = st.resolve tensor in
    Option.map (fun l -> (buf.data, l)) (linearize cenv tensor buf indices)
  in
  match stmt with
  | Loopnest.Init { tensor; indices; value } ->
      Option.map (fun o -> (Some value, false, [| o; o; o |])) (access tensor indices)
  | Loopnest.Accum
      {
        tensor;
        indices;
        combine = Op.Acc_sum;
        value = Expr.Mul (Expr.Access (ta, ia), Expr.Access (tb, ib));
      } -> (
      let o = access tensor indices in
      let a = access ta ia in
      let b = access tb ib in
      match (o, a, b) with
      | Some o, Some a, Some b ->
          Some (None, ta = tensor || tb = tensor, [| o; a; b |])
      | _ -> None)
  | _ -> None

(* The bind-time range proof of one access over the box of its
   enclosing loops. *)
let proven st ((data : vec), ((base, terms) : lin)) =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) (s, k) ->
        let r = k * (st.extents.(s) - 1) in
        (lo + min 0 r, hi + max 0 r))
      (base, base) terms
  in
  lo >= 0 && hi < Bigarray.Array1.dim data

(* A lone statement: a recursion over the chain's outer levels passes
   its three addresses down as arguments, and one native double loop
   runs the two innermost levels ([ext] has at least two; [ks.(l)]
   holds the three strides at level [l]). *)
let lone ext (ks : int array array) cells (value, self, acc) =
  let open Bigarray.Array1 in
  let (out : vec), _ = acc.(0) and (x : vec), _ = acc.(1)
  and (y : vec), _ = acc.(2) in
  let last = Array.length ext - 2 in
  let e1 = ext.(last) and e0 = ext.(last + 1) in
  let ko1 = ks.(last).(0) and ka1 = ks.(last).(1) and kb1 = ks.(last).(2) in
  let ko0 = ks.(last + 1).(0) and ka0 = ks.(last + 1).(1)
  and kb0 = ks.(last + 1).(2) in
  let leaf =
    match value with
    | Some value ->
        fun o _ _ ->
          for i = 0 to e1 - 1 do
            let o = ref (o + (ko1 * i)) in
            for _ = 1 to e0 do
              unsafe_set out !o value;
              o := !o + ko0
            done
          done
    | None when ko0 = 0 && not self ->
        fun o a b ->
          for i = 0 to e1 - 1 do
            let at = o + (ko1 * i) in
            let a = ref (a + (ka1 * i)) and b = ref (b + (kb1 * i)) in
            let sum = ref (unsafe_get out at) in
            for _ = 1 to e0 do
              sum := !sum +. (unsafe_get x !a *. unsafe_get y !b);
              a := !a + ka0;
              b := !b + kb0
            done;
            unsafe_set out at !sum
          done
    | None ->
        fun o a b ->
          for i = 0 to e1 - 1 do
            let o = ref (o + (ko1 * i)) in
            let a = ref (a + (ka1 * i)) and b = ref (b + (kb1 * i)) in
            for _ = 1 to e0 do
              let at = !o in
              unsafe_set out at
                (unsafe_get out at +. (unsafe_get x !a *. unsafe_get y !b));
              o := at + ko0;
              a := !a + ka0;
              b := !b + kb0
            done
          done
  in
  let rec nest l o a b =
    if l = last then leaf o a b
    else
      let k = ks.(l) in
      for i = 0 to ext.(l) - 1 do
        nest (l + 1) (o + (k.(0) * i)) (a + (k.(1) * i)) (b + (k.(2) * i))
      done
  in
  let co = cells.(0) and ca = cells.(1) and cb = cells.(2) in
  fun vars -> nest 0 vars.(co) vars.(ca) vars.(cb)

(* A block: the outer levels step the addresses in [cur] (statement
   [j]'s at [3j]), and the innermost level runs every statement in
   program order each iteration. *)
let block ext (ks : int array array) cells stmts =
  let open Bigarray.Array1 in
  let values = Array.of_list (List.map (fun (v, _, _) -> v) stmts) in
  let bufs : vec array =
    Array.concat (List.map (fun (_, _, acc) -> Array.map fst acc) stmts)
  in
  let n = Array.length bufs and last = Array.length ext - 1 in
  let cur = Array.make n 0 and k = ks.(last) in
  let leaf () =
    for i = 0 to ext.(last) - 1 do
      for j = 0 to Array.length values - 1 do
        let s = 3 * j in
        let out = bufs.(s) and at = cur.(s) + (k.(s) * i) in
        match values.(j) with
        | Some value -> unsafe_set out at value
        | None ->
            unsafe_set out at
              (unsafe_get out at
              +. unsafe_get bufs.(s + 1) (cur.(s + 1) + (k.(s + 1) * i))
                 *. unsafe_get bufs.(s + 2) (cur.(s + 2) + (k.(s + 2) * i)))
      done
    done
  in
  let rec nest l =
    if l = last then leaf ()
    else begin
      let e = ext.(l) and k = ks.(l) in
      for _ = 1 to e do
        nest (l + 1);
        for a = 0 to n - 1 do cur.(a) <- cur.(a) + k.(a) done
      done;
      for a = 0 to n - 1 do cur.(a) <- cur.(a) - (e * k.(a)) done
    end
  in
  fun vars ->
    for a = 0 to n - 1 do cur.(a) <- vars.(cells.(a)) done;
    nest 0

(* The loop at [depth] as a fused chain, or [None] when it does not
   head one or an access is not proven.  Each address owns a cell
   holding it at chain entry (every chain counter 0), stepped by the
   loops around the chain; the chain steps it further itself. *)
let fused_chain st cenv depth extent body =
  let rec descend cenv d extents = function
    | [ Loopnest.Loop { var; extent; body; _ } ] ->
        st.extents.(d) <- extent;
        descend ((var, d) :: cenv) (d + 1) (extent :: extents) body
    | body -> (cenv, Array.of_list (List.rev extents), body)
  in
  let cenv, ext, body = descend cenv (depth + 1) [ extent ] body in
  let rec fuse acc = function
    | [] -> Some (List.rev acc)
    | s :: rest -> Option.bind (fusible st cenv s) (fun f -> fuse (f :: acc) rest)
  in
  match fuse [] body with
  | Some (_ :: _ as stmts)
    when List.for_all (fun (_, _, acc) -> Array.for_all (proven st) acc) stmts
    ->
      st.chains <- st.chains + 1;
      let accesses = Array.concat (List.map (fun (_, _, acc) -> acc) stmts) in
      let cells =
        Array.map
          (fun (_, (base, terms)) ->
            new_cell st (base, List.filter (fun (s, _) -> s < depth) terms))
          accesses
      in
      let ks =
        Array.mapi
          (fun l _ ->
            Array.map
              (fun (_, (_, terms)) ->
                Option.value (List.assoc_opt (depth + l) terms) ~default:0)
              accesses)
          ext
      in
      Some
        (match stmts with
        | [ stmt ] when Array.length ext = 1 ->
            lone [| 1; extent |] [| [| 0; 0; 0 |]; ks.(0) |] cells stmt
        | [ stmt ] -> lone ext ks cells stmt
        | stmts -> block ext ks cells stmts)
  | _ -> None

let rec compile_stmt st cenv depth : Loopnest.stmt -> int array -> unit =
  function
  | Loopnest.Loop { var; extent; body; _ } -> (
      st.extents.(depth) <- extent;
      let cenv = (var, depth) :: cenv in
      match fused_chain st cenv depth extent body with
      | Some f -> f
      | None -> compile_loop st cenv depth extent body)
  | Loopnest.Init { tensor; indices; value } ->
      let buf = st.resolve tensor in
      let afn = addr_fn (addr_of_access st cenv tensor buf indices) in
      let data : vec = buf.data in
      fun vars -> Bigarray.Array1.set data (afn vars) value
  | Loopnest.Accum { tensor; indices; combine; value } -> (
      let buf = st.resolve tensor in
      let afn = addr_fn (addr_of_access st cenv tensor buf indices) in
      let vfn = compile_texpr st cenv value in
      let data : vec = buf.data in
      match combine with
      | Op.Acc_sum ->
          fun vars ->
            let at = afn vars in
            Bigarray.Array1.set data at (Bigarray.Array1.get data at +. vfn vars)
      | Op.Acc_max ->
          fun vars ->
            let at = afn vars in
            Bigarray.Array1.set data at
              (Float.max (Bigarray.Array1.get data at) (vfn vars)))
  | Loopnest.Assign { tensor; indices; value } ->
      let buf = st.resolve tensor in
      let afn = addr_fn (addr_of_access st cenv tensor buf indices) in
      let vfn = compile_texpr st cenv value in
      let data : vec = buf.data in
      fun vars -> Bigarray.Array1.set data (afn vars) (vfn vars)

(* A generic loop sets its counter for non-affine indices and [Select]
   conditions, and steps every cell in its body that uses it:
   [start + coeff·i] per iteration, restored to [start] on exit. *)
and compile_loop st cenv depth extent body =
  let first = st.next_cell in
  let fns = Array.of_list (List.map (compile_stmt st cenv (depth + 1)) body) in
  let rec mine acc = function
    | (c, s, k) :: rest when c >= first ->
        mine (if s = depth then (c, k) :: acc else acc) rest
    | _ -> acc
  in
  let cells, coeffs = List.split (mine [] st.terms) in
  let cells = Array.of_list cells and coeffs = Array.of_list coeffs in
  let n = Array.length cells in
  let starts = Array.make n 0 in
  fun vars ->
    for j = 0 to n - 1 do starts.(j) <- vars.(cells.(j)) done;
    for i = 0 to extent - 1 do
      vars.(depth) <- i;
      for j = 0 to n - 1 do vars.(cells.(j)) <- starts.(j) + (coeffs.(j) * i) done;
      for f = 0 to Array.length fns - 1 do fns.(f) vars done
    done;
    for j = 0 to n - 1 do vars.(cells.(j)) <- starts.(j) done

(* Allocate outputs, resolve buffers and stage the program: the
   staging state (for its chain count) and the thunk. *)
let stage t env =
  List.iter
    (fun (tensor, shape) ->
      ignore (Ft_interp.Buffer_env.alloc env tensor shape))
    t.allocs;
  let cache : (string, buf) Hashtbl.t = Hashtbl.create 8 in
  let resolve tensor =
    match Hashtbl.find_opt cache tensor with
    | Some buf -> buf
    | None ->
        let b = Ft_interp.Buffer_env.find env tensor in
        let dims = Array.of_list b.Ft_interp.Buffer_env.shape in
        let n = Array.length dims in
        let strides = Array.make n 1 in
        for d = n - 2 downto 0 do
          strides.(d) <- strides.(d + 1) * dims.(d + 1)
        done;
        let buf = { data = b.Ft_interp.Buffer_env.data; dims; strides } in
        Hashtbl.replace cache tensor buf;
        buf
  in
  let st =
    {
      resolve;
      extents = Array.make t.slots 0;
      next_cell = t.slots;
      bases = [];
      terms = [];
      chains = 0;
    }
  in
  let fns = Array.of_list (List.map (compile_stmt st [] 0) t.body) in
  let init = Array.make st.next_cell 0 in
  List.iter (fun (c, base) -> init.(c) <- base) st.bases;
  let vars = Array.copy init in
  ( st,
    fun () ->
      Array.blit init 0 vars 0 (Array.length init);
      Array.iter (fun f -> f vars) fns )

let bind t env = snd (stage t env)
let fused_chains t env = (fst (stage t env)).chains
