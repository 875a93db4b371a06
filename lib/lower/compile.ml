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
   - A loop whose body is one constant [Init], or one [+=] of a
     product of two affine loads, is fused into one native [for]
     that steps the addresses itself; the [+=] accumulates in a
     register when its output address is loop-invariant.  Loads,
     stores and float operations happen in the reference's order, so
     results are bit-for-bit those of {!Exec}.

   Buffers are the flat float64 Bigarrays of {!Ft_interp.Buffer_env};
   affine accesses rely on the Bigarray flat bounds check (a schedule
   that Verify accepts never goes out of bounds per dimension).

   The staged thunk is single-threaded (counters and cells live in
   one shared array) and captures buffers eagerly: rebind after any
   [Buffer_env.set] that replaces a tensor.  Re-running a thunk is
   idempotent — the lowered init nests re-zero accumulators. *)

open Ft_ir

type vec = Ft_interp.Buffer_env.vec

type t = {
  source : string;
  allocs : (string * int list) list;
  body : Loopnest.stmt list;  (* unroll-flattened, constant-folded *)
  slots : int;  (* loop counters (max nesting depth); cells follow *)
}

let source t = t.source
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
    source = program.source;
    allocs = program.allocs;
    body;
    slots = max 1 (Loopnest.max_depth body);
  }

(* -- Staging -------------------------------------------------------- *)

type buf = { data : vec; dims : int array; strides : int array }

(* One [bind]'s staging state: the cells allocated so far (after the
   [slots] counters), their bases, and each (cell, slot, coeff) term
   that the loop at [slot] maintains, newest cell first. *)
type stage = {
  resolve : string -> buf;
  mutable next_cell : int;
  mutable bases : (int * int) list;  (* (cell, base) *)
  mutable terms : (int * int * int) list;
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
let linearize cenv tensor buf indices =
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

let new_cell st (base, terms) =
  let c = st.next_cell in
  st.next_cell <- c + 1;
  st.bases <- (c, base) :: st.bases;
  st.terms <- List.map (fun (s, k) -> (c, s, k)) terms @ st.terms;
  c

(* A cell for a fused leaf loop at [slot]: that loop steps the address
   itself, so its term is split off as the returned local stride. *)
let leaf_cell st slot (base, terms) =
  let k = Option.value (List.assoc_opt slot terms) ~default:0 in
  (new_cell st (base, List.remove_assoc slot terms), k)

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

(* A fused leaf loop (see the header): one native [for] stepping its
   addresses itself, [None] when the leaf has another shape. *)
let fused_leaf st cenv depth extent leaf =
  let lin tensor indices =
    let buf = st.resolve tensor in
    (buf.data, linearize cenv tensor buf indices)
  in
  match leaf with
  | Loopnest.Init { tensor; indices; value } -> (
      match lin tensor indices with
      | data, Some l ->
          let c, k = leaf_cell st depth l in
          Some
            (fun vars ->
              let at = vars.(c) in
              for i = 0 to extent - 1 do
                Bigarray.Array1.set data (at + (k * i)) value
              done)
      | _, None -> None)
  | Loopnest.Accum
      {
        tensor;
        indices;
        combine = Op.Acc_sum;
        value = Expr.Mul (Expr.Access (ta, ia), Expr.Access (tb, ib));
      } -> (
      let o, lo = lin tensor indices in
      let a, la = lin ta ia in
      let b, lb = lin tb ib in
      match (lo, la, lb) with
      | Some lo, Some la, Some lb ->
          let co, ko = leaf_cell st depth lo in
          let ca, ka = leaf_cell st depth la in
          let cb, kb = leaf_cell st depth lb in
          let open Bigarray.Array1 in
          if ko = 0 && ta <> tensor && tb <> tensor then
            Some
              (fun vars ->
                let at = vars.(co) and a0 = vars.(ca) and b0 = vars.(cb) in
                let acc = ref (get o at) in
                for i = 0 to extent - 1 do
                  acc := !acc +. (get a (a0 + (ka * i)) *. get b (b0 + (kb * i)))
                done;
                set o at !acc)
          else
            Some
              (fun vars ->
                let o0 = vars.(co) and a0 = vars.(ca) and b0 = vars.(cb) in
                for i = 0 to extent - 1 do
                  let at = o0 + (ko * i) in
                  set o at
                    (get o at +. (get a (a0 + (ka * i)) *. get b (b0 + (kb * i))))
                done)
      | _ -> None)
  | _ -> None

let rec compile_stmt st cenv depth : Loopnest.stmt -> int array -> unit =
  function
  | Loopnest.Loop { var; extent; body; _ } -> (
      let cenv = (var, depth) :: cenv in
      let fused =
        match body with
        | [ leaf ] -> fused_leaf st cenv depth extent leaf
        | _ -> None
      in
      match fused with
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

let bind t env =
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
  let st = { resolve; next_cell = t.slots; bases = []; terms = [] } in
  let fns = Array.of_list (List.map (compile_stmt st [] 0) t.body) in
  let init = Array.make st.next_cell 0 in
  List.iter (fun (c, base) -> init.(c) <- base) st.bases;
  let vars = Array.copy init in
  fun () ->
    Array.blit init 0 vars 0 (Array.length init);
    Array.iter (fun f -> f vars) fns

let run t env = bind t env ()
