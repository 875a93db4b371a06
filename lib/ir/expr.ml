type iexpr =
  | Ivar of string
  | Iconst of int
  | Iadd of iexpr * iexpr
  | Isub of iexpr * iexpr
  | Imul of iexpr * iexpr
  | Idiv of iexpr * iexpr
  | Imod of iexpr * iexpr

type cond =
  | Ge of iexpr * iexpr
  | Lt of iexpr * iexpr
  | Eq of iexpr * iexpr
  | And of cond * cond

type texpr =
  | Access of string * iexpr list
  | Const of float
  | Add of texpr * texpr
  | Sub of texpr * texpr
  | Mul of texpr * texpr
  | Select of cond * texpr * texpr

(* Convenience constructors for readable operator definitions. *)
let v name = Ivar name
let c n = Iconst n
let ( +: ) a b = Iadd (a, b)
let ( -: ) a b = Isub (a, b)
let ( *: ) a b = Imul (a, b)
let ( /: ) a b = Idiv (a, b)
let ( %: ) a b = Imod (a, b)

let euclid_div a b =
  let q = a / b and r = a mod b in
  if r < 0 then q - 1 else q

let euclid_mod a b =
  let r = a mod b in
  if r < 0 then r + abs b else r

let rec eval_iexpr env = function
  | Ivar name -> (
      match List.assoc_opt name env with
      | Some value -> value
      | None -> invalid_arg (Printf.sprintf "Expr.eval_iexpr: unbound index %s" name))
  | Iconst n -> n
  | Iadd (a, b) -> eval_iexpr env a + eval_iexpr env b
  | Isub (a, b) -> eval_iexpr env a - eval_iexpr env b
  | Imul (a, b) -> eval_iexpr env a * eval_iexpr env b
  | Idiv (a, b) -> euclid_div (eval_iexpr env a) (eval_iexpr env b)
  | Imod (a, b) -> euclid_mod (eval_iexpr env a) (eval_iexpr env b)

let rec eval_cond env = function
  | Ge (a, b) -> eval_iexpr env a >= eval_iexpr env b
  | Lt (a, b) -> eval_iexpr env a < eval_iexpr env b
  | Eq (a, b) -> eval_iexpr env a = eval_iexpr env b
  | And (a, b) -> eval_cond env a && eval_cond env b

let rec ivars_of_iexpr = function
  | Ivar name -> [ name ]
  | Iconst _ -> []
  | Iadd (a, b) | Isub (a, b) | Imul (a, b) | Idiv (a, b) | Imod (a, b) ->
      ivars_of_iexpr a @ ivars_of_iexpr b

let rec ivars_of_cond = function
  | Ge (a, b) | Lt (a, b) | Eq (a, b) -> ivars_of_iexpr a @ ivars_of_iexpr b
  | And (a, b) -> ivars_of_cond a @ ivars_of_cond b

let rec ivars_of_texpr = function
  | Access (_, indices) -> List.concat_map ivars_of_iexpr indices
  | Const _ -> []
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> ivars_of_texpr a @ ivars_of_texpr b
  | Select (cond, a, b) ->
      ivars_of_cond cond @ ivars_of_texpr a @ ivars_of_texpr b

let rec accesses = function
  | Access (tensor, indices) -> [ (tensor, indices) ]
  | Const _ -> []
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> accesses a @ accesses b
  | Select (_, a, b) -> accesses a @ accesses b

let tensors_read expr =
  List.sort_uniq compare (List.map fst (accesses expr))

(* One multiply/add/sub counts as one floating point operation; select
   and accesses are free.  Matches the convention that a multiply-and-
   accumulate body costs 2 FLOPs per reduction point. *)
let rec flops_of_texpr = function
  | Access _ | Const _ -> 0
  | Add (a, b) | Sub (a, b) | Mul (a, b) -> 1 + flops_of_texpr a + flops_of_texpr b
  | Select (_, a, b) -> flops_of_texpr a + flops_of_texpr b

(* -- Affine (stride) analysis ---------------------------------------

   An index expression is affine when it can be written
   [base + sum_i stride_i * var_i].  Lowered multi-indices almost
   always are: [axis_index] builds pure add/mul-by-constant chains, and
   the div/mod forms (BCM, shift) have constant operands after an
   unrolled loop substitutes its counter.  The compiled executor
   (Ft_lower.Compile) linearizes every affine access into one flat
   [base + sum stride.var] address computation; non-affine indices fall
   back to tree evaluation. *)

type affine = { base : int; terms : (string * int) list }

let affine_const base = { base; terms = [] }

(* Terms stay sorted by variable name with zero coefficients dropped,
   so structurally equal forms are [=]-equal. *)
let rec merge_terms a b =
  match (a, b) with
  | [], t | t, [] -> t
  | ((va, ca) as ha) :: ta, ((vb, cb) as hb) :: tb ->
      let cmp = String.compare va vb in
      if cmp < 0 then ha :: merge_terms ta b
      else if cmp > 0 then hb :: merge_terms a tb
      else
        let c = ca + cb in
        if c = 0 then merge_terms ta tb else (va, c) :: merge_terms ta tb

let affine_add a b = { base = a.base + b.base; terms = merge_terms a.terms b.terms }

let affine_scale k a =
  if k = 0 then affine_const 0
  else { base = k * a.base; terms = List.map (fun (v, c) -> (v, k * c)) a.terms }

let affine_neg a = affine_scale (-1) a

let rec affine_of_iexpr = function
  | Ivar name -> Some { base = 0; terms = [ (name, 1) ] }
  | Iconst n -> Some (affine_const n)
  | Iadd (a, b) -> (
      match (affine_of_iexpr a, affine_of_iexpr b) with
      | Some a, Some b -> Some (affine_add a b)
      | _ -> None)
  | Isub (a, b) -> (
      match (affine_of_iexpr a, affine_of_iexpr b) with
      | Some a, Some b -> Some (affine_add a (affine_neg b))
      | _ -> None)
  | Imul (a, b) -> (
      match (affine_of_iexpr a, affine_of_iexpr b) with
      | Some { base = k; terms = [] }, Some e | Some e, Some { base = k; terms = [] }
        ->
          Some (affine_scale k e)
      | _ -> None)
  | Idiv (a, b) -> (
      (* Division distributes over an affine form only in the constant
         case; anything else leaves the tree evaluator in charge. *)
      match (affine_of_iexpr a, affine_of_iexpr b) with
      | Some { base = n; terms = [] }, Some { base = d; terms = [] } when d <> 0 ->
          Some (affine_const (euclid_div n d))
      | _ -> None)
  | Imod (a, b) -> (
      match (affine_of_iexpr a, affine_of_iexpr b) with
      | Some { base = n; terms = [] }, Some { base = d; terms = [] } when d <> 0 ->
          Some (affine_const (euclid_mod n d))
      | _ -> None)

(* Constant folding: evaluate every constant subtree, preserving the
   Euclidean div/mod semantics.  Returns a tree (not an affine form) so
   non-affine expressions still simplify — an unrolled loop substitutes
   [Iconst] for its counter and folding then collapses the BCM-style
   [((j - t) mod b)] indices to plain constants. *)
let rec fold_iexpr e =
  match e with
  | Ivar _ | Iconst _ -> e
  | Iadd (a, b) -> (
      match (fold_iexpr a, fold_iexpr b) with
      | Iconst x, Iconst y -> Iconst (x + y)
      | Iconst 0, e | e, Iconst 0 -> e
      | a, b -> Iadd (a, b))
  | Isub (a, b) -> (
      match (fold_iexpr a, fold_iexpr b) with
      | Iconst x, Iconst y -> Iconst (x - y)
      | e, Iconst 0 -> e
      | a, b -> Isub (a, b))
  | Imul (a, b) -> (
      match (fold_iexpr a, fold_iexpr b) with
      | Iconst x, Iconst y -> Iconst (x * y)
      | Iconst 0, _ | _, Iconst 0 -> Iconst 0
      | Iconst 1, e | e, Iconst 1 -> e
      | a, b -> Imul (a, b))
  | Idiv (a, b) -> (
      match (fold_iexpr a, fold_iexpr b) with
      | Iconst x, Iconst y when y <> 0 -> Iconst (euclid_div x y)
      | a, b -> Idiv (a, b))
  | Imod (a, b) -> (
      match (fold_iexpr a, fold_iexpr b) with
      | Iconst x, Iconst y when y <> 0 -> Iconst (euclid_mod x y)
      | a, b -> Imod (a, b))

let rec subst_iexpr env = function
  | Ivar name as e -> ( match List.assoc_opt name env with Some r -> r | None -> e)
  | Iconst _ as e -> e
  | Iadd (a, b) -> Iadd (subst_iexpr env a, subst_iexpr env b)
  | Isub (a, b) -> Isub (subst_iexpr env a, subst_iexpr env b)
  | Imul (a, b) -> Imul (subst_iexpr env a, subst_iexpr env b)
  | Idiv (a, b) -> Idiv (subst_iexpr env a, subst_iexpr env b)
  | Imod (a, b) -> Imod (subst_iexpr env a, subst_iexpr env b)

let rec subst_cond env = function
  | Ge (a, b) -> Ge (subst_iexpr env a, subst_iexpr env b)
  | Lt (a, b) -> Lt (subst_iexpr env a, subst_iexpr env b)
  | Eq (a, b) -> Eq (subst_iexpr env a, subst_iexpr env b)
  | And (a, b) -> And (subst_cond env a, subst_cond env b)

let rec subst_texpr env = function
  | Access (tensor, indices) -> Access (tensor, List.map (subst_iexpr env) indices)
  | Const _ as e -> e
  | Add (a, b) -> Add (subst_texpr env a, subst_texpr env b)
  | Sub (a, b) -> Sub (subst_texpr env a, subst_texpr env b)
  | Mul (a, b) -> Mul (subst_texpr env a, subst_texpr env b)
  | Select (cond, a, b) -> Select (subst_cond env cond, subst_texpr env a, subst_texpr env b)

let rec pp_iexpr fmt = function
  | Ivar name -> Format.pp_print_string fmt name
  | Iconst n -> Format.pp_print_int fmt n
  | Iadd (a, b) -> Format.fprintf fmt "(%a + %a)" pp_iexpr a pp_iexpr b
  | Isub (a, b) -> Format.fprintf fmt "(%a - %a)" pp_iexpr a pp_iexpr b
  | Imul (a, b) -> Format.fprintf fmt "(%a * %a)" pp_iexpr a pp_iexpr b
  | Idiv (a, b) -> Format.fprintf fmt "(%a / %a)" pp_iexpr a pp_iexpr b
  | Imod (a, b) -> Format.fprintf fmt "(%a %% %a)" pp_iexpr a pp_iexpr b

let rec pp_cond fmt = function
  | Ge (a, b) -> Format.fprintf fmt "%a >= %a" pp_iexpr a pp_iexpr b
  | Lt (a, b) -> Format.fprintf fmt "%a < %a" pp_iexpr a pp_iexpr b
  | Eq (a, b) -> Format.fprintf fmt "%a == %a" pp_iexpr a pp_iexpr b
  | And (a, b) -> Format.fprintf fmt "%a && %a" pp_cond a pp_cond b

let rec pp_texpr fmt = function
  | Access (tensor, indices) ->
      Format.fprintf fmt "%s[%a]" tensor
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
           pp_iexpr)
        indices
  | Const x -> Format.fprintf fmt "%g" x
  | Add (a, b) -> Format.fprintf fmt "(%a + %a)" pp_texpr a pp_texpr b
  | Sub (a, b) -> Format.fprintf fmt "(%a - %a)" pp_texpr a pp_texpr b
  | Mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp_texpr a pp_texpr b
  | Select (cond, a, b) ->
      Format.fprintf fmt "(%a ? %a : %a)" pp_cond cond pp_texpr a pp_texpr b

let iexpr_to_string e = Format.asprintf "%a" pp_iexpr e
let texpr_to_string e = Format.asprintf "%a" pp_texpr e
