(** Expression language of the tensor-computation IR.

    Index expressions are integer affine expressions extended with
    (Euclidean) division and modulo, which the block-circulant-matrix
    and shift operators of §6.4 need.  Scalar expressions describe the
    value computed for one output point; [Select] encodes the boundary
    conditions of padding nodes. *)

type iexpr =
  | Ivar of string
  | Iconst of int
  | Iadd of iexpr * iexpr
  | Isub of iexpr * iexpr
  | Imul of iexpr * iexpr
  | Idiv of iexpr * iexpr  (** Euclidean (floor towards -inf for positive divisors) *)
  | Imod of iexpr * iexpr  (** Euclidean: result is always non-negative *)

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

(** {2 Constructors} *)

val v : string -> iexpr
val c : int -> iexpr
val ( +: ) : iexpr -> iexpr -> iexpr
val ( -: ) : iexpr -> iexpr -> iexpr
val ( *: ) : iexpr -> iexpr -> iexpr
val ( /: ) : iexpr -> iexpr -> iexpr
val ( %: ) : iexpr -> iexpr -> iexpr

(** {2 Evaluation} *)

val euclid_div : int -> int -> int
val euclid_mod : int -> int -> int

(** Evaluate under an environment binding index variables to values;
    raises [Invalid_argument] on unbound variables. *)
val eval_iexpr : (string * int) list -> iexpr -> int

val eval_cond : (string * int) list -> cond -> bool

(** {2 Affine (stride) analysis}

    An index expression is {e affine} when it can be written
    [base + Σ stride·var].  The compiled executor
    ({!Ft_lower.Compile}) linearizes every affine access into a single
    flat address computation; non-affine indices (variable div/mod)
    fall back to tree evaluation. *)

type affine = {
  base : int;
  terms : (string * int) list;
      (** Sorted by variable name; coefficients are nonzero, each
          variable appears at most once — structurally equal forms are
          [=]-equal. *)
}

val affine_const : int -> affine
val affine_add : affine -> affine -> affine
val affine_scale : int -> affine -> affine

(** [affine_of_iexpr e] is [Some a] iff [e] is affine: sums,
    differences and products with a constant side fold; [Idiv]/[Imod]
    fold only when both operands reduce to constants (Euclidean
    semantics).  Agrees with [eval_iexpr] on every environment that
    binds all variables. *)
val affine_of_iexpr : iexpr -> affine option

(** Evaluate an affine form; raises [Invalid_argument] on an unbound
    variable. *)
val affine_eval : (string * int) list -> affine -> int

(** Constant-fold an index expression (Euclidean div/mod, additive and
    multiplicative identities).  Unlike {!affine_of_iexpr} this keeps
    the tree shape for non-affine parts, so substituting [Iconst] for
    an unrolled loop counter collapses BCM-style [(j - t) mod b]
    indices to constants. *)
val fold_iexpr : iexpr -> iexpr

(** {2 Analysis} *)

val ivars_of_texpr : texpr -> string list

(** All tensor accesses [(tensor, indices)] in an expression, in
    left-to-right order, with duplicates. *)
val accesses : texpr -> (string * iexpr list) list

(** Distinct tensor names read by the expression. *)
val tensors_read : texpr -> string list

(** Arithmetic operation count of one body evaluation (mul/add/sub each
    count 1; select and loads are free). *)
val flops_of_texpr : texpr -> int

(** {2 Substitution}

    Replace index variables by index expressions (used when inlining a
    producer node's body into its consumer). *)

val subst_iexpr : (string * iexpr) list -> iexpr -> iexpr
val subst_texpr : (string * iexpr) list -> texpr -> texpr

(** {2 Printing} *)

val pp_texpr : Format.formatter -> texpr -> unit
val iexpr_to_string : iexpr -> string
val texpr_to_string : texpr -> string
