(** The search methods: one fixed table, one interface for all search
    back-ends.  Consumers dispatch by name through {!find_exn}/{!all}, so a
    new search method is a {!Search_loop.POLICY} module plus one row in
    the table.

    [name] is the stable identifier persisted in tuning-log records:
    renaming a method orphans every stored schedule, so names must
    never change (DESIGN.md §10). *)

type t = {
  key : string;  (** short CLI alias, e.g. ["q"] *)
  name : string;  (** stable [Driver.result.method_name], e.g. ["Q-method"] *)
  description : string;  (** one line for listings and [--help] *)
  search : Search_loop.params -> Ft_schedule.Space.t -> Driver.result;
}

(** Every method, in presentation order: Q-method, P-method, random,
    CD-method, AutoTVM, AutoTVM-2019. *)
val all : t list

(** Look up by stable name first, then by CLI key; raises
    [Invalid_argument] listing the known names. *)
val find_exn : string -> t
