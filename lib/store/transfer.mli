(** Cross-shape schedule transfer (warm starts).

    A schedule tuned for one shape rarely belongs to another shape's
    space verbatim (split factors must multiply to the new extents),
    but its *structure* — relative tile sizes, loop order, knobs — is
    the valuable part.  A stored config is refitted onto a new space
    by choosing, per axis, the divisible factorization closest to the
    old one in log space: the result is the member of the space
    structurally closest to it, a config already valid in the space
    refits to itself, and one whose loop ranks do not match is
    dropped.  [seeds] turns a store's exact and nearest-shape records
    into extra initial points for {!Ft_explore.Driver}. *)

(** [seeds store space] parses, refits and validates stored schedules
    for [space]'s problem: exact-key records first, then up to [limit]
    (default 3) nearest-shape records, deduplicated.  Malformed or
    non-transferable records are silently dropped — warm-starting must
    never fail a search.  Consumes no RNG. *)
val seeds :
  ?method_name:string ->
  ?limit:int ->
  Store.t ->
  Ft_schedule.Space.t ->
  Ft_schedule.Config.t list
