type t = {
  spatial : int array array;
  reduce : int array array;
  order_id : int;
  unroll_id : int;
  fuse_levels : int;
  vectorize : bool;
  inline : bool;
  partition_id : int;
}

let copy cfg =
  {
    cfg with
    spatial = Array.map Array.copy cfg.spatial;
    reduce = Array.map Array.copy cfg.reduce;
  }

let product_level factors idx =
  Array.fold_left (fun acc parts -> acc * parts.(idx)) 1 factors

(* The six loop-order templates permute three serial loop groups
   (spatial middle tile, reduce outer, reduce middle); the reduce-inner
   and spatial-inner loops always sit innermost.  [order_perm id]
   returns the group order, where 0 = spatial-middle, 1 = reduce-outer,
   2 = reduce-middle. *)
let order_perms =
  [| [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |] |]

let order_perm id =
  if id < 0 || id >= Array.length order_perms then
    invalid_arg "Config.order_perm: order_id out of range";
  order_perms.(id)

(* Built only where its bytes seed something (the fault plan's FNV-1a,
   transfer dedup, a dispatch's input): no intermediate strings, no
   Printf, and one buffer reused per domain. *)
let key_buf = Domain.DLS.new_key (fun () -> Buffer.create 128)

let compute_key cfg =
  let buf = Domain.DLS.get key_buf in
  Buffer.clear buf;
  let add_int n =
    Buffer.add_string buf (string_of_int n)
  in
  let add_factors factors =
    Array.iter
      (fun parts ->
        Array.iter
          (fun f ->
            add_int f;
            Buffer.add_char buf '.')
          parts;
        Buffer.add_char buf '/')
      factors
  in
  let add_field tag n =
    Buffer.add_char buf tag;
    add_int n;
    Buffer.add_char buf '.'
  in
  add_factors cfg.spatial;
  Buffer.add_char buf '|';
  add_factors cfg.reduce;
  Buffer.add_char buf '|';
  add_field 'o' cfg.order_id;
  add_field 'u' cfg.unroll_id;
  add_field 'f' cfg.fuse_levels;
  add_field 'v' (Bool.to_int cfg.vectorize);
  add_field 'i' (Bool.to_int cfg.inline);
  add_field 'p' cfg.partition_id;
  Buffer.contents buf

(* Search bookkeeping keys on the config itself ([Tbl]).  The cheap
   scalar fields are compared first. *)
let equal a b =
  a.order_id = b.order_id && a.unroll_id = b.unroll_id && a.fuse_levels = b.fuse_levels
  && a.vectorize = b.vectorize && a.inline = b.inline && a.partition_id = b.partition_id
  && a.spatial = b.spatial && a.reduce = b.reduce

let mix h x = (h lxor x) * 0x100000001b3

let mix_factors h factors =
  let h = ref h in
  for i = 0 to Array.length factors - 1 do
    let parts = factors.(i) in
    for j = 0 to Array.length parts - 1 do h := mix !h parts.(j) done
  done;
  !h

(* One pass over the fields (array shapes are fixed by the space);
   Hashtbl masks the low bits, so the mixed high bits are folded down. *)
let hash cfg =
  let h = mix (mix (mix cfg.order_id cfg.unroll_id) cfg.fuse_levels) cfg.partition_id in
  let h = mix (mix h (Bool.to_int cfg.vectorize)) (Bool.to_int cfg.inline) in
  let h = mix_factors (mix_factors h cfg.spatial) cfg.reduce in
  h lxor (h lsr 31)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
