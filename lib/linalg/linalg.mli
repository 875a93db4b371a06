(** Flat float64 storage: [Bigarray] with C layout, so elements are
    unboxed doubles and a buffer handed to a C kernel is one flat
    allocation. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** [vec n] is a zero-filled vector of length [n]. *)
val vec : int -> vec

val vec_of_array : float array -> vec
val vec_to_array : vec -> float array
