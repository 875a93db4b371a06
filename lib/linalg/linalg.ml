type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let vec n =
  let v = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
  Bigarray.Array1.fill v 0.;
  v

let vec_of_array xs =
  Bigarray.Array1.of_array Bigarray.float64 Bigarray.c_layout xs

let vec_to_array (v : vec) =
  Array.init (Bigarray.Array1.dim v) (Bigarray.Array1.get v)
