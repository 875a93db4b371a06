let mean = function
  | [] -> invalid_arg "Stats.mean: empty list"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> invalid_arg "Stats.geomean: empty list"
  | xs ->
      if List.exists (fun x -> x <= 0.) xs then
        invalid_arg "Stats.geomean: requires positive values";
      exp (mean (List.map log xs))

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty list"
  | x :: xs -> List.fold_left Float.min x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty list"
  | x :: xs -> List.fold_left Float.max x xs

let normalize_to_max xs =
  let top = maximum xs in
  if top <= 0. then invalid_arg "Stats.normalize_to_max: max must be positive";
  List.map (fun x -> x /. top) xs

(* Average ranks (1-based), ties sharing the mean of their positions —
   the standard fractional ranking Spearman correlation expects. *)
let ranks xs =
  let n = Array.length xs in
  let order = Array.init n Fun.id in
  Array.sort (fun a b -> Float.compare xs.(a) xs.(b)) order;
  let r = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(order.(!j + 1)) = xs.(order.(!i)) do
      incr j
    done;
    (* positions !i..!j hold equal values; each gets the mean rank *)
    let shared = float_of_int (!i + !j + 2) /. 2. in
    for k = !i to !j do
      r.(order.(k)) <- shared
    done;
    i := !j + 1
  done;
  r

let spearman xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Stats.spearman: length mismatch";
  if n < 2 then invalid_arg "Stats.spearman: need at least two points";
  let rx = ranks xs and ry = ranks ys in
  let mean_rank = float_of_int (n + 1) /. 2. in
  let num = ref 0. and dx = ref 0. and dy = ref 0. in
  for i = 0 to n - 1 do
    let a = rx.(i) -. mean_rank and b = ry.(i) -. mean_rank in
    num := !num +. (a *. b);
    dx := !dx +. (a *. a);
    dy := !dy +. (b *. b)
  done;
  if !dx = 0. || !dy = 0. then 0. else !num /. sqrt (!dx *. !dy)
