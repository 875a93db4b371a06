let divisors n =
  if n <= 0 then invalid_arg "Mathx.divisors: positive argument required";
  let rec go d acc =
    if d * d > n then acc
    else if n mod d = 0 then
      let acc = d :: acc in
      let acc = if d <> n / d then (n / d) :: acc else acc in
      go (d + 1) acc
    else go (d + 1) acc
  in
  List.sort compare (go 1 [])

let prime_factors n =
  if n <= 0 then invalid_arg "Mathx.prime_factors: positive argument required";
  let rec go n d acc =
    if n = 1 then List.rev acc
    else if d * d > n then List.rev (n :: acc)
    else if n mod d = 0 then go (n / d) d (d :: acc)
    else go n (d + 1) acc
  in
  go n 2 []

let rec first_divisor n d =
  if d * d > n then n else if n mod d = 0 then d else first_divisor n (d + 1)

(* The head of [prime_factors n] (and its error), by trial division
   that stops at the first divisor. *)
let smallest_prime_factor n =
  if n <= 0 then invalid_arg "Mathx.prime_factors: positive argument required";
  if n = 1 then None else Some (first_divisor n 2)

(* Ordered k-way factorizations: all [f1; ...; fk] with product n.
   The count is multiplicative over prime powers: for p^a it is
   C(a + k - 1, k - 1) (stars and bars). *)
let rec factorizations n k =
  if n <= 0 || k <= 0 then invalid_arg "Mathx.factorizations: positive arguments required";
  if k = 1 then [ [ n ] ]
  else
    List.concat_map
      (fun d -> List.map (fun rest -> d :: rest) (factorizations (n / d) (k - 1)))
      (divisors n)

let binomial n k =
  if k < 0 || k > n then 0
  else
    let k = min k (n - k) in
    let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
    go 1 1

let count_factorizations n k =
  if n <= 0 || k <= 0 then invalid_arg "Mathx.count_factorizations: positive arguments required";
  let groups =
    let rec group = function
      | [] -> []
      | p :: rest ->
          let same, others = List.partition (Int.equal p) rest in
          (p, 1 + List.length same) :: group others
    in
    group (prime_factors n)
  in
  List.fold_left (fun acc (_, a) -> acc * binomial (a + k - 1) (k - 1)) 1 groups

let ceil_div a b =
  if b <= 0 then invalid_arg "Mathx.ceil_div: positive divisor required";
  (a + b - 1) / b

let log2 x = log x /. log 2.

let clamp lo hi x = if x < lo then lo else if x > hi then hi else x

let clampf lo hi x = if x < lo then lo else if x > hi then hi else x

(* A recursion, not a fold: no closure, and the accumulator stays unboxed. *)
let max_at row idx =
  let rec go m = function
    | [] -> m
    | i :: rest ->
        let v = row.(i) in
        go (if v > m then v else if v < m then m else Float.max m v) rest
  in
  go neg_infinity idx
