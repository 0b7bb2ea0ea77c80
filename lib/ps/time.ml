type t = int

let grid = 6

let pp ppf t =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let g = gcd (abs t) grid in
  if g = grid then Format.pp_print_int ppf (t / grid)
  else Format.fprintf ppf "%d/%d" (t / g) (grid / g)

let mix k =
  let k = k lxor (k lsr 30) in
  let k = k * 0x2545F4914F6CDD1D in
  let k = k lxor (k lsr 27) in
  let k = k * 0x61C8864680B583EB in
  (k lxor (k lsr 31)) land max_int

let hash_combine h k = mix ((h * 0x1FFFFFFFFFFFFFFD) + k + 0x9E3779B9)
