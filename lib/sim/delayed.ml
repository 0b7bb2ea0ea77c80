module Key = struct
  type t = Lang.Ast.var * Ps.Time.t

  let compare (x1, t1) (x2, t2) =
    let c = String.compare x1 x2 in
    if c <> 0 then c else Int.compare t1 t2
end

module M = Map.Make (Key)

type t = int M.t

let empty = M.empty
let is_empty = M.is_empty
let initial_index = 16

let record_target_write ?(index = initial_index) x t d = M.add (x, t) index d

let oldest_on x d =
  M.fold
    (fun (y, t) _ acc ->
      if String.equal y x then
        match acc with
        | Some t0 when t0 <= t -> acc
        | _ -> Some t
      else acc)
    d None

let discharge x d =
  match oldest_on x d with Some t -> M.remove (x, t) d | None -> d

let decrease d =
  let ok = ref true in
  let d' =
    M.map
      (fun i ->
        if i <= 0 then (
          ok := false;
          i)
        else i - 1)
      d
  in
  if !ok then Some d' else None

let renumber f d =
  if M.for_all (fun (x, t) _ -> f x t = t) d then d
  else M.fold (fun (x, t) i acc -> M.add (x, f x t) i acc) d M.empty

let size = M.cardinal
let equal a b = M.equal Int.equal a b
let compare a b = M.compare Int.compare a b

let pp ppf d =
  M.iter
    (fun (x, t) i -> Format.fprintf ppf "(%s,%a)@%d " x Ps.Time.pp t i)
    d
