module Key = struct
  type t = Lang.Ast.var * Ps.Time.t

  let compare (x1, t1) (x2, t2) =
    let c = String.compare x1 x2 in
    if c <> 0 then c else Int.compare t1 t2
end

module M = Map.Make (Key)

type t = Ps.Time.t M.t

let empty = M.empty

let init vars =
  List.fold_left (fun m x -> M.add (x, 0) 0 m) M.empty vars

let find x ts m = M.find_opt (x, ts) m
let add x ts ts' m = M.add (x, ts) ts' m

let mon m =
  M.for_all
    (fun (x1, t1) t1' ->
      M.for_all
        (fun (x2, t2) t2' ->
          (not (String.equal x1 x2))
          || t1 >= t2
          || t1' < t2')
        m)
    m

let concrete_keys mem =
  Ps.Memory.fold
    (fun msg acc ->
      if Ps.Message.is_concrete msg then
        (Ps.Message.var msg, Ps.Message.to_ msg) :: acc
      else acc)
    mem []

let dom_covers mem m =
  let keys = concrete_keys mem in
  List.length keys = M.cardinal m
  && List.for_all (fun k -> M.mem k m) keys

let image_in mem m =
  M.for_all
    (fun (x, _) t' ->
      match Ps.Memory.find x t' mem with
      | Some msg -> Ps.Message.is_concrete msg
      | None -> false)
    m

let is_identity_on mem m =
  List.for_all
    (fun (x, t) ->
      match M.find_opt (x, t) m with
      | Some t' -> t = t'
      | None -> false)
    (concrete_keys mem)

let renumber f m =
  if M.for_all (fun (x, t) t' -> f x t = t && f x t' = t') m then m
  else M.fold (fun (x, t) t' acc -> M.add (x, f x t) (f x t') acc) m M.empty

let equal a b = M.equal Int.equal a b
let compare a b = M.compare Int.compare a b

let pp ppf m =
  M.iter
    (fun (x, t) t' ->
      Format.fprintf ppf "(%s,%a)->%a " x Ps.Time.pp t Ps.Time.pp t')
    m
