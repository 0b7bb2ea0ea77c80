module Map (M : Stdlib.Map.S) = struct
  (* Identical trees (polymorphic [compare], which stops at shared
     sub-terms and allocates nothing) hold equal bindings; differently
     shaped ones are compared binding by binding. *)
  let equal eq a b =
    a == b
    || Stdlib.compare a b = 0
    || M.cardinal a = M.cardinal b
       && M.for_all
            (fun k v ->
              match M.find k b with
              | v' -> v == v' || eq v v'
              | exception Not_found -> false)
            a

  (* Start from [m] and overwrite only the bindings that moved: [m]
     comes back as is when none did. *)
  let mapi f m =
    M.fold
      (fun k v acc ->
        let v' = f k v in
        if v' == v then acc else M.add k v' acc)
      m m
end

module Vars = Map (Lang.Ast.VarMap)

let rec list_equal eq a b =
  a == b
  ||
  match (a, b) with
  | x :: a', y :: b' -> (x == y || eq x y) && list_equal eq a' b'
  | _ -> false

let rec list_map f = function
  | [] -> []
  | x :: rest as l ->
      let x' = f x in
      let rest' = list_map f rest in
      if x' == x && rest' == rest then l else x' :: rest'
