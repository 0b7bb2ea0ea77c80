(* Helpers shared by the memory and timestamp suites: timestamps on the
   canonical grid, canonical form, and the memory's sortedness. *)

let k = Ps.Time.grid

(* Rank [n] on the canonical timestamp grid. *)
let t n = n * k

let mk x v f to_ =
  Ps.Message.msg ~var:x ~value:v ~from_:(t f) ~to_:(t to_) ~view:Ps.View.bot

(* Canonical form after a write, as the machine keeps it. *)
let canonicalize m =
  match Ps.Memory.renumbering m with
  | Some r -> Ps.Memory.renumber r m
  | None -> m

(* The sorted distinct endpoints of [x]'s messages. *)
let endpoints x m =
  List.concat_map
    (fun mg -> [ Ps.Message.from_ mg; Ps.Message.to_ mg ])
    (Ps.Memory.per_loc x m)
  |> List.sort_uniq Int.compare

(* Every location's messages sorted and pairwise disjoint. *)
let sorted_disjoint m =
  List.for_all
    (fun x ->
      let rec ok = function
        | a :: (b :: _ as rest) ->
            Ps.Message.to_ a <= Ps.Message.from_ b
            && (not (Ps.Message.overlaps a b))
            && ok rest
        | _ -> true
      in
      ok (Ps.Memory.per_loc x m))
    (Ps.Memory.vars m)
