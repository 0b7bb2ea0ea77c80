module VarMap = Lang.Ast.VarMap

(* Messages of one location, sorted by "to"-timestamp ascending. *)
type t = Message.t list VarMap.t

let init vars =
  List.fold_left
    (fun m x -> VarMap.add x [ Message.init x ] m)
    VarMap.empty vars

let vars m = List.map fst (VarMap.bindings m)
let per_loc x m = match VarMap.find_opt x m with Some l -> l | None -> []
let concrete x m = List.filter Message.is_concrete (per_loc x m)
(* Linear: the previous [acc @ l] fold re-copied the accumulator per
   location (quadratic in the number of locations). *)
let messages m = List.concat_map snd (VarMap.bindings m)

let find x ts m = List.find_opt (fun mg -> Message.to_ mg = ts) (per_loc x m)

let contains mg m =
  List.exists (fun mg' -> Message.equal mg mg') (per_loc (Message.var mg) m)

let rec insert_sorted mg = function
  | [] -> Ok [ mg ]
  | mg' :: rest ->
      if Message.overlaps mg mg' then Error mg'
      else if Message.to_ mg < Message.to_ mg' then Ok (mg :: mg' :: rest)
      else if Message.to_ mg = Message.to_ mg' then
        (* Equal "to"-timestamps can only happen for the zero-width
           initialization message against itself; reject as overlap. *)
        Error mg'
      else
        match insert_sorted mg rest with
        | Ok rest' -> Ok (mg' :: rest')
        | Error e -> Error e

let add mg m =
  let x = Message.var mg in
  let existing =
    match VarMap.find_opt x m with
    | Some l -> l
    | None -> [ Message.init x ] (* implicit initialization *)
  in
  match insert_sorted mg existing with
  | Ok l -> Ok (VarMap.add x l m)
  | Error e -> Error e

let add_exn mg m =
  match add mg m with
  | Ok m -> m
  | Error clash ->
      invalid_arg
        (Format.asprintf "Memory.add_exn: %a overlaps %a" Message.pp mg
           Message.pp clash)

let remove mg m =
  let x = Message.var mg in
  let l = List.filter (fun mg' -> not (Message.equal mg mg')) (per_loc x m) in
  VarMap.add x l m

let readable mode x view m =
  let min = View.read_ts mode x view in
  List.filter
    (fun mg -> Message.is_concrete mg && Message.to_ mg >= min)
    (per_loc x m)

let last_ts x m =
  match List.rev (per_loc x m) with
  | [] -> 0
  | mg :: _ -> Message.to_ mg

(* Slot arithmetic assumes every endpoint sits on the grid, so each
   gap is a positive multiple of [K] (divisible by 6): its middle third
   and its midpoint are integers.  The fresh endpoints may fall off the
   grid; the step's {!renumbering} puts them back. *)
let k = Time.grid

(* A detached interval strictly inside the gap (a, b): occupy the
   middle third, leaving room on both sides. *)
let detached a b =
  let third = (b - a) / 3 in
  (a + third, b - third)

let write_slots x ~min m =
  let msgs = per_loc x m in
  let rec gaps = function
    | m1 :: (m2 :: _ as rest) ->
        let a = Message.to_ m1 and b = Message.from_ m2 in
        let acc = gaps rest in
        if a < b then (a, b) :: acc else acc
    | _ -> []
  in
  let inner =
    List.filter_map
      (fun (a, b) ->
        let f, t = detached a b in
        if t > min then Some (f, t) else None)
      (gaps msgs)
  in
  let base = Int.max (last_ts x m) min in
  inner @ [ (base + k, base + (2 * k)) ]

let attach_slot x ~after m =
  let msgs = per_loc x m in
  (* Find the next occupied "from" strictly beyond [after]; everything
     in between must be free. *)
  let blocked =
    List.exists
      (fun mg ->
        let f = Message.from_ mg and t = Message.to_ mg in
        f < after && t > after && f <> t)
      msgs
  in
  if blocked then None
  else
    let next_from =
      List.fold_left
        (fun acc mg ->
          let f = Message.from_ mg in
          if f >= after && f <> Message.to_ mg then
            match acc with
            | Some best when best <= f -> acc
            | _ -> Some f
          else acc)
        None msgs
    in
    match next_from with
    | Some f when f = after -> None (* adjacent space taken *)
    | Some f -> Some (after, (after + f) / 2)
    | None -> Some (after, after + k)

let cap m =
  VarMap.mapi
    (fun x msgs ->
      let rec fill = function
        | m1 :: (m2 :: _ as rest) ->
            let a = Message.to_ m1 and b = Message.from_ m2 in
            if a < b then m1 :: Message.rsv ~var:x ~from_:a ~to_:b :: fill rest
            else m1 :: fill rest
        | l -> l
      in
      let filled = fill msgs in
      match List.rev filled with
      | [] -> filled
      | last :: _ ->
          let t = Message.to_ last in
          filled @ [ Message.rsv ~var:x ~from_:t ~to_:(t + k) ])
    m

(* ------------------------------------------------------------------ *)
(* Canonical form *)

(* A location is canonical when its distinct endpoints, in order, are
   exactly 0, K, 2K, …: each message starts at the previous endpoint
   or one step of the grid after it, and spans one step (the
   initialization message (0,0] aside). *)
let rec canonical_from prev = function
  | [] -> true
  | mg :: rest ->
      let f = Message.from_ mg and t = Message.to_ mg in
      (f = prev || f = prev + k)
      && (t = f + k || (t = 0 && f = 0))
      && canonical_from t rest

let canonical m = VarMap.for_all (fun _ l -> canonical_from 0 l) m

(* Two message lists, each read as its endpoints f1, t1, f2, t2, …
   (nondecreasing: messages are sorted and disjoint), merged: their
   distinct values go [prev + K], [prev + 2K], …  [h] says the head's
   [from_] has been read. *)
let endpoint mg h = if h then Message.to_ mg else Message.from_ mg

let rec union_from prev l1 h1 l2 h2 =
  match (l1, l2) with
  | [], [] -> true
  | [], _ :: _ -> union_from prev l2 h2 [] false
  | a :: _, b :: _ when endpoint b h2 < endpoint a h1 ->
      union_from prev l2 h2 l1 h1
  | a :: rest, _ ->
      let v = endpoint a h1 in
      (v = prev || v = prev + k)
      &&
      if h1 then union_from v rest false l2 h2 else union_from v l1 true l2 h2

(* The union of [ms]' endpoints is on the grid, location by location.
   A single memory or a pair (the two sides of a simulation game) is
   checked in one walk, without sorting. *)
let on_grid = function
  | [ a; b ] ->
      VarMap.for_all
        (fun x l -> union_from (-k) l false (per_loc x b) false)
        a
      && VarMap.for_all (fun x l -> VarMap.mem x a || canonical_from 0 l) b
  | ms -> List.for_all canonical ms

(* [x]'s endpoints across [ms] are on the grid, by the walks above: a
   sufficient test, so that a step that moves one location sorts the
   endpoints of that location alone. *)
let loc_on_grid x = function
  | [ a ] -> canonical_from 0 (per_loc x a)
  | [ a; b ] -> union_from (-k) (per_loc x a) false (per_loc x b) false
  | _ -> false

(* Per renumbered location, its sorted distinct endpoints: the i-th
   becomes [i * K].  Locations already on the grid are absent. *)
type renumbering = int array VarMap.t

let endpoints x ms =
  List.concat_map
    (fun m ->
      List.concat_map
        (fun mg -> [ Message.from_ mg; Message.to_ mg ])
        (per_loc x m))
    ms
  |> List.sort_uniq Int.compare |> Array.of_list

let renumbering ms =
  if on_grid ms then None
  else
    let vars = List.sort_uniq String.compare (List.concat_map vars ms) in
    let r =
      List.fold_left
        (fun r x ->
          if loc_on_grid x ms then r
          else
            let a = endpoints x ms in
            let on_grid = ref true in
            Array.iteri (fun i t -> if t <> i * k then on_grid := false) a;
            if !on_grid then r else VarMap.add x a r)
        VarMap.empty vars
    in
    if VarMap.is_empty r then None else Some r

(* The index of the first element of the sorted [a.(lo..hi-1)] that is
   not below [t]. *)
let rec lower_bound a t lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if a.(mid) < t then lower_bound a t (mid + 1) hi else lower_bound a t lo mid

(* An endpoint goes to its rank; any other value (the endpoint of a
   message the step removed) to the middle of the gap it falls into. *)
let apply r x t =
  match VarMap.find x r with
  | exception Not_found -> t
  | a ->
      let i = lower_bound a t 0 (Array.length a) in
      if i < Array.length a && a.(i) = t then i * k else (i * k) - (k / 2)

(* A location the map does not name keeps its list, and a message whose
   interval and view do not move stays the same message: most of a
   step's memory comes back shared. *)
let renumber r m =
  let f = apply r in
  Share.Vars.mapi (fun _ l -> Share.list_map (Message.renumber f) l) m

let equal_msgs a b = Share.list_equal Message.equal a b
let equal a b = Share.Vars.equal equal_msgs a b
let compare a b = VarMap.compare (List.compare Message.compare) a b

let hash m =
  VarMap.fold
    (fun x l h ->
      List.fold_left
        (fun h mg -> Time.hash_combine h (Message.hash mg))
        (Time.hash_combine h (Hashtbl.hash x))
        l)
    m 0x4d454d
let fold f m acc = VarMap.fold (fun _ l acc -> List.fold_right f l acc) m acc

let pp ppf m =
  VarMap.iter
    (fun x l ->
      Format.fprintf ppf "@[<h>%s: %a@]@\n" x
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
           Message.pp)
        l)
    m

(* Memory deltas, for the replay debugger: which messages one step
   added (fresh writes, promises, reservations) or removed (cancels).
   Fulfillment moves a message from a thread's promise set, not out of
   memory, so it shows up as a thread-state delta instead. *)
let added ?renumbering ~prev m =
  let prev = match renumbering with Some r -> renumber r prev | None -> prev in
  List.sort Message.compare
    (fold (fun mg acc -> if contains mg prev then acc else mg :: acc) m [])

let removed ?renumbering ~prev m =
  let image =
    match renumbering with
    | Some r -> Message.renumber (apply r)
    | None -> Fun.id
  in
  List.sort Message.compare
    (fold
       (fun mg acc -> if contains (image mg) m then acc else mg :: acc)
       prev [])
