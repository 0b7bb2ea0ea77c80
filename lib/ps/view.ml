module VarMap = Lang.Ast.VarMap

module TimeMap = struct
  (* Sparse: absent bindings are timestamp 0, and we never store 0, so
     that structural comparison coincides with extensional equality. *)
  type t = Time.t VarMap.t

  let bot = VarMap.empty
  let get x t = match VarMap.find_opt x t with Some r -> r | None -> 0

  let set x r t =
    if r = 0 then VarMap.remove x t else VarMap.add x r t

  let join a b =
    VarMap.union (fun _ ra rb -> Some (Int.max ra rb)) a b

  let le a b = VarMap.for_all (fun x ra -> ra <= get x b) a
  let equal a b = Share.Vars.equal Int.equal a b
  let compare a b = VarMap.compare Int.compare a b
  let bindings t = VarMap.bindings t

  let hash t =
    (* fold in key order: equal maps hash equal regardless of the
       internal tree shape *)
    VarMap.fold
      (fun x r h ->
        Time.hash_combine (Time.hash_combine h (Hashtbl.hash x)) (Time.mix r))
      t 0x51f15

  let pp ppf t =
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf (x, r) -> Format.fprintf ppf "%s@%a" x Time.pp r))
      (bindings t)

  let renumber f t = Share.Vars.mapi f t
end

type t = { na : TimeMap.t; rlx : TimeMap.t }

let bot = { na = TimeMap.bot; rlx = TimeMap.bot }

let join a b =
  { na = TimeMap.join a.na b.na; rlx = TimeMap.join a.rlx b.rlx }

let le a b = TimeMap.le a.na b.na && TimeMap.le a.rlx b.rlx
let equal a b =
  a == b || (TimeMap.equal a.na b.na && TimeMap.equal a.rlx b.rlx)

let compare a b =
  let c = TimeMap.compare a.na b.na in
  if c <> 0 then c else TimeMap.compare a.rlx b.rlx

let hash v = Time.hash_combine (TimeMap.hash v.na) (TimeMap.hash v.rlx)

let read_ts (mode : Lang.Modes.read) x v =
  match mode with
  | Lang.Modes.Na -> TimeMap.get x v.na
  | Lang.Modes.Rlx | Lang.Modes.Acq -> TimeMap.get x v.rlx

let observe_read (mode : Lang.Modes.read) x t v =
  let bump tm = TimeMap.set x (Int.max t (TimeMap.get x tm)) tm in
  match mode with
  | Lang.Modes.Na -> { v with rlx = bump v.rlx }
  | Lang.Modes.Rlx | Lang.Modes.Acq -> { na = bump v.na; rlx = bump v.rlx }

let observe_write x t v =
  let bump tm = TimeMap.set x (Int.max t (TimeMap.get x tm)) tm in
  { na = bump v.na; rlx = bump v.rlx }

let renumber f v =
  let na = TimeMap.renumber f v.na and rlx = TimeMap.renumber f v.rlx in
  if na == v.na && rlx == v.rlx then v else { na; rlx }

let pp ppf v =
  Format.fprintf ppf "(na:%a, rlx:%a)" TimeMap.pp v.na TimeMap.pp v.rlx

(* Delta rendering, for the replay debugger: only the locations whose
   timestamp moved between two views, component-wise. *)
let delta ~prev v =
  let vars tm = List.map fst (TimeMap.bindings tm) in
  let all =
    List.sort_uniq Stdlib.compare
      (vars prev.na @ vars prev.rlx @ vars v.na @ vars v.rlx)
  in
  List.filter_map
    (fun x ->
      let d get m0 m1 =
        let a = get x m0 and b = get x m1 in
        if a = b then None else Some b
      in
      match (d TimeMap.get prev.na v.na, d TimeMap.get prev.rlx v.rlx) with
      | None, None -> None
      | na, rlx -> Some (x, na, rlx))
    all

let pp_delta ~prev ppf v =
  match delta ~prev v with
  | [] -> Format.pp_print_string ppf "(unchanged)"
  | ds ->
      let item ppf (x, na, rlx) =
        let comp tag ppf = function
          | None -> ()
          | Some r -> Format.fprintf ppf " %s->%a" tag Time.pp r
        in
        Format.fprintf ppf "%s:%a%a" x (comp "na") na (comp "rlx") rlx
      in
      Format.fprintf ppf "@[<h>%a@]"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           item)
        ds
