open Lang.Ast

(* dom.(l) = set of labels dominating l, for reachable l. *)
type t = {
  dom : (label, VarSet.t) Hashtbl.t;  (* label sets; VarSet is a string set *)
  idom : (label, label option) Hashtbl.t;
  entry : label;
}

let compute (ch : codeheap) =
  let rpo = Lang.Cfg.reverse_postorder ch in
  let preds = Lang.Cfg.predecessors ch in
  let reachable = VarSet.of_list rpo in
  let all = VarSet.of_list rpo in
  let dom = Hashtbl.create 16 in
  Hashtbl.replace dom ch.entry (VarSet.singleton ch.entry);
  List.iter
    (fun l -> if not (String.equal l ch.entry) then Hashtbl.replace dom l all)
    rpo;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if not (String.equal l ch.entry) then
          let ps =
            match LabelMap.find_opt l preds with
            | Some ps -> List.filter (fun p -> VarSet.mem p reachable) ps
            | None -> []
          in
          let meet =
            List.fold_left
              (fun acc p ->
                let dp = Hashtbl.find dom p in
                match acc with
                | None -> Some dp
                | Some s -> Some (VarSet.inter s dp))
              None ps
          in
          let nd =
            match meet with
            | None -> VarSet.singleton l (* unreachable-from-preds *)
            | Some s -> VarSet.add l s
          in
          if not (VarSet.equal nd (Hashtbl.find dom l)) then (
            Hashtbl.replace dom l nd;
            changed := true))
      rpo
  done;
  (* Immediate dominators: the dominator with the largest dominator
     set other than the node itself. *)
  let idom = Hashtbl.create 16 in
  List.iter
    (fun l ->
      let ds = VarSet.remove l (Hashtbl.find dom l) in
      let best =
        VarSet.fold
          (fun d acc ->
            let size = VarSet.cardinal (Hashtbl.find dom d) in
            match acc with
            | Some (_, s) when s >= size -> acc
            | _ -> Some (d, size))
          ds None
      in
      Hashtbl.replace idom l (Option.map fst best))
    rpo;
  { dom; idom; entry = ch.entry }

let dominates t a b =
  match Hashtbl.find_opt t.dom b with
  | Some s -> VarSet.mem a s
  | None -> true (* unreachable: vacuous *)

let idom t l = match Hashtbl.find_opt t.idom l with Some d -> d | None -> None
