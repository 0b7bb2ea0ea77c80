module RegMap = Lang.Ast.VarMap

type frame = { fn : Lang.Ast.fname; ret : Lang.Ast.label }

type pos =
  | Running of {
      fn : Lang.Ast.fname;
      rest : Lang.Ast.instr list;
      term : Lang.Ast.terminator;
      left : int;
    }
  | Finished

type t = {
  regs : Lang.Ast.value RegMap.t;
  pos : pos;
  stack : frame list;
}

let enter (code : Lang.Ast.code) fn l =
  match Lang.Ast.FnameMap.find_opt fn code with
  | None -> None
  | Some ch -> (
      match Lang.Ast.LabelMap.find_opt l ch.Lang.Ast.blocks with
      | None -> None
      | Some b ->
          let rest = b.Lang.Ast.instrs in
          Some
            (Running
               { fn; rest; term = b.Lang.Ast.term; left = List.length rest }))

let init code fn =
  match Lang.Ast.FnameMap.find_opt fn code with
  | None -> None
  | Some ch -> (
      match enter code fn ch.Lang.Ast.entry with
      | None -> None
      | Some pos -> Some { regs = RegMap.empty; pos; stack = [] })

let reg r t = match RegMap.find_opt r t.regs with Some v -> v | None -> 0

let set_reg r v t =
  (* Keep the map sparse so structural equality is extensional. *)
  let regs = if v = 0 then RegMap.remove r t.regs else RegMap.add r v t.regs in
  { t with regs }

let eval t e = Lang.Expr.eval (fun r -> reg r t) e
let is_finished t = t.pos = Finished

type next =
  | NInstr of Lang.Ast.instr
  | NTerm of Lang.Ast.terminator
  | NDone

let nxt t =
  match t.pos with
  | Finished -> NDone
  | Running { rest = i :: _; _ } -> NInstr i
  | Running { rest = []; term; _ } -> NTerm term

let goto code fn l t =
  match enter code fn l with
  | None -> None
  | Some pos -> Some { t with pos }

let step_over t =
  match t.pos with
  | Running ({ rest = _ :: rest; left; _ } as r) ->
      { t with pos = Running { r with rest; left = left - 1 } }
  | _ -> invalid_arg "Local.step_over: no pending instruction"

let compare (a : t) (b : t) =
  (* [regs] is a map: compare it with the map's own canonical order,
     never with polymorphic compare (equal maps may have different
     internal tree shapes).  [pos] and [stack] are plain data; [left]
     is [pos]'s last field and a function of [rest], so it does not
     change the order. *)
  let c = RegMap.compare Int.compare a.regs b.regs in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.pos b.pos in
    if c <> 0 then c else Stdlib.compare a.stack b.stack

(* [compare = 0], cheapest test first.  Two positions in one run of
   identical instructions differ only in [left]; the structural
   fallback on [rest] and [term] (polymorphic [compare], which stops
   at shared sub-terms) is reached only by equal positions not
   sharing their lists. *)
let equal_pos a b =
  a == b
  ||
  match (a, b) with
  | Running ra, Running rb ->
      ra.left = rb.left
      && String.equal ra.fn rb.fn
      && Stdlib.compare ra.rest rb.rest = 0
      && Stdlib.compare ra.term rb.term = 0
  | Finished, Finished -> true
  | _ -> false

let equal_frame (f : frame) (g : frame) =
  String.equal f.fn g.fn && String.equal f.ret g.ret

let equal a b =
  a == b
  || equal_pos a.pos b.pos
     && Share.Vars.equal Int.equal a.regs b.regs
     && Share.list_equal equal_frame a.stack b.stack

let hash (t : t) =
  (* [regs] is a map: fold bindings in key order (equal maps may have
     different tree shapes).  [pos] and [stack] are plain data, where
     structural equality licenses the structural [Hashtbl.hash].  That
     hash reads [pos] breadth first, so [left], a field of [Running],
     is among the first values it mixes: it is the field that
     separates the points of a run of identical instructions. *)
  let regs =
    RegMap.fold
      (fun r v h -> Time.hash_combine (Time.hash_combine h (Hashtbl.hash r)) v)
      t.regs 0x10ca1
  in
  Time.hash_combine
    (Time.hash_combine regs (Hashtbl.hash t.pos))
    (Hashtbl.hash t.stack)

let pp ppf t =
  let pos ppf = function
    | Finished -> Format.pp_print_string ppf "finished"
    | Running { fn; left; term; _ } ->
        Format.fprintf ppf "%s[+%d instrs; %a]" fn left
          Lang.Pp.pp_terminator term
  in
  Format.fprintf ppf "{regs=%a; pos=%a; depth=%d}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       (fun ppf (r, v) -> Format.fprintf ppf "%s=%d" r v))
    (RegMap.bindings t.regs) pos t.pos (List.length t.stack)
