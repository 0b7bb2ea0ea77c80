module RegMap = Lang.Ast.VarMap

type frame = { fn : Lang.Ast.fname; ret : Lang.Ast.label }

type pos =
  | Running of {
      fn : Lang.Ast.fname;
      rest : Lang.Ast.instr list;
      term : Lang.Ast.terminator;
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
          Some (Running { fn; rest = b.Lang.Ast.instrs; term = b.Lang.Ast.term }))

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
  | Running ({ rest = _ :: rest; _ } as r) ->
      { t with pos = Running { r with rest } }
  | _ -> invalid_arg "Local.step_over: no pending instruction"

let compare (a : t) (b : t) =
  (* [regs] is a map: compare it with the map's own canonical order,
     never with polymorphic compare (equal maps may have different
     internal tree shapes).  [pos] and [stack] are plain data. *)
  let c = RegMap.compare Int.compare a.regs b.regs in
  if c <> 0 then c
  else
    let c = Stdlib.compare a.pos b.pos in
    if c <> 0 then c else Stdlib.compare a.stack b.stack

let equal a b = compare a b = 0

let hash (t : t) =
  (* [regs] is a map: fold bindings in key order (equal maps may have
     different tree shapes).  [pos] and [stack] are plain data, where
     structural equality licenses the structural [Hashtbl.hash]. *)
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
    | Running { fn; rest; term } ->
        Format.fprintf ppf "%s[+%d instrs; %a]" fn (List.length rest)
          Lang.Pp.pp_terminator term
  in
  Format.fprintf ppf "{regs=%a; pos=%a; depth=%d}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       (fun ppf (r, v) -> Format.fprintf ppf "%s=%d" r v))
    (RegMap.bindings t.regs) pos t.pos (List.length t.stack)
