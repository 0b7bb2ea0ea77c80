module TidMap = Map.Make (Int)

type world = {
  tp : Thread.ts TidMap.t;
  cur : int;
  mem : Memory.t;
}

let init (p : Lang.Ast.program) =
  let vars = Lang.Ast.VarSet.elements (Lang.Cfg.vars_of_program p) in
  let mem = Memory.init vars in
  let rec build tid acc = function
    | [] -> Ok acc
    | f :: rest -> (
        match Thread.init p.Lang.Ast.code f with
        | Some ts -> build (tid + 1) (TidMap.add tid ts acc) rest
        | None -> Error (Printf.sprintf "thread function %s has no body" f))
  in
  match build 0 TidMap.empty p.Lang.Ast.threads with
  | Ok tp -> Ok { tp; cur = 0; mem }
  | Error e -> Error e

module Tids = Share.Map (TidMap)

let tids w = List.map fst (TidMap.bindings w.tp)
let cur_ts w = TidMap.find w.cur w.tp
let install w ts mem =
  let tp = TidMap.add w.cur ts w.tp in
  match Memory.renumbering [ mem ] with
  | None -> ({ w with tp; mem }, None)
  | Some r ->
      let f = Memory.apply r in
      ( {
          w with
          tp = Tids.mapi (fun _ ts -> Thread.renumber f ts) tp;
          mem = Memory.renumber r mem;
        },
        Some r )

let switch w t = { w with cur = t }

let all_finished w =
  TidMap.for_all (fun _ ts -> Local.is_finished ts.Thread.local) w.tp

let terminal w = TidMap.for_all (fun _ ts -> Thread.is_terminal ts) w.tp

let compare a b =
  let c = TidMap.compare Thread.compare a.tp b.tp in
  if c <> 0 then c
  else
    let c = Int.compare a.cur b.cur in
    if c <> 0 then c else Memory.compare a.mem b.mem

(* [compare = 0].  Equal worlds reached by
   different interleavings share most of their thread states and
   message lists, which the [==] tests of each layer catch. *)
let equal a b =
  a == b
  || a.cur = b.cur
     && Tids.equal Thread.equal a.tp b.tp
     && Memory.equal a.mem b.mem

let hash w =
  let tp =
    TidMap.fold
      (fun tid ts h ->
        Time.hash_combine (Time.hash_combine h tid) (Thread.hash ts))
      w.tp 0x3a3a
  in
  Time.hash_combine (Time.hash_combine tp w.cur) (Memory.hash w.mem)

let pp ppf w =
  Format.fprintf ppf "@[<v>cur: t%d@ mem:@ %a" w.cur Memory.pp w.mem;
  TidMap.iter
    (fun tid ts -> Format.fprintf ppf "t%d: %a@ " tid Thread.pp ts)
    w.tp;
  Format.fprintf ppf "@]"
