open Lang

type ts = {
  local : Local.t;
  view : View.t;
  vacq : View.t;
  vrel : View.t;
  vrel_loc : View.t Ast.VarMap.t;
      (* per-location release views: set by a release write to x,
         carried by subsequent relaxed writes to x — the release
         sequences of PS.  Sparse; absent locations are ⊥, and ⊥ is
         never stored so that comparison stays extensional. *)
  prm : Message.t list;
}

let init code fn =
  match Local.init code fn with
  | None -> None
  | Some local ->
      Some
        {
          local;
          view = View.bot;
          vacq = View.bot;
          vrel = View.bot;
          vrel_loc = Ast.VarMap.empty;
          prm = [];
        }

let vrel_of x t =
  match Ast.VarMap.find_opt x t.vrel_loc with
  | Some v -> View.join t.vrel v
  | None -> t.vrel

let set_vrel_loc x v t =
  if View.equal v View.bot then t
  else { t with vrel_loc = Ast.VarMap.add x v t.vrel_loc }

let compare (a : ts) (b : ts) =
  let ( <?> ) c next = if c <> 0 then c else next () in
  Local.compare a.local b.local <?> fun () ->
  View.compare a.view b.view <?> fun () ->
  View.compare a.vacq b.vacq <?> fun () ->
  View.compare a.vrel b.vrel <?> fun () ->
  Ast.VarMap.compare View.compare a.vrel_loc b.vrel_loc <?> fun () ->
  List.compare Message.compare a.prm b.prm

(* [compare = 0], the local state first (its position count tells
   apart most states that are not equal). *)
let equal a b =
  a == b
  || Local.equal a.local b.local
     && View.equal a.view b.view
     && View.equal a.vacq b.vacq
     && View.equal a.vrel b.vrel
     && Share.Vars.equal View.equal a.vrel_loc b.vrel_loc
     && Share.list_equal Message.equal a.prm b.prm

let hash (t : ts) =
  let ( ++ ) = Time.hash_combine in
  let vrel_loc =
    Ast.VarMap.fold
      (fun x v h -> h ++ Hashtbl.hash x ++ View.hash v)
      t.vrel_loc 0x7e1
  in
  let prm = List.fold_left (fun h m -> h ++ Message.hash m) 0x975 t.prm in
  Local.hash t.local ++ View.hash t.view ++ View.hash t.vacq
  ++ View.hash t.vrel ++ vrel_loc ++ prm

let renumber f t =
  let view = View.renumber f t.view
  and vacq = View.renumber f t.vacq
  and vrel = View.renumber f t.vrel
  and vrel_loc = Share.Vars.mapi (fun _ v -> View.renumber f v) t.vrel_loc
  and prm = Share.list_map (Message.renumber f) t.prm in
  if
    view == t.view && vacq == t.vacq && vrel == t.vrel
    && vrel_loc == t.vrel_loc && prm == t.prm
  then t
  else { t with view; vacq; vrel; vrel_loc; prm }

let canonical t mem =
  match Memory.renumbering [ mem ] with
  | None -> (t, mem)
  | Some r -> (renumber (Memory.apply r) t, Memory.renumber r mem)

let pp ppf t =
  Format.fprintf ppf "@[<v>local: %a@ view: %a@ promises: %a@]" Local.pp
    t.local View.pp t.view
    (Format.pp_print_list Message.pp)
    t.prm

let concrete_promises t = List.filter Message.is_concrete t.prm

let has_promise_on x t =
  List.exists
    (fun m -> Message.is_concrete m && String.equal (Message.var m) x)
    t.prm

let is_terminal t = Local.is_finished t.local && concrete_promises t = []

type step = { event : Event.te; ts : ts; mem : Memory.t }

let add_prm m t = { t with prm = List.sort Message.compare (m :: t.prm) }
let remove_prm m t =
  { t with prm = List.filter (fun m' -> not (Message.equal m m')) t.prm }

(* ------------------------------------------------------------------ *)
(* Reads *)

let read_results mode x (t : ts) mem =
  List.filter_map
    (fun m ->
      match (Message.value m, Message.view m) with
      | Some v, Some mview ->
          let view = View.observe_read mode x (Message.to_ m) t.view in
          let t' =
            match mode with
            | Modes.Na -> { t with view }
            | Modes.Rlx ->
                { t with view; vacq = View.join t.vacq mview }
            | Modes.Acq ->
                {
                  t with
                  view = View.join view mview;
                  vacq = View.join t.vacq mview;
                }
          in
          Some (v, Message.to_ m, t')
      | _ -> None)
    (Memory.readable mode x t.view mem)

(* ------------------------------------------------------------------ *)
(* Writes *)

(* The message view a fresh write would carry.  Non-atomic writes are
   non-synchronizing: bottom view.  Relaxed writes carry the location's
   release view — set by an earlier release write to the same location
   (release sequences) or by a release fence.  Release writes carry the
   thread's view updated with the write itself. *)
let fresh_msg_view mode x to_ (t : ts) =
  match mode with
  | Modes.WNa -> View.bot
  | Modes.WRlx -> vrel_of x t
  | Modes.WRel -> View.observe_write x to_ t.view

let write_results mode x v (t : ts) mem =
  let min = View.TimeMap.get x t.view.View.rlx in
  (* A release write requires all promises on x to have been fulfilled
     (PS: release writes cannot overtake the thread's own promises). *)
  if mode = Modes.WRel && has_promise_on x t then []
  else
    let fresh =
      List.map
        (fun (f, to_) ->
          let view = View.observe_write x to_ t.view in
          let mview = fresh_msg_view mode x to_ t in
          let msg = Message.msg ~var:x ~value:v ~from_:f ~to_ ~view:mview in
          let mem' = Memory.add_exn msg mem in
          let t' = { t with view } in
          (* A release write opens a release sequence on x: later
             relaxed writes to x carry its view. *)
          let t' =
            if mode = Modes.WRel then set_vrel_loc x mview t' else t'
          in
          (t', mem'))
        (Memory.write_slots x ~min mem)
    in
    let fulfill =
      if mode = Modes.WRel then []
      else
        List.filter_map
          (fun p ->
            match (Message.value p, Message.view p) with
            | Some pv, Some pview
              when String.equal (Message.var p) x
                   && pv = v
                   && Message.to_ p > min
                   && View.equal pview (fresh_msg_view mode x (Message.to_ p) t)
              ->
                let view = View.observe_write x (Message.to_ p) t.view in
                Some (remove_prm p { t with view }, mem)
            | _ -> None)
          (concrete_promises t)
    in
    fresh @ fulfill

(* ------------------------------------------------------------------ *)
(* Instruction dispatch *)

let steps ~code (t : ts) mem : step list =
  let tau local = [ { event = Event.Tau; ts = { t with local }; mem } ] in
  match Local.nxt t.local with
  | Local.NDone -> []
  | Local.NTerm term -> (
      match term with
      | Ast.Jmp l -> (
          match
            Local.goto code
              (match t.local.Local.pos with
              | Local.Running { fn; _ } -> fn
              | Local.Finished -> assert false)
              l t.local
          with
          | Some local -> tau local
          | None -> [])
      | Ast.Be (e, l1, l2) -> (
          let target = if Local.eval t.local e <> 0 then l1 else l2 in
          match
            Local.goto code
              (match t.local.Local.pos with
              | Local.Running { fn; _ } -> fn
              | Local.Finished -> assert false)
              target t.local
          with
          | Some local -> tau local
          | None -> [])
      | Ast.Call (f, lret) -> (
          let caller =
            match t.local.Local.pos with
            | Local.Running { fn; _ } -> fn
            | Local.Finished -> assert false
          in
          let frame = { Local.fn = caller; ret = lret } in
          match
            Local.goto code f
              (match Ast.FnameMap.find_opt f code with
              | Some ch -> ch.Ast.entry
              | None -> "?")
              t.local
          with
          | Some local -> tau { local with Local.stack = frame :: local.Local.stack }
          | None -> [])
      | Ast.Return -> (
          match t.local.Local.stack with
          | [] -> tau { t.local with Local.pos = Local.Finished }
          | frame :: stack -> (
              match
                Local.goto code frame.Local.fn frame.Local.ret
                  { t.local with Local.stack = stack }
              with
              | Some local -> tau local
              | None -> [])))
  | Local.NInstr i -> (
      let local = Local.step_over t.local in
      match i with
      | Ast.Skip -> tau local
      | Ast.Assign (r, e) ->
          let v = Local.eval t.local e in
          tau (Local.set_reg r v local)
      | Ast.Print e ->
          let v = Local.eval t.local e in
          [ { event = Event.Out v; ts = { t with local }; mem } ]
      | Ast.Fence f -> (
          match f with
          | Modes.FAcq ->
              [
                {
                  event = Event.Fnc f;
                  ts = { t with local; view = View.join t.view t.vacq };
                  mem;
                };
              ]
          | Modes.FRel ->
              if concrete_promises t <> [] then []
              else
                [
                  {
                    event = Event.Fnc f;
                    ts = { t with local; vrel = t.view };
                    mem;
                  };
                ]
          | Modes.FSc ->
              if concrete_promises t <> [] then []
              else
                let view = View.join t.view t.vacq in
                [
                  {
                    event = Event.Fnc f;
                    ts = { t with local; view; vrel = view };
                    mem;
                  };
                ])
      | Ast.Load (r, x, mode) ->
          List.map
            (fun (v, _ts, t') ->
              {
                event = Event.Rd (mode, x, v);
                ts = { t' with local = Local.set_reg r v local };
                mem;
              })
            (read_results mode x t mem)
      | Ast.Store (x, e, mode) ->
          let v = Local.eval t.local e in
          List.map
            (fun (t', mem') ->
              {
                event = Event.Wr (mode, x, v);
                ts = { t' with local };
                mem = mem';
              })
            (write_results mode x v t mem)
      | Ast.Cas (r, x, er, ew, rmode, wmode) ->
          let ver = Local.eval t.local er in
          let vew = Local.eval t.local ew in
          List.concat_map
            (fun (v, mts, t') ->
              if v <> ver then
                (* CAS failure: behaves as a read of mode [rmode]. *)
                [
                  {
                    event = Event.Rd (rmode, x, v);
                    ts = { t' with local = Local.set_reg r 0 local };
                    mem;
                  };
                ]
              else if wmode = Modes.WRel && has_promise_on x t then []
              else
                match Memory.attach_slot x ~after:mts mem with
                | None -> []
                | Some (f, to_) ->
                    let view = View.observe_write x to_ t'.view in
                    let t'' = { t' with view } in
                    (* An update inherits the view of the message it
                       reads from: release sequences extend through
                       RMW chains in PS. *)
                    let read_view =
                      match Memory.find x mts mem with
                      | Some m -> (
                          match Message.view m with
                          | Some mv -> mv
                          | None -> View.bot)
                      | None -> View.bot
                    in
                    let mview =
                      View.join (fresh_msg_view wmode x to_ t'') read_view
                    in
                    let msg =
                      Message.msg ~var:x ~value:vew ~from_:f ~to_ ~view:mview
                    in
                    let mem' = Memory.add_exn msg mem in
                    let t'' =
                      if wmode = Modes.WRel then set_vrel_loc x mview t''
                      else t''
                    in
                    [
                      {
                        event = Event.Upd (rmode, wmode, x, v, vew);
                        ts = { t'' with local = Local.set_reg r 1 local };
                        mem = mem';
                      };
                    ])
            (read_results rmode x t mem))

(* ------------------------------------------------------------------ *)
(* Promises, reservations, cancels *)

let promise_steps ~candidates ~atomics (t : ts) mem : step list =
  if Local.is_finished t.local then []
  else
    List.concat_map
      (fun (x, v) ->
        (* Promised messages carry the bottom view: only na/rlx writes
           can be promised and both are non-synchronizing.  A relaxed
           write after a release fence carries [vrel]; such writes are
           not promisable here (over-approximating PS2.1's restriction
           on promises past release fences). *)
        ignore atomics;
        let min = View.TimeMap.get x t.view.View.rlx in
        List.map
          (fun (f, to_) ->
            let msg =
              Message.msg ~var:x ~value:v ~from_:f ~to_ ~view:View.bot
            in
            let mem' = Memory.add_exn msg mem in
            { event = Event.Prm; ts = add_prm msg t; mem = mem' })
          (Memory.write_slots x ~min mem))
      candidates

let reserve_steps (t : ts) mem : step list =
  if Local.is_finished t.local then []
  else
    List.concat_map
      (fun x ->
        List.filter_map
          (fun m ->
            if not (Message.is_concrete m) then None
            else
              match Memory.attach_slot x ~after:(Message.to_ m) mem with
              | None -> None
              | Some (f, to_) ->
                  let r = Message.rsv ~var:x ~from_:f ~to_ in
                  let mem' = Memory.add_exn r mem in
                  Some { event = Event.Rsv; ts = add_prm r t; mem = mem' })
          (Memory.per_loc x mem))
      (Memory.vars mem)

let cancel_steps (t : ts) mem : step list =
  List.filter_map
    (fun m ->
      if Message.is_reservation m then
        Some
          {
            event = Event.Ccl;
            ts = remove_prm m t;
            mem = Memory.remove m mem;
          }
      else None)
    t.prm

(* ------------------------------------------------------------------ *)
(* Syntactic promise candidates *)

let writes_in_code ~code (t : ts) =
  match t.local.Local.pos with
  | Local.Finished -> []
  | Local.Running { fn; _ } ->
      (* Collect constant stores from every function reachable from
         the current one (a cheap, sound-for-candidates
         over-approximation; semantic candidates come from
         certification runs). *)
      let seen = Hashtbl.create 8 in
      let acc = ref [] in
      let rec visit f =
        if not (Hashtbl.mem seen f) then (
          Hashtbl.add seen f ();
          match Ast.FnameMap.find_opt f code with
          | None -> ()
          | Some ch ->
              Ast.LabelMap.iter
                (fun _ b ->
                  List.iter
                    (fun i ->
                      match i with
                      | Ast.Store (x, e, (Modes.WNa | Modes.WRlx)) -> (
                          match Lang.Expr.is_const e with
                          | Some v -> acc := (x, v) :: !acc
                          | None -> ())
                      | _ -> ())
                    b.Ast.instrs)
                ch.Ast.blocks;
              List.iter visit (Lang.Cfg.callees ch))
      in
      visit fn;
      List.sort_uniq Stdlib.compare !acc
