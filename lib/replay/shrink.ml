module Stepper = Explore.Stepper
module Witness = Explore.Witness
module Ast = Lang.Ast
module IntSet = Set.Make (Int)

(* ------------------------------------------------------------------ *)
(* Generic ddmin. *)

let split_chunks items n =
  let len = List.length items in
  let base = len / n and extra = len mod n in
  let rec go i items acc =
    if i = n then List.rev acc
    else
      let take = base + if i < extra then 1 else 0 in
      let rec split k xs pre =
        if k = 0 then (List.rev pre, xs)
        else
          match xs with
          | [] -> (List.rev pre, [])
          | x :: xs -> split (k - 1) xs (x :: pre)
      in
      let chunk, rest = split take items [] in
      go (i + 1) rest (chunk :: acc)
  in
  List.filter (fun c -> c <> []) (go 0 items [])

let complement_of items chunk =
  List.filter (fun x -> not (List.memq x chunk)) items

let ddmin ~check items =
  if check [] then []
  else
    let rec go items n =
      let len = List.length items in
      if len <= 1 then items
      else
        let chunks = split_chunks items n in
        match List.find_opt check chunks with
        | Some c -> go c 2
        | None -> (
            let complements =
              if n = 2 then [] (* same as the chunks just tried *)
              else List.map (complement_of items) chunks
            in
            match List.find_opt check complements with
            | Some c -> go c (max (n - 1) 2)
            | None -> if n < len then go items (min len (2 * n)) else items)
    in
    go items 2

(* ------------------------------------------------------------------ *)
(* Schedule shrinking. *)

type schedule_result = {
  witness : Witness.t;
  init : Stepper.state;
  trail : Stepper.succ list;
  switches_before : int;
  switches_after : int;
  candidates_tried : int;
}

(* Maximal runs of steps by the same thread, in order. *)
let segments (w : Witness.t) =
  let rec go acc cur cur_tid = function
    | [] -> List.rev (if cur = [] then acc else (cur_tid, List.rev cur) :: acc)
    | (s : Witness.step) :: rest ->
        if cur <> [] && s.tid = cur_tid then go acc (s :: cur) cur_tid rest
        else
          go
            (if cur = [] then acc else (cur_tid, List.rev cur) :: acc)
            [ s ] s.tid rest
  in
  go [] [] (-1) w

(* Rebuild a schedule keeping only the switch points in [kept]
   (boundary [i] sits before segment [i]; segment 0 is always
   emitted).  A dropped segment's events are deferred — prepended, in
   original order, to the next emitted segment of the same thread, or
   appended at the tail if none follows. *)
let rebuild segs kept =
  let keptset = List.fold_left (Fun.flip IntSet.add) IntSet.empty kept in
  (* [pending]: tid -> deferred steps, assoc list in first-deferral
     order so the tail is deterministic. *)
  let take_pending pending tid =
    match List.assoc_opt tid pending with
    | None -> ([], pending)
    | Some steps -> (steps, List.remove_assoc tid pending)
  in
  let add_pending pending tid steps =
    match List.assoc_opt tid pending with
    | None -> pending @ [ (tid, steps) ]
    | Some _ ->
        List.map
          (fun (t, ss) -> if t = tid then (t, ss @ steps) else (t, ss))
          pending
  in
  let rec go i pending acc = function
    | [] ->
        let tail = List.concat_map snd pending in
        List.concat (List.rev acc) @ tail
    | (tid, steps) :: rest ->
        if i = 0 || IntSet.mem i keptset then
          let pfx, pending = take_pending pending tid in
          go (i + 1) pending ((pfx @ steps) :: acc) rest
        else go (i + 1) (add_pending pending tid steps) acc rest
  in
  go 0 [] [] segs

let outs_of (w : Witness.t) =
  List.filter_map
    (fun (s : Witness.step) ->
      match s.event with Ps.Event.Out v -> Some v | _ -> None)
    w

let count_switches trail =
  List.length
    (List.filter (fun (s : Stepper.succ) -> s.kind = Stepper.Switch_step) trail)

let drive_witness stepper (w : Witness.t) =
  Stepper.drive stepper
    (List.map (fun (s : Witness.step) -> (s.tid, s.event)) w)

let schedule ?config ?(discipline = Explore.Enum.Interleaving) program
    (w : Witness.t) =
  (* One stepper for every candidate: they all replay the same
     program, so its certification caches carry over. *)
  let stepper = Stepper.create ?config ~discipline program in
  match drive_witness stepper w with
  | None -> Error "schedule does not drive to a terminal state"
  | Some (_, trail0) ->
      let segs = segments w in
      let n_segs = List.length segs in
      let boundaries = List.init (max 0 (n_segs - 1)) (fun i -> i + 1) in
      let outs0 = outs_of w in
      let tried = ref 0 in
      (* Deferral changes positions, never per-thread order — but it
         can reorder [Out] events across threads, so the observable
         sequence is re-checked explicitly. *)
      let check kept =
        incr tried;
        let cand = rebuild segs kept in
        outs_of cand = outs0
        && Option.is_some (drive_witness stepper cand)
      in
      let kept = ddmin ~check boundaries in
      let witness = rebuild segs kept in
      (* Re-drive the winner for the final trail (ddmin only kept the
         boolean). *)
      (match drive_witness stepper witness with
      | None -> Error "internal: accepted candidate no longer drives"
      | Some (init, trail) ->
          Ok
            {
              witness;
              init;
              trail;
              switches_before = count_switches trail0;
              switches_after = count_switches trail;
              candidates_tried = !tried;
            })

(* ------------------------------------------------------------------ *)
(* Program shrinking. *)

(* Size counts only code reachable from the running threads, so
   dropping a thread strictly helps even though its function stays in
   the heap. *)
let reachable (p : Ast.program) =
  let module SS = Set.Make (String) in
  let rec go seen = function
    | [] -> seen
    | f :: todo ->
        if SS.mem f seen then go seen todo
        else
          let seen = SS.add f seen in
          let callees =
            match Ast.FnameMap.find_opt f p.code with
            | None -> []
            | Some ch ->
                Ast.LabelMap.fold
                  (fun _ (b : Ast.block) acc ->
                    match b.term with
                    | Ast.Call (g, _) -> g :: acc
                    | _ -> acc)
                  ch.Ast.blocks []
          in
          go seen (callees @ todo)
  in
  go SS.empty p.threads

let rec expr_size = function
  | Ast.Reg _ -> 1
  | Ast.Val k -> 1 + min (abs k) 999
  | Ast.Bin (_, a, b) -> 1 + expr_size a + expr_size b

let instr_size = function
  | Ast.Load _ | Ast.Skip | Ast.Fence _ -> 1000
  | Ast.Store (_, e, _) | Ast.Assign (_, e) | Ast.Print e ->
      1000 + expr_size e
  | Ast.Cas (_, _, er, ew, _, _) -> 1000 + expr_size er + expr_size ew

let term_size = function
  | Ast.Jmp _ | Ast.Return -> 100
  | Ast.Be (e, _, _) -> 500 + expr_size e
  | Ast.Call _ -> 100

let size (p : Ast.program) =
  let module SS = Set.Make (String) in
  let live = reachable p in
  (* weigh the thread list itself so a dropped thread always counts *)
  (10000 * List.length p.threads)
  + Ast.FnameMap.fold
      (fun f (ch : Ast.codeheap) acc ->
        if not (SS.mem f live) then acc
        else
          Ast.LabelMap.fold
            (fun _ (b : Ast.block) acc ->
              List.fold_left (fun acc i -> acc + instr_size i) acc b.instrs
              + term_size b.term)
            ch.Ast.blocks acc)
      p.code 0

let rec expr_shrinks = function
  | Ast.Reg _ | Ast.Val 0 -> []
  | Ast.Val k ->
      Ast.Val 0 :: (if k / 2 <> 0 && k / 2 <> k then [ Ast.Val (k / 2) ] else [])
  | Ast.Bin (op, a, b) ->
      List.map (fun a' -> Ast.Bin (op, a', b)) (expr_shrinks a)
      @ List.map (fun b' -> Ast.Bin (op, a, b')) (expr_shrinks b)

let instr_shrinks = function
  | Ast.Store (x, e, o) ->
      List.map (fun e' -> Ast.Store (x, e', o)) (expr_shrinks e)
  | Ast.Assign (r, e) ->
      List.map (fun e' -> Ast.Assign (r, e')) (expr_shrinks e)
  | Ast.Print e -> List.map (fun e' -> Ast.Print e') (expr_shrinks e)
  | Ast.Cas (r, x, er, ew, o1, o2) ->
      List.map (fun e' -> Ast.Cas (r, x, e', ew, o1, o2)) (expr_shrinks er)
      @ List.map (fun e' -> Ast.Cas (r, x, er, e', o1, o2)) (expr_shrinks ew)
  | Ast.Load _ | Ast.Skip | Ast.Fence _ -> []

let term_shrinks = function
  | Ast.Be (e, l1, l2) ->
      Ast.Jmp l1 :: Ast.Jmp l2
      :: List.map (fun e' -> Ast.Be (e', l1, l2)) (expr_shrinks e)
  | Ast.Jmp _ | Ast.Call _ | Ast.Return -> []

let with_block (p : Ast.program) f l (b : Ast.block) =
  let ch = Ast.FnameMap.find f p.code in
  let ch = { ch with Ast.blocks = Ast.LabelMap.add l b ch.Ast.blocks } in
  { p with Ast.code = Ast.FnameMap.add f ch p.code }

let drop_nth n l = List.filteri (fun i _ -> i <> n) l

let candidates (p : Ast.program) =
  let threads =
    if List.length p.threads <= 1 then []
    else
      List.mapi
        (fun i _ -> { p with Ast.threads = drop_nth i p.threads })
        p.threads
  in
  let per_block =
    Ast.FnameMap.fold
      (fun f (ch : Ast.codeheap) acc ->
        Ast.LabelMap.fold
          (fun l (b : Ast.block) acc ->
            let drops =
              List.mapi
                (fun i _ ->
                  with_block p f l
                    { b with Ast.instrs = drop_nth i b.Ast.instrs })
                b.Ast.instrs
            in
            let terms =
              List.map
                (fun t' -> with_block p f l { b with Ast.term = t' })
                (term_shrinks b.Ast.term)
            in
            let consts =
              List.concat
                (List.mapi
                   (fun i ins ->
                     List.map
                       (fun ins' ->
                         with_block p f l
                           {
                             b with
                             Ast.instrs =
                               List.mapi
                                 (fun j x -> if j = i then ins' else x)
                                 b.Ast.instrs;
                           })
                       (instr_shrinks ins))
                   b.Ast.instrs)
            in
            drops @ terms @ consts @ acc)
          ch.Ast.blocks acc)
      p.code []
  in
  threads @ per_block

let program ~keep p0 =
  let tried = ref 0 in
  let ok p =
    incr tried;
    (match Lang.Wf.check p with Ok () -> true | Error _ -> false) && keep p
  in
  let rec go p =
    let sz = size p in
    match List.find_opt (fun c -> size c < sz && ok c) (candidates p) with
    | Some c -> go c
    | None -> p
  in
  (* bind before pairing: tuple components evaluate right-to-left, so
     [(go p0, !tried)] would read the counter before any candidate ran *)
  let p = go p0 in
  (p, !tried)
