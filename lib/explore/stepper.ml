module TidMap = Ps.Machine.TidMap

type state = {
  world : Ps.Machine.world;
  bit : bool;
  promised : int TidMap.t;
}

type kind = Thread_step | Promise_step | Switch_step

type succ = {
  kind : kind;
  choice : int;
  tid : int;
  event : Ps.Event.te option;
  state : state;
  renumbering : Ps.Memory.renumbering option;
}

let init p =
  Result.map
    (fun world -> { world; bit = true; promised = TidMap.empty })
    (Ps.Machine.init p)

let compare_state a b =
  let ( <?> ) c next = if c <> 0 then c else next () in
  Ps.Machine.compare a.world b.world <?> fun () ->
  Bool.compare a.bit b.bit <?> fun () ->
  TidMap.compare Int.compare a.promised b.promised

let equal_state a b = compare_state a b = 0

let committed_stats ~config ~program st =
  Ps.Cert.consistent_stats ~fuel:config.Config.cert_fuel
    ~cap:config.Config.cap_certification ~code:program.Lang.Ast.code
    (Ps.Machine.cur_ts st.world) st.world.Ps.Machine.mem

let committed ~config ~program st = fst (committed_stats ~config ~program st)

(* The successor enumeration.  Order and gating mirror the committed
   machine-step space of {!Enum}/{!Witness}: any thread step of the
   current thread (the non-preemptive discipline threads the switch
   bit), outputs only when consistent; promise steps within the
   per-thread budget (and, non-preemptively, only while the bit is
   on); switches from consistent configurations to unfinished threads.
   Everything is deterministic, so [(kind, choice)] pairs replay. *)
let successors ~config ~discipline ~program st =
  let code = program.Lang.Ast.code in
  let world = st.world in
  let ts = Ps.Machine.cur_ts world in
  let mem = world.Ps.Machine.mem in
  let cur = world.Ps.Machine.cur in
  let consistent ts mem =
    Ps.Cert.consistent ~fuel:config.Config.cert_fuel
      ~cap:config.Config.cap_certification ~code ts mem
  in
  let committed = lazy (consistent ts mem) in
  let bit_after te =
    match discipline with
    | Enum.Interleaving -> Some true
    | Enum.Non_preemptive -> Npsem.bit_after te ~before:st.bit
  in
  let thread_succs =
    List.concat
      (List.mapi
         (fun i (s : Ps.Thread.step) ->
           match bit_after s.Ps.Thread.event with
           | None -> []
           | Some bit' ->
               let allowed =
                 match s.Ps.Thread.event with
                 | Ps.Event.Out _ -> Lazy.force committed
                 | _ -> true
               in
               if not allowed then []
               else
                 let world, renumbering =
                   Ps.Machine.install world s.Ps.Thread.ts s.Ps.Thread.mem
                 in
                 [
                   {
                     kind = Thread_step;
                     choice = i;
                     tid = cur;
                     event = Some s.Ps.Thread.event;
                     state = { world; bit = bit'; promised = st.promised };
                     renumbering;
                   };
                 ])
         (Ps.Thread.steps ~code ts mem))
  in
  let spent =
    match TidMap.find_opt cur st.promised with Some k -> k | None -> 0
  in
  let promise_succs =
    if
      spent < config.Config.max_promises
      && (discipline = Enum.Interleaving || st.bit)
      && not (Ps.Local.is_finished ts.Ps.Thread.local)
    then
      let candidates =
        match config.Config.promise_mode with
        | Config.No_promises -> []
        | Config.Syntactic -> Ps.Thread.writes_in_code ~code ts
        | Config.Semantic ->
            Ps.Cert.certifiable_writes ~fuel:config.Config.cert_fuel ~code ts
              mem
      in
      List.concat
        (List.mapi
           (fun i (s : Ps.Thread.step) ->
             if consistent s.Ps.Thread.ts s.Ps.Thread.mem then
               let world, renumbering =
                 Ps.Machine.install world s.Ps.Thread.ts s.Ps.Thread.mem
               in
               [
                 {
                   kind = Promise_step;
                   choice = i;
                   tid = cur;
                   event = Some s.Ps.Thread.event;
                   state =
                     {
                       world;
                       bit = st.bit;
                       promised = TidMap.add cur (spent + 1) st.promised;
                     };
                   renumbering;
                 };
               ]
             else [])
           (Ps.Thread.promise_steps ~candidates
              ~atomics:program.Lang.Ast.atomics ts mem))
    else []
  in
  let switch_succs =
    let may_switch =
      (match discipline with
      | Enum.Interleaving -> true
      | Enum.Non_preemptive ->
          st.bit || Ps.Local.is_finished ts.Ps.Thread.local)
      && Lazy.force committed
    in
    if may_switch then
      List.rev
        (TidMap.fold
           (fun tid ts' acc ->
             if tid <> cur && not (Ps.Local.is_finished ts'.Ps.Thread.local)
             then
               {
                 kind = Switch_step;
                 choice = tid;
                 tid;
                 event = None;
                 state =
                   {
                     world = Ps.Machine.switch world tid;
                     bit = true;
                     promised = st.promised;
                   };
                 renumbering = None;
               }
               :: acc
             else acc)
           world.Ps.Machine.tp [])
    else []
  in
  thread_succs @ promise_succs @ switch_succs

let apply ~config ~discipline ~program st kind ~choice =
  List.find_opt
    (fun s -> s.kind = kind && s.choice = choice)
    (successors ~config ~discipline ~program st)

let drive ~config ~discipline ~program schedule =
  match init program with
  | Error _ -> None
  | Ok st0 ->
      let exception Done of succ list in
      (* Backtracking over the successor enumeration: several distinct
         machine steps can carry the same (tid, event) label — e.g.
         two readable messages with the same value — so the first
         matching candidate is not necessarily the one that lets the
         rest of the schedule complete. *)
      let rec go st schedule acc =
        match schedule with
        | [] ->
            if Ps.Machine.terminal st.world then raise (Done (List.rev acc))
        | (tid, ev) :: rest ->
            let succs = successors ~config ~discipline ~program st in
            if tid = st.world.Ps.Machine.cur then
              List.iter
                (fun s ->
                  match (s.kind, s.event) with
                  | (Thread_step | Promise_step), Some e
                    when Ps.Event.equal_te e ev ->
                      go s.state rest (s :: acc)
                  | _ -> ())
                succs
            else
              (* Insert the context switch the schedule implies.  At
                 most one switch successor targets [tid], and after it
                 the thread is current, so this cannot loop. *)
              List.iter
                (fun s ->
                  if s.kind = Switch_step && s.tid = tid then
                    go s.state schedule (s :: acc))
                succs
      in
      (try
         go st0 schedule [];
         None
       with Done trail -> Some (st0, trail))

let trail_states st0 trail =
  st0 :: List.map (fun s -> s.state) trail

let pp_kind ppf k =
  Format.pp_print_string ppf
    (match k with
    | Thread_step -> "step"
    | Promise_step -> "promise"
    | Switch_step -> "switch")
