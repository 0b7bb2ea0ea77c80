type state = Enum.Node.t
type kind = Enum.kind = Thread_step | Promise_step | Switch_step

type succ = Enum.succ = {
  kind : kind;
  choice : int;
  event : Ps.Event.te option;
  next : state;
  renumbering : Ps.Memory.renumbering option;
}

type t = { enum : Enum.stepper; program : Lang.Ast.program }

let create ?(config = Config.default) ~discipline program =
  { enum = Enum.stepper ~config discipline program; program }

let init p = Result.map Enum.root (Ps.Machine.init p)
let world = Enum.Node.world
let tid s = (world s.next).Ps.Machine.cur
let equal_state = Enum.Node.equal
let hash_state = Enum.Node.hash
let successors t st = Enum.successors t.enum st

let apply t st kind ~choice =
  List.find_opt (fun s -> s.kind = kind && s.choice = choice) (successors t st)

let drive t schedule =
  match init t.program with
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
            if Ps.Machine.terminal (world st) then raise (Done (List.rev acc))
        | (tid, ev) :: rest ->
            let succs = successors t st in
            if tid = (world st).Ps.Machine.cur then
              List.iter
                (fun s ->
                  match (s.kind, s.event) with
                  | (Thread_step | Promise_step), Some e
                    when Ps.Event.equal_te e ev ->
                      go s.next rest (s :: acc)
                  | _ -> ())
                succs
            else
              (* Insert the context switch the schedule implies.  At
                 most one switch successor targets [tid], and after it
                 the thread is current, so this cannot loop. *)
              List.iter
                (fun s ->
                  if s.kind = Switch_step && s.choice = tid then
                    go s.next schedule (s :: acc))
                succs
      in
      (try
         go st0 schedule [];
         None
       with Done trail -> Some (st0, trail))

let trail_states st0 trail = st0 :: List.map (fun s -> s.next) trail
