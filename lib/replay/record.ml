module Stepper = Explore.Stepper
module TidMap = Ps.Machine.TidMap

let msg_to_string m = Format.asprintf "%a" Ps.Message.pp m

let view_of st tid =
  match TidMap.find_opt tid (Stepper.world st).Ps.Machine.tp with
  | Some ts -> Some ts.Ps.Thread.view
  | None -> None

(* The location a step touched: read/write/CAS carry it in the event;
   promise/reserve/cancel steps are identified through the memory
   delta (Prm carries no payload). *)
let loc_of (s : Stepper.succ) ~added ~removed =
  match s.event with
  | Some
      ( Ps.Event.Rd (_, x, _)
      | Ps.Event.Wr (_, x, _)
      | Ps.Event.Upd (_, _, x, _, _) ) ->
      Some x
  | Some (Ps.Event.Prm | Ps.Event.Rsv) -> (
      match added with m :: _ -> Some (Ps.Message.var m) | [] -> None)
  | Some Ps.Event.Ccl -> (
      match removed with m :: _ -> Some (Ps.Message.var m) | [] -> None)
  | _ -> None

let records_of_trail ~config ~program st0 trail =
  let rec go num prev acc = function
    | [] -> List.rev acc
    | (s : Stepper.succ) :: rest ->
        let next = s.next in
        (* The step may have renumbered every timestamp: read [prev]
           through its renumbering, so only what the step did shows. *)
        let renumbering = s.renumbering in
        let prev_world = Stepper.world prev in
        let mem = (Stepper.world next).Ps.Machine.mem in
        let added =
          Ps.Memory.added ?renumbering ~prev:prev_world.Ps.Machine.mem mem
        in
        let removed =
          Ps.Memory.removed ?renumbering ~prev:prev_world.Ps.Machine.mem mem
        in
        (* The certification gate of the pre-state, with its search
           effort. *)
        let committed, cert_states =
          Ps.Cert.consistent_stats ~fuel:config.Explore.Config.cert_fuel
            ~cap:config.Explore.Config.cap_certification
            ~code:program.Lang.Ast.code
            (Ps.Machine.cur_ts prev_world) prev_world.Ps.Machine.mem
        in
        let view_delta =
          let moved v =
            match renumbering with
            | Some r -> Ps.View.renumber (Ps.Memory.apply r) v
            | None -> v
          in
          match
            ( Option.map moved (view_of prev (Stepper.tid s)),
              view_of next (Stepper.tid s) )
          with
          | Some v0, Some v1 when not (Ps.View.equal v0 v1) ->
              Some (Format.asprintf "%a" (Ps.View.pp_delta ~prev:v0) v1)
          | _ -> None
        in
        let r =
          {
            Trace.num;
            tid = Stepper.tid s;
            kind = s.kind;
            choice = s.choice;
            event = s.event;
            loc = loc_of s ~added ~removed;
            committed;
            cert_states;
            msgs_added = List.map msg_to_string added;
            view_delta;
          }
        in
        go (num + 1) next (r :: acc) rest
  in
  go 0 st0 [] trail

let header ?(note = "witness") ~config ~discipline ~outs program =
  {
    Trace.version = Trace.current_version;
    program;
    discipline;
    outs;
    config;
    note;
  }

let write_trail ~config ~discipline ~note ~outs ~path program st0 trail =
  let records = records_of_trail ~config ~program st0 trail in
  let h = header ?note ~config ~discipline ~outs program in
  match Store.write_all path h records with
  | Ok () -> Ok (List.length records)
  | Error m -> Error m

let record_witness ?(config = Explore.Config.default)
    ?(discipline = Explore.Enum.Interleaving) ?(eager_switch = false) ?note
    ~outs ~path program =
  match
    Explore.Witness.find_trail ~config ~discipline ~eager_switch ~outs program
  with
  | None -> Error "no witness found within the configured bounds"
  | Some (st0, trail) ->
      write_trail ~config ~discipline ~note ~outs ~path program st0 trail

let record_schedule ?(config = Explore.Config.default)
    ?(discipline = Explore.Enum.Interleaving) ?note ~outs ~path program w =
  let schedule =
    List.map (fun (s : Explore.Witness.step) -> (s.tid, s.event)) w
  in
  match Stepper.drive (Stepper.create ~config ~discipline program) schedule with
  | None -> Error "schedule does not drive to a terminal state"
  | Some (st0, trail) ->
      write_trail ~config ~discipline ~note ~outs ~path program st0 trail
