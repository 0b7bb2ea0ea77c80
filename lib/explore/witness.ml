module TidMap = Ps.Machine.TidMap

type step = { tid : int; event : Ps.Event.te }
type t = step list

(* The witness search walks {!Enum}'s successor relation (through
   {!Stepper}, shared with the replay debugger), but tracks how much of
   the requested output sequence has been emitted and returns the
   path. *)

module Visited = Hashtbl.Make (struct
  type t = Stepper.state * int  (* search node, outputs matched *)

  let equal (s1, k1) (s2, k2) = k1 = k2 && Stepper.equal_state s1 s2
  let hash (s, k) = Ps.Time.hash_combine (Stepper.hash_state s) k
end)

let find_trail ?(config = Config.default) ?(discipline = Enum.Interleaving)
    ?(eager_switch = false) ~outs (p : Lang.Ast.program) =
  match Stepper.init p with
  | Error e -> raise (Errors.Error (Errors.Ill_formed e))
  | Ok st0 ->
      let stepper = Stepper.create ~config ~discipline p in
      let target = Array.of_list outs in
      let visited = Visited.create 1024 in
      let exception Found of Stepper.succ list in
      let rec dfs st matched depth acc =
        if
          depth < config.Config.max_steps
          && not (Visited.mem visited (st, matched))
        then begin
          Visited.add visited (st, matched) ();
          if
            matched = Array.length target
            && Ps.Machine.terminal (Stepper.world st)
          then raise (Found (List.rev acc));
          let succs = Stepper.successors stepper st in
          let succs =
            (* Eager-switch order: try context switches before thread
               and promise steps, so the first witness found is
               switch-heavy — a realistic "buggy schedule" for the
               shrinker to reduce (default DFS order yields schedules
               that are already near switch-minimal). *)
            if eager_switch then
              let sw, rest =
                List.partition
                  (fun (s : Stepper.succ) -> s.kind = Stepper.Switch_step)
                  succs
              in
              sw @ rest
            else succs
          in
          List.iter
            (fun (s : Stepper.succ) ->
              match s.event with
              | Some (Ps.Event.Out v) ->
                  if matched < Array.length target && v = target.(matched) then
                    dfs s.next (matched + 1) (depth + 1) (s :: acc)
              | _ -> dfs s.next matched (depth + 1) (s :: acc))
            succs
        end
      in
      (try
         dfs st0 0 0 [];
         None
       with Found trail -> Some (st0, trail))

let of_trail trail =
  List.filter_map
    (fun (s : Stepper.succ) ->
      match s.event with
      | Some event -> Some { tid = Stepper.tid s; event }
      | None -> None)
    trail

let find ?config ?discipline ~outs p =
  Option.map
    (fun (_, trail) -> of_trail trail)
    (find_trail ?config ?discipline ~outs p)

let forbidden ?config ~outs p =
  (* No witness, and the behaviour set is exact: bounded-exhaustive
     unobservability. *)
  match find ?config ~outs p with
  | Some _ -> false
  | None ->
      let o = Enum.behaviors_exn ?config Enum.Interleaving p in
      o.Enum.exact

(* ------------------------------------------------------------------ *)
(* Annotation: replay the schedule deterministically and cross-link
   each promise with the fulfillment that later discharges it. *)

type note =
  | Plain
  | Promises of { msg : string; fulfilled_at : int option }
  | Fulfills of { msg : string; promised_at : int option }

type annotated_step = {
  num : int;  (** absolute trail position, context switches included *)
  tid : int;
  event : Ps.Event.te option;  (** [None] for a context switch *)
  note : note;
}

(* Promise identity: a promised message is uniquely determined by its
   location and "to"-timestamp (intervals of one location are
   disjoint), which survives the view updates fulfillment may apply.
   Across steps the timestamp moves with each step's renumbering. *)
let msg_id m = (Ps.Message.var m, Ps.Message.to_ m)

let moved renumbering ((x, t) as id) =
  match renumbering with
  | None -> id
  | Some r -> (x, Ps.Memory.apply r x t)

let msg_to_string m = Format.asprintf "%a" Ps.Message.pp m

let prm_of_tid st tid =
  match TidMap.find_opt tid (Stepper.world st).Ps.Machine.tp with
  | Some ts -> ts.Ps.Thread.prm
  | None -> []

let annotate ?(config = Config.default) ?(discipline = Enum.Interleaving)
    (p : Lang.Ast.program) (w : t) =
  let schedule = List.map (fun (s : step) -> (s.tid, s.event)) w in
  match Stepper.drive (Stepper.create ~config ~discipline p) schedule with
  | None -> None
  | Some (st0, trail) ->
      let states = Array.of_list (Stepper.trail_states st0 trail) in
      let steps = Array.of_list trail in
      let n = Array.length steps in
      (* [carry i j id]: the id, in state [j]'s numbering, of a message
         of state [i]. *)
      let rec carry i j id =
        if i >= j then id
        else carry (i + 1) j (moved steps.(i).renumbering id)
      in
      (* Per trail position: the message a promise step announced, and
         the promised messages a fulfillment removed from its thread's
         promise set. *)
      let promised_msg i =
        let s = steps.(i) in
        if s.event <> Some Ps.Event.Prm then None
        else
          match
            Ps.Memory.added ?renumbering:s.renumbering
              ~prev:(Stepper.world states.(i)).Ps.Machine.mem
              (Stepper.world states.(i + 1)).Ps.Machine.mem
          with
          | [ m ] -> Some m
          | _ -> None
      in
      let fulfilled_msgs i =
        let s = steps.(i) in
        if s.kind <> Stepper.Thread_step then []
        else
          let before = prm_of_tid states.(i) (Stepper.tid s) in
          let after = prm_of_tid states.(i + 1) (Stepper.tid s) in
          let after_ids = List.map msg_id after in
          List.filter
            (fun m ->
              not (List.mem (moved s.renumbering (msg_id m)) after_ids))
            before
      in
      let annotated =
        List.init n (fun i ->
            let s = steps.(i) in
            let note =
              match promised_msg i with
              | Some m ->
                  let rec fulfill_at j =
                    if j >= n then None
                    else
                      let id = carry (i + 1) j (msg_id m) in
                      if
                        List.exists (fun m' -> msg_id m' = id) (fulfilled_msgs j)
                      then Some j
                      else fulfill_at (j + 1)
                  in
                  Promises
                    { msg = msg_to_string m; fulfilled_at = fulfill_at (i + 1) }
              | None -> (
                  match fulfilled_msgs i with
                  | [] -> Plain
                  | m :: _ ->
                      let rec promise_at j =
                        if j < 0 then None
                        else
                          match promised_msg j with
                          | Some m'
                            when carry (j + 1) i (msg_id m') = msg_id m ->
                              Some j
                          | _ -> promise_at (j - 1)
                      in
                      Fulfills
                        { msg = msg_to_string m; promised_at = promise_at (i - 1) })
            in
            { num = i; tid = Stepper.tid s; event = s.event; note })
      in
      Some annotated

(* ------------------------------------------------------------------ *)
(* Printing. *)

let is_visible = function
  | Ps.Event.Tau | Ps.Event.Ccl | Ps.Event.Rsv -> false
  | _ -> true

let pp_step ppf ({ tid; event } : step) =
  Format.fprintf ppf "t%d: %a" tid Ps.Event.pp_te event

let numbered w = List.mapi (fun i s -> (i, s)) w

let pp_numbered ppf (i, s) = Format.fprintf ppf "%d. %a" i pp_step s

let pp ppf w =
  Format.fprintf ppf "[@[<hov>%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_numbered)
    (List.filter (fun (_, (s : step)) -> is_visible s.event) (numbered w))

let pp_full ppf w =
  Format.fprintf ppf "[@[<hov>%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_numbered)
    (numbered w)

let pp_annotated_step ppf (s : annotated_step) =
  (match s.event with
  | Some e -> Format.fprintf ppf "%d. t%d: %a" s.num s.tid Ps.Event.pp_te e
  | None -> Format.fprintf ppf "%d. -> t%d" s.num s.tid);
  match s.note with
  | Plain -> ()
  | Promises { msg; fulfilled_at = Some j } ->
      Format.fprintf ppf " {promises %s, fulfilled at %d}" msg j
  | Promises { msg; fulfilled_at = None } ->
      Format.fprintf ppf " {promises %s, never fulfilled}" msg
  | Fulfills { msg; promised_at = Some j } ->
      Format.fprintf ppf " {fulfills %s promised at %d}" msg j
  | Fulfills { msg; promised_at = None } ->
      Format.fprintf ppf " {fulfills %s}" msg

let annotated_is_visible (s : annotated_step) =
  match s.event with None -> true | Some e -> is_visible e

let pp_annotated ppf steps =
  Format.fprintf ppf "[@[<v>%a@]]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       pp_annotated_step)
    (List.filter annotated_is_visible steps)
