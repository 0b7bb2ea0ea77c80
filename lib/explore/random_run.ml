type run_result = {
  trace : Ps.Event.trace;
  steps : int;
  final : Ps.Machine.world;
}

(* Promise-free: with no promise steps the current thread is always
   consistent, so every thread step and switch is enabled. *)
let config = Config.with_promises 0 Config.default

let run ?(seed = 0) ?(max_steps = 10_000) (p : Lang.Ast.program) =
  match Stepper.init p with
  | Error e -> Error e
  | Ok st0 ->
      let stepper = Stepper.create ~config ~discipline:Enum.Interleaving p in
      let rng = Random.State.make [| seed |] in
      let rec go st outs steps =
        let finish ending steps =
          Ok
            {
              trace = { Ps.Event.outs = List.rev outs; ending };
              steps;
              final = Stepper.world st;
            }
        in
        if steps >= max_steps then finish Ps.Event.Cut steps
        else if Ps.Machine.terminal (Stepper.world st) then
          finish Ps.Event.Done (steps + 1)
        else
          match Stepper.successors stepper st with
          | [] -> finish Ps.Event.Open (steps + 1)
          | succs ->
              let s =
                List.nth succs (Random.State.int rng (List.length succs))
              in
              let outs =
                match s.Stepper.event with
                | Some (Ps.Event.Out v) -> v :: outs
                | _ -> outs
              in
              go s.Stepper.next outs (steps + 1)
      in
      go st0 [] 0

let run_exn ?seed ?max_steps p =
  match run ?seed ?max_steps p with
  | Ok r -> r
  | Error e -> raise (Errors.Error (Errors.Ill_formed e))

let sample ?(seed = 0) ?max_steps ~runs p =
  let tbl = Hashtbl.create 16 in
  for i = 0 to runs - 1 do
    let r = run_exn ~seed:(seed + i) ?max_steps p in
    if r.trace.Ps.Event.ending = Ps.Event.Done then
      let outs = r.trace.Ps.Event.outs in
      Hashtbl.replace tbl outs
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl outs))
  done;
  Hashtbl.fold (fun outs n acc -> (outs, n) :: acc) tbl []
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)
