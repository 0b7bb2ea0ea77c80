type run_result = {
  trace : Ps.Event.trace;
  steps : int;
  final : Ps.Machine.world;
}

let run ?(seed = 0) ?(max_steps = 10_000) (p : Lang.Ast.program) =
  match Ps.Machine.init p with
  | Error e -> Error e
  | Ok world ->
      let rng = Random.State.make [| seed |] in
      let code = p.Lang.Ast.code in
      let outs = ref [] in
      let world = ref world in
      let steps = ref 0 in
      let ending = ref Ps.Event.Cut in
      (try
         while !steps < max_steps do
           incr steps;
           let w = !world in
           if Ps.Machine.terminal w then (
             ending := Ps.Event.Done;
             raise Exit);
           let ts = Ps.Machine.cur_ts w in
           let thread_steps =
             Ps.Thread.steps ~code ts w.Ps.Machine.mem
             |> List.map (fun (s : Ps.Thread.step) -> `Step s)
           in
           let switches =
             Ps.Machine.TidMap.fold
               (fun tid ts' acc ->
                 if
                   tid <> w.Ps.Machine.cur
                   && not (Ps.Local.is_finished ts'.Ps.Thread.local)
                 then `Switch tid :: acc
                 else acc)
               w.Ps.Machine.tp []
           in
           let choices = thread_steps @ switches in
           if choices = [] then (
             ending := Ps.Event.Open;
             raise Exit);
           match List.nth choices (Random.State.int rng (List.length choices))
           with
           | `Switch tid -> world := Ps.Machine.switch w tid
           | `Step s ->
               (match s.Ps.Thread.event with
               | Ps.Event.Out v -> outs := v :: !outs
               | _ -> ());
               world := fst (Ps.Machine.install w s.Ps.Thread.ts s.Ps.Thread.mem)
         done
       with Exit -> ());
      Ok
        {
          trace = { Ps.Event.outs = List.rev !outs; ending = !ending };
          steps = !steps;
          final = !world;
        }

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
