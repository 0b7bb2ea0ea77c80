let default_fuel = 128

module State = struct
  type t = Thread.ts * Memory.t

  let compare (ts1, m1) (ts2, m2) =
    let c = Thread.compare ts1 ts2 in
    if c <> 0 then c else Memory.compare m1 m2
end

module StateSet = Set.Make (State)
module StateMap = Map.Make (State)

(* The isolated thread's steps, each renumbered into canonical form
   when it left the grid: appends keep the capped memory canonical,
   but a write into the gap a cancelled reservation opened does not,
   and the next slot must again be computed on the grid. *)
let isolation_steps ~code ts mem =
  List.map
    (fun (s : Thread.step) ->
      if s.mem == mem then s
      else
        let ts, mem = Thread.canonical s.ts s.mem in
        { s with ts; mem })
    (Thread.steps ~code ts mem @ Thread.cancel_steps ts mem)

let consistent_stats ?(fuel = default_fuel) ?(cap = true) ~code
    (ts : Thread.ts) mem =
  if Thread.concrete_promises ts = [] then (true, 0)
  else
    let ts, mem = Thread.canonical ts (if cap then Memory.cap mem else mem) in
    (* Memoize the shallowest depth each state was explored at: a
       revisit with less remaining fuel can be pruned, a revisit with
       more fuel must be re-explored. *)
    let best = ref StateMap.empty in
    let expanded = ref 0 in
    let rec dfs ts mem depth =
      if Thread.concrete_promises ts = [] then true
      else if depth >= fuel then false
      else
        let key = (ts, mem) in
        match StateMap.find_opt key !best with
        | Some d when d <= depth -> false
        | _ ->
            best := StateMap.add key depth !best;
            incr expanded;
            List.exists
              (fun (s : Thread.step) -> dfs s.ts s.mem (depth + 1))
              (isolation_steps ~code ts mem)
    in
    let ok = dfs ts mem 0 in
    (ok, !expanded)

let consistent ?fuel ?cap ~code ts mem =
  fst (consistent_stats ?fuel ?cap ~code ts mem)

let certifiable_writes ?(fuel = default_fuel) ?(cap = true) ~code
    (ts : Thread.ts) mem =
  let ts, mem = Thread.canonical ts (if cap then Memory.cap mem else mem) in
  let visited = ref StateSet.empty in
  let acc = ref [] in
  let rec dfs ts mem depth =
    if depth < fuel && not (StateSet.mem (ts, mem) !visited) then (
      visited := StateSet.add (ts, mem) !visited;
      List.iter
        (fun (s : Thread.step) ->
          (match s.Thread.event with
          | Event.Wr ((Lang.Modes.WNa | Lang.Modes.WRlx), x, v) ->
              acc := (x, v) :: !acc
          | _ -> ());
          dfs s.Thread.ts s.Thread.mem (depth + 1))
        (isolation_steps ~code ts mem))
  in
  dfs ts mem 0;
  List.sort_uniq Stdlib.compare !acc
