type config = {
  max_depth : int;
  src_burst : int;
  wind_down : int;
  max_promises : int;
}

let default_config =
  { max_depth = 400; src_burst = 6; wind_down = 24; max_promises = 1 }

type verdict = Holds | Fails of string | Unknown of string

let pp_verdict ppf = function
  | Holds -> Format.pp_print_string ppf "holds"
  | Fails why -> Format.fprintf ppf "fails: %s" why
  | Unknown why -> Format.fprintf ppf "unknown: %s" why

(* ------------------------------------------------------------------ *)
(* Game states *)

type gstate = {
  tst : Ps.Thread.ts;
  mem_t : Ps.Memory.t;
  sst : Ps.Thread.ts;
  mem_s : Ps.Memory.t;
  phi : Tmap.t;
  d : Delayed.t;
  bit : bool;
  promised : int;
}

module GKey = struct
  type t = gstate

  let compare a b =
    let ( <?> ) c next = if c <> 0 then c else next () in
    Ps.Thread.compare a.tst b.tst <?> fun () ->
    Ps.Memory.compare a.mem_t b.mem_t <?> fun () ->
    Ps.Thread.compare a.sst b.sst <?> fun () ->
    Ps.Memory.compare a.mem_s b.mem_s <?> fun () ->
    Tmap.compare a.phi b.phi <?> fun () ->
    Delayed.compare a.d b.d <?> fun () ->
    Bool.compare a.bit b.bit <?> fun () -> Int.compare a.promised b.promised
end

module GMap = Map.Make (GKey)

(* ------------------------------------------------------------------ *)
(* Step bookkeeping helpers *)

(* The "to"-timestamp of the write to [x] a step just performed (a
   fresh message, an update or a fulfilled promise): every write lands
   above the writer's view, so it is the writer's new relaxed view of
   [x].  Read off the thread state, it follows the state through any
   renumbering. *)
let written_ts (ts : Ps.Thread.ts) x =
  Ps.View.TimeMap.get x ts.Ps.Thread.view.Ps.View.rlx

(* Both sides of a game state, φ and D through one map, built from the
   union of both memories' endpoints: target and source timestamps
   stay comparable, so equalities across the sides (Iid's φ = id) are
   kept, and a source step slotted into a gap the target just split
   lands on the target's new endpoints. *)
let canonical g =
  match Ps.Memory.renumbering_pair g.mem_t g.mem_s with
  | None -> g
  | Some r ->
      let f = Ps.Memory.apply r in
      {
        g with
        tst = Ps.Thread.renumber f g.tst;
        mem_t = Ps.Memory.renumber r g.mem_t;
        sst = Ps.Thread.renumber f g.sst;
        mem_s = Ps.Memory.renumber r g.mem_s;
        phi = Tmap.renumber f g.phi;
        d = Delayed.renumber f g.d;
      }

(* The promised message a Prm step added. *)
let promised_msg before_ts after_ts =
  List.find_opt
    (fun m -> not (List.exists (Ps.Message.equal m) before_ts.Ps.Thread.prm))
    after_ts.Ps.Thread.prm

let is_na_event te = Ps.Event.classify te = Ps.Event.NA

(* ------------------------------------------------------------------ *)
(* The game *)



let check ?(config = default_config) ?(scenarios = ([] : Scenario.t list))
    ~inv ~atomics ~target ~source fname =
  let vars =
    Lang.Ast.VarSet.union
      (Lang.Ast.FnameMap.fold
         (fun _ ch acc -> Lang.Ast.VarSet.union acc (Lang.Cfg.vars_of_codeheap ch))
         target Lang.Ast.VarSet.empty)
      (Lang.Ast.FnameMap.fold
         (fun _ ch acc -> Lang.Ast.VarSet.union acc (Lang.Cfg.vars_of_codeheap ch))
         source Lang.Ast.VarSet.empty)
    |> Lang.Ast.VarSet.elements
  in
  match (Ps.Thread.init target fname, Ps.Thread.init source fname) with
  | None, _ | _, None -> Fails (fname ^ " has no body")
  | Some tst, Some sst ->
      let m0 = Ps.Memory.init vars in
      if not (inv.Invariant.holds (Tmap.init vars) (m0, m0) atomics) then
        Fails "wf(I): invariant does not hold initially"
      else
        let memo = ref GMap.empty in
        let first_failure = ref None in
        let fail fmt =
          Format.kasprintf
            (fun s ->
              if !first_failure = None then first_failure := Some s;
              false)
            fmt
        in
        (* One source NA step, with the (src-D) rule: a source write
           discharges the oldest pending target write on its location
           and extends φ over it. *)
        let src_step g (ss : Ps.Thread.step) =
          let phi, d =
            match ss.Ps.Thread.event with
            | Ps.Event.Wr (_, x, _) -> (
                match Delayed.oldest_on x g.d with
                | Some pending_ts ->
                    ( Tmap.add x pending_ts
                        (written_ts ss.Ps.Thread.ts x)
                        g.phi,
                      Delayed.discharge x g.d )
                | None -> (g.phi, g.d))
            | _ -> (g.phi, g.d)
          in
          canonical
            { g with sst = ss.Ps.Thread.ts; mem_s = ss.Ps.Thread.mem; phi; d }
        in
        let src_na_steps g =
          List.filter
            (fun (ss : Ps.Thread.step) -> is_na_event ss.Ps.Thread.event)
            (Ps.Thread.steps ~code:source g.sst g.mem_s)
        in
        (* Source responses: all states reachable by 0..burst source
           NA steps. *)
        let rec src_bursts burst g acc =
          let acc = g :: acc in
          if burst = 0 then acc
          else
            List.fold_left
              (fun acc ss -> src_bursts (burst - 1) (src_step g ss) acc)
              acc (src_na_steps g)
        in
        (* Can the source wind down to a finished, promise-free state
           within the budget? *)
        let rec wind_down fuel g k =
          (Ps.Thread.is_terminal g.sst && k g)
          || fuel > 0
             && List.exists
                  (fun ss -> wind_down (fuel - 1) (src_step g ss) k)
                  (src_na_steps g)
        in
        let rec sim (g : gstate) depth on_path =
          match GMap.find_opt g !memo with
          | Some r -> r
          | None ->
              if GMap.mem g on_path then true (* coinduction *)
              else if depth >= config.max_depth then
                raise
                  (Explore.Errors.Error
                     (Explore.Errors.Budget_exhausted
                        "simulation depth budget"))
              else
                let on_path = GMap.add g true on_path in
                let r = sim_body g depth on_path in
                memo := GMap.add g r !memo;
                r
        and sim_body g depth on_path =
          (* Termination clause. *)
          if Ps.Thread.is_terminal g.tst then
            wind_down config.wind_down g (fun g ->
                Delayed.is_empty g.d
                && Invariant.holds_wf inv g.phi (g.mem_t, g.mem_s) atomics)
            || fail "termination: source cannot wind down with D empty and I"
          else
            let tsteps = Ps.Thread.steps ~code:target g.tst g.mem_t in
            let psteps =
              if g.promised >= config.max_promises || not g.bit then []
              else
                let cands =
                  Ps.Cert.certifiable_writes ~code:target g.tst g.mem_t
                in
                Ps.Thread.promise_steps ~candidates:cands ~atomics g.tst
                  g.mem_t
                |> List.filter (fun (s : Ps.Thread.step) ->
                       Ps.Cert.consistent ~code:target s.Ps.Thread.ts
                         s.Ps.Thread.mem)
            in
            if tsteps = [] && psteps = [] then
              (* stuck target (e.g. unfulfillable promise): vacuously
                 simulated — such executions never commit *)
              true
            else
              List.for_all
                (fun (s : Ps.Thread.step) -> match_step g s depth on_path)
                tsteps
              && List.for_all
                   (fun (s : Ps.Thread.step) ->
                     match_promise g s depth on_path)
                   psteps
        and match_step g (s : Ps.Thread.step) depth on_path =
          let te = s.Ps.Thread.event in
          (* The target has stepped; the source answers from there. *)
          let stepped d =
            canonical
              { g with tst = s.Ps.Thread.ts; mem_t = s.Ps.Thread.mem; d }
          in
          match Ps.Event.classify te with
          | Ps.Event.NA -> (
              (* (tgt-D): a target na write becomes a pending item. *)
              let d1 =
                match te with
                | Ps.Event.Wr (_, x, _) ->
                    Delayed.record_target_write x
                      (written_ts s.Ps.Thread.ts x)
                      g.d
                | _ -> g.d
              in
              let ok =
                List.exists
                  (fun g2 ->
                    match Delayed.decrease g2.d with
                    | None -> false (* an index ran out: source too late *)
                    | Some d3 ->
                        sim { g2 with d = d3; bit = false } (depth + 1) on_path)
                  (src_bursts config.src_burst (stepped d1) [])
              in
              match ok with
              | true -> true
              | false ->
                  fail "NA diagram: no source response for %s"
                    (Format.asprintf "%a" Ps.Event.pp_te te))
          | Ps.Event.AT -> (
              (* catch-up bursts, then the same atomic event *)
              let ok =
                List.exists
                  (fun g2 ->
                    Delayed.is_empty g2.d
                    && List.exists
                         (fun (ss : Ps.Thread.step) ->
                           Ps.Event.equal_te ss.Ps.Thread.event te
                           &&
                           (* extend φ over an atomic write *)
                           let phi =
                             match te with
                             | Ps.Event.Wr (_, x, _)
                             | Ps.Event.Upd (_, _, x, _, _) ->
                                 Tmap.add x (written_ts g2.tst x)
                                   (written_ts ss.Ps.Thread.ts x)
                                   g2.phi
                             | _ -> g2.phi
                           in
                           let g3 =
                             canonical
                               {
                                 g2 with
                                 sst = ss.Ps.Thread.ts;
                                 mem_s = ss.Ps.Thread.mem;
                                 phi;
                                 bit = true;
                               }
                           in
                           Invariant.holds_wf inv g3.phi (g3.mem_t, g3.mem_s)
                             atomics
                           && sim g3 (depth + 1) on_path)
                         (Ps.Thread.steps ~code:source g2.sst g2.mem_s))
                  (src_bursts config.src_burst (stepped g.d) [])
              in
              match ok with
              | true -> true
              | false ->
                  fail
                    "AT diagram: source cannot match %s with D empty and I \
                     re-established"
                    (Format.asprintf "%a" Ps.Event.pp_te te))
          | Ps.Event.PRC ->
              (* reserve/cancel steps are not enumerated for the
                 target here (promises are handled separately) *)
              true
        and match_promise g (s : Ps.Thread.step) depth on_path =
          match promised_msg g.tst s.Ps.Thread.ts with
          | None -> true
          | Some pm -> (
              let x = Ps.Message.var pm in
              let v = Option.value ~default:0 (Ps.Message.value pm) in
              let cands = [ (x, v) ] in
              let ok =
                Ps.Thread.promise_steps ~candidates:cands ~atomics g.sst
                  g.mem_s
                |> List.exists (fun (ss : Ps.Thread.step) ->
                       match promised_msg g.sst ss.Ps.Thread.ts with
                       | None -> false
                       | Some sm ->
                           let g3 =
                             canonical
                               {
                                 tst = s.Ps.Thread.ts;
                                 mem_t = s.Ps.Thread.mem;
                                 sst = ss.Ps.Thread.ts;
                                 mem_s = ss.Ps.Thread.mem;
                                 phi =
                                   Tmap.add x (Ps.Message.to_ pm)
                                     (Ps.Message.to_ sm) g.phi;
                                 d = g.d;
                                 bit = true;
                                 promised = g.promised + 1;
                               }
                           in
                           Invariant.holds_wf inv g3.phi (g3.mem_t, g3.mem_s)
                             atomics
                           && sim g3 (depth + 1) on_path)
              in
              match ok with
              | true -> true
              | false ->
                  fail "promise diagram: source cannot promise (%s,%d)" x v)
        in
        (* One game per environment scenario: the simulation must
           survive every modelled interference (the empty scenario
           included). *)
        let game scenario =
          let mem0, phi0 =
            List.fold_left
              (fun (mem, phi) msg ->
                match Ps.Memory.add msg mem with
                | Ok mem ->
                    ( mem,
                      Tmap.add (Ps.Message.var msg) (Ps.Message.to_ msg)
                        (Ps.Message.to_ msg) phi )
                | Error _ -> (mem, phi))
              (m0, Tmap.init vars) scenario
          in
          let g0 =
            {
              tst;
              mem_t = mem0;
              sst;
              mem_s = mem0;
              phi = phi0;
              d = Delayed.empty;
              bit = true;
              promised = 0;
            }
          in
          sim (canonical g0) 0 GMap.empty
        in
        let outcome =
          try
            if List.for_all game ([] :: scenarios) then Holds
            else
              Fails
                (Option.value ~default:"no matching strategy" !first_failure)
          with Explore.Errors.Error (Explore.Errors.Budget_exhausted why) ->
            Unknown (why ^ " exhausted")
        in
        outcome

let check_program ?config ~inv ~target ~source () =
  let fnames = List.sort_uniq String.compare target.Lang.Ast.threads in
  List.map
    (fun f ->
      let scenarios = Scenario.of_program source ~except:f in
      ( f,
        check ?config ~scenarios ~inv ~atomics:target.Lang.Ast.atomics
          ~target:target.Lang.Ast.code ~source:source.Lang.Ast.code f ))
    fnames
