type stage =
  | Source_ww_rf
  | Simulation of Lang.Ast.fname
  | Refinement
  | Target_ww_rf

type verdict = Verified | Fail of stage * string | Inconclusive of string

type registered = {
  name : string;
  transform : Lang.Ast.program -> Lang.Ast.program;
  invariant : Invariant.t;
}

let reg name (pass : Opt.Pass.t) invariant =
  { name; transform = pass.Opt.Pass.run; invariant }

let registry =
  [
    reg "constprop" Opt.Constprop.pass Invariant.iid;
    reg "dce" Opt.Dce.pass Invariant.idce;
    reg "cse" Opt.Cse.pass Invariant.iid;
    reg "copyprop" Opt.Copyprop.pass Invariant.iid;
    reg "linv" Opt.Linv.pass Invariant.iid;
    reg "licm" Opt.Licm.pass Invariant.iid;
    reg "cleanup" Opt.Cleanup.pass Invariant.iid;
  ]

let find name = List.find_opt (fun r -> String.equal r.name name) registry

let pp_stage ppf = function
  | Source_ww_rf -> Format.pp_print_string ppf "ww-RF(source)"
  | Simulation f -> Format.fprintf ppf "simulation(%s)" f
  | Refinement -> Format.pp_print_string ppf "refinement"
  | Target_ww_rf -> Format.pp_print_string ppf "ww-RF(target)"

let pp_verdict ppf = function
  | Verified -> Format.pp_print_string ppf "verified"
  | Fail (st, why) -> Format.fprintf ppf "failed at %a: %s" pp_stage st why
  | Inconclusive why -> Format.fprintf ppf "inconclusive: %s" why

let check ?sim_config ?explore_config r (src : Lang.Ast.program) =
  let tgt = r.transform src in
  let ecfg =
    match explore_config with Some c -> c | None -> Explore.Config.default
  in
  let unchanged = Lang.Ast.equal_program tgt src in
  (* Only a function the pass changed (in its call closure) plays a
     simulation game; the identity answers the rest (docs/SEMANTICS.md,
     "Unchanged functions"). *)
  let games =
    not (List.for_all (Simcheck.identity ~target:tgt ~source:src) tgt.Lang.Ast.threads)
  in
  let outer, inner =
    Explore.Pool.split ~j:ecfg.Explore.Config.domains
      ~tasks:((if unchanged then 1 else 3) + if games then 1 else 0)
  in
  (* With a domain budget > 1 the stages are evaluated eagerly as pool
     tasks (the budget split by [Pool.split]); sequentially they stay
     lazy so the original early exit is preserved.  Either way the
     verdict is decided by inspecting the stages in pipeline order,
     and each stage's result is deterministic, so the verdict is
     identical. *)
  let scfg =
    if outer > 1 then Some { ecfg with Explore.Config.domains = inner }
    else explore_config
  in
  (* The stages share walks (docs/SEMANTICS.md, "One walk per
     program").  The source's ww-RF stays its own reachability scan,
     run first.  The scan expands each state once until it cuts one,
     where the memoized walk expands a state once per memo miss (iriw:
     4,852 against 11,397 expansions); under a step cut the memoized
     walk also re-expands cut subtrees along every path, and costs far
     more than the scan. *)
  let src_rf = lazy (Race.ww_rf ?config:scfg src) in
  let sims =
    lazy
      (Simcheck.check_changed ?config:sim_config ~inv:r.invariant ~target:tgt
         ~source:src ())
  in
  let walks, refn, tgt_rf =
    if unchanged then
      (* Refinement holds by reflexivity, and the target's ww-RF is the
         source's: the source's scan is the only walk. *)
      ([], Lazy.from_val Explore.Refine.Refines, src_rf)
    else if ecfg.Explore.Config.reduction = Explore.Config.no_reduction then
      (* The target's behaviour walk also decides its ww-RF. *)
      let tgt_walk =
        lazy
          (match Race.behaviors_ww_rf ?config:scfg tgt with
          | Ok r -> r
          | Error e -> raise (Explore.Errors.Error (Explore.Errors.Ill_formed e)))
      in
      let src_walk =
        lazy (Explore.Enum.behaviors_exn ?config:scfg Explore.Enum.Interleaving src)
      in
      ( [ (fun () -> ignore (Lazy.force tgt_walk));
          (fun () -> ignore (Lazy.force src_walk)) ],
        lazy
          (Explore.Refine.of_outcomes
             ~target:(fst (Lazy.force tgt_walk))
             ~source:(Lazy.force src_walk)),
        lazy (Ok (snd (Lazy.force tgt_walk))) )
    else
      (* Reduction prunes states a race scan must see: four walks. *)
      let refn =
        lazy
          (Explore.Refine.check ?config:scfg ~target:tgt ~source:src ())
            .Explore.Refine.verdict
      in
      let tgt_rf = lazy (Race.ww_rf ?config:scfg tgt) in
      ( [ (fun () -> ignore (Lazy.force refn));
          (fun () -> ignore (Lazy.force tgt_rf)) ],
        refn,
        tgt_rf )
  in
  if outer > 1 then
    ignore
      (Explore.Pool.map ~j:outer
         (fun f -> f ())
         ((fun () -> ignore (Lazy.force src_rf))
         :: ((if games then [ (fun () -> ignore (Lazy.force sims)) ] else [])
            @ walks)));
  (* 1. The theorem's premise: the source is ww-race-free. *)
  match Lazy.force src_rf with
  | Error e -> Inconclusive e
  | Ok (Race.Inconclusive why) ->
      Inconclusive (Format.asprintf "ww-RF(source): %s" why)
  | Ok (Race.Racy race) ->
      Fail (Source_ww_rf, Format.asprintf "%a" Race.pp_race race)
  | Ok Race.Free -> (
      (* 2. Thread-local simulations (Def. 6.1, one per function). *)
      let bad_sim =
        List.find_opt (fun (_, v) -> v <> Simcheck.Holds) (Lazy.force sims)
      in
      match bad_sim with
      | Some (f, Simcheck.Fails why) -> Fail (Simulation f, why)
      | Some (f, Simcheck.Unknown why) ->
          Inconclusive (Format.asprintf "simulation(%s): %s" f why)
      | Some (_, Simcheck.Holds) -> assert false
      | None -> (
          (* 3. Whole-program refinement of the bounded behaviour sets.
             A refinement failure outranks a target race. *)
          match Lazy.force refn with
          | Explore.Refine.Violates bad ->
              Fail
                ( Refinement,
                  Format.asprintf "%a" Ps.Event.pp_trace (List.hd bad) )
          | Explore.Refine.Inconclusive why -> Inconclusive why
          | Explore.Refine.Refines -> (
              (* 4. ww-RF preservation (Lemma 6.2). *)
              match Lazy.force tgt_rf with
              | Error e -> Inconclusive e
              | Ok (Race.Inconclusive why) ->
                  Inconclusive (Format.asprintf "ww-RF(target): %s" why)
              | Ok (Race.Racy race) ->
                  Fail (Target_ww_rf, Format.asprintf "%a" Race.pp_race race)
              | Ok Race.Free -> Verified)))
