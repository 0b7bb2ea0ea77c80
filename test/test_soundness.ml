(* Property-based soundness: the paper's main theorems, checked on
   randomly generated two-thread programs (not just the hand-written
   corpus).

   - Theorem 4.1: interleaving and non-preemptive behaviour sets
     coincide.
   - Lemma 5.1: ww-RF and ww-NPRF agree.
   - Theorem 6.6 (executable form): every optimization pass produces a
     refinement of its source.
   - Lemma 6.2 (second conclusion): passes preserve ww-RF.

   Programs are small straight-line threads over two non-atomic
   locations and one atomic flag, each ending in a print of a register
   — enough to exercise reads/writes in all modes, fences and the
   print-order interleavings, while keeping exhaustive exploration
   fast. *)

open Lang.Ast

let instr_gen =
  let open QCheck.Gen in
  let reg = map (Printf.sprintf "r%d") (int_range 0 3) in
  let navar = oneofl [ "x"; "y" ] in
  let value = int_range 0 3 in
  let expr =
    oneof
      [
        map (fun v -> Val v) value;
        map (fun r -> Reg r) reg;
        map2 (fun r v -> Bin (Add, Reg r, Val v)) reg value;
      ]
  in
  frequency
    [
      (3, map2 (fun r x -> Load (r, x, Lang.Modes.Na)) reg navar);
      (3, map2 (fun x e -> Store (x, e, Lang.Modes.WNa)) navar expr);
      (2, map2 (fun r e -> Assign (r, e)) reg expr);
      (1, map (fun r -> Load (r, "f", Lang.Modes.Rlx)) reg);
      (1, map (fun r -> Load (r, "f", Lang.Modes.Acq)) reg);
      (1, map (fun e -> Store ("f", e, Lang.Modes.WRlx)) expr);
      (1, map (fun e -> Store ("f", e, Lang.Modes.WRel)) expr);
      (1, oneofl [ Fence Lang.Modes.FAcq; Fence Lang.Modes.FRel ]);
      (1, return Skip);
    ]

let thread_gen name =
  QCheck.Gen.(
    map
      (fun instrs ->
        let instrs = instrs @ [ Print (Reg "r0") ] in
        (name, codeheap ~entry:"L" [ ("L", block instrs Return) ]))
      (list_size (int_range 1 4) instr_gen))

let program_gen =
  QCheck.Gen.(
    map2
      (fun t1 t2 ->
        program ~atomics:[ "f" ] ~code:[ t1; t2 ] [ "t1"; "t2" ])
      (thread_gen "t1") (thread_gen "t2"))

let arbitrary_program =
  QCheck.make ~print:Lang.Pp.program_to_string program_gen

(* A tighter exploration configuration: random programs are tiny, and
   one promise per thread is where all the interesting weak behaviour
   lives. *)
let config = { Explore.Config.default with max_steps = 300 }

let test_thm41 =
  QCheck.Test.make ~count:40 ~name:"Theorem 4.1 on random programs"
    arbitrary_program (fun p ->
      Explore.Refine.equivalent_disciplines ~config p)

let test_lemma51 =
  QCheck.Test.make ~count:40 ~name:"Lemma 5.1 on random programs"
    arbitrary_program (fun p ->
      let free v = match v with Ok Race.Free -> true | _ -> false in
      free (Race.ww_rf ~config p) = free (Race.ww_nprf ~config p))

let passes =
  [
    Opt.Constprop.pass;
    Opt.Dce.pass;
    Opt.Cse.pass;
    Opt.Copyprop.pass;
    Opt.Linv.pass;
    Opt.Licm.pass;
    Opt.Cleanup.pass;
  ]

let test_passes_refine =
  QCheck.Test.make ~count:30 ~name:"every pass refines on random programs"
    arbitrary_program (fun p ->
      List.for_all
        (fun (pass : Opt.Pass.t) ->
          let tgt = Opt.Pass.apply pass p in
          equal_program tgt p
          || Explore.Refine.refines ~config ~target:tgt ~source:p ())
        passes)

let pipeline =
  List.fold_left Opt.Pass.compose (List.hd passes) (List.tl passes)

let test_pipeline_refines =
  QCheck.Test.make ~count:30 ~name:"the composed pipeline refines"
    arbitrary_program (fun p ->
      let tgt = Opt.Pass.apply pipeline p in
      equal_program tgt p
      || Explore.Refine.refines ~config ~target:tgt ~source:p ())

let test_passes_preserve_wwrf =
  QCheck.Test.make ~count:30 ~name:"passes preserve ww-RF"
    arbitrary_program (fun p ->
      let free q =
        match Race.ww_rf ~config q with Ok Race.Free -> true | _ -> false
      in
      QCheck.assume (free p);
      List.for_all
        (fun (pass : Opt.Pass.t) -> free (Opt.Pass.apply pass p))
        passes)

let test_witness_completeness =
  QCheck.Test.make ~count:15
    ~name:"every enumerated done trace has a witness"
    arbitrary_program (fun p ->
      let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving p in
      QCheck.assume o.Explore.Enum.exact;
      Explore.Traceset.fold
        (fun tr ok ->
          ok
          &&
          match tr.Ps.Event.ending with
          | Ps.Event.Done ->
              Explore.Witness.find ~config ~outs:tr.Ps.Event.outs p <> None
          | _ -> true)
        o.Explore.Enum.traces true)

let test_witness_soundness =
  QCheck.Test.make ~count:15
    ~name:"no witness for outputs outside the behaviour set"
    arbitrary_program (fun p ->
      let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving p in
      QCheck.assume o.Explore.Enum.exact;
      (* an output value no print can produce *)
      Explore.Witness.find ~config ~outs:[ 424242 ] p = None)

let test_passes_idempotent_wf =
  QCheck.Test.make ~count:50 ~name:"pass outputs stay well-formed"
    arbitrary_program (fun p ->
      List.for_all
        (fun (pass : Opt.Pass.t) ->
          match Lang.Wf.check (Opt.Pass.apply pass p) with
          | Ok () -> true
          | Error _ -> false)
        passes)

(* ------------------------------------------------------------------ *)
(* Random programs WITH a bounded loop: exercises LInv/LICM and the
   loop-aware analyses on shapes the straight-line generator cannot
   produce. *)

let loop_program_gen =
  let open QCheck.Gen in
  map2
    (fun body_instrs tail_instrs ->
      let body = body_instrs @ [ Assign ("i", Bin (Add, Reg "i", Val 1)) ] in
      let t1 =
        ( "t1",
          codeheap ~entry:"L0"
            [
              ("L0", block [ Assign ("i", Val 0) ] (Jmp "H"));
              ("H", block [] (Be (Bin (Lt, Reg "i", Val 2), "B", "E")));
              ("B", block body (Jmp "H"));
              ("E", block [ Print (Reg "r0") ] Return);
            ] )
      in
      let t2 =
        ( "t2",
          codeheap ~entry:"L0"
            [ ("L0", block (tail_instrs @ [ Print (Reg "r0") ]) Return) ] )
      in
      program ~atomics:[ "f" ] ~code:[ t1; t2 ] [ "t1"; "t2" ])
    (list_size (int_range 1 3) instr_gen)
    (list_size (int_range 1 3) instr_gen)

let arbitrary_loop_program =
  QCheck.make ~print:Lang.Pp.program_to_string loop_program_gen

let test_loop_passes_refine =
  QCheck.Test.make ~count:15 ~name:"passes refine on random loop programs"
    arbitrary_loop_program (fun p ->
      List.for_all
        (fun (pass : Opt.Pass.t) ->
          let tgt = Opt.Pass.apply pass p in
          equal_program tgt p
          || Explore.Refine.refines ~config ~target:tgt ~source:p ())
        [ Opt.Licm.pass; Opt.Constprop.pass; Opt.Dce.pass ])

let test_loop_thm41 =
  QCheck.Test.make ~count:15 ~name:"Theorem 4.1 on random loop programs"
    arbitrary_loop_program (fun p ->
      Explore.Refine.equivalent_disciplines ~config p)

(* ------------------------------------------------------------------ *)
(* Witness search and explorer walk one relation.

   At each setting, with promise bound k and the next bound k + 1:
   every [Done] trace the explorer finds at k has a witness at k; and
   every [Done] trace it finds at k + 1 but not at k has no witness at
   k — the direction that catches a witness search ignoring the bound.
   The first direction is checked on runs without a step cut (the
   witness search marks a state visited at its first depth, so a cut
   can hide a path from it); the second needs the run at k to be
   complete up to the bound itself.  Programs are the random ones above
   and load-buffering skeletons whose threads may CAS on [f] before
   their write, the shape whose promises can need a reservation. *)

let lb_gen =
  let open QCheck.Gen in
  let cas =
    map2
      (fun expect write ->
        Cas ("c", "f", Val expect, Val write, Lang.Modes.Rlx, Lang.Modes.WRlx))
      (int_range 0 1) (int_range 1 2)
  in
  let fill =
    list_size (int_range 0 2) (frequency [ (2, cas); (1, instr_gen) ])
  in
  let thread name src dst =
    map2
      (fun fill value ->
        let instrs =
          (Load ("r0", src, Lang.Modes.Na) :: fill)
          @ [ Store (dst, value, Lang.Modes.WNa); Print (Reg "r0") ]
        in
        (name, codeheap ~entry:"L" [ ("L", block instrs Return) ]))
      fill
      (oneofl [ Reg "r0"; Val 1 ])
  in
  map2
    (fun t1 t2 -> program ~atomics:[ "f" ] ~code:[ t1; t2 ] [ "t1"; "t2" ])
    (thread "t1" "x" "y") (thread "t2" "y" "x")

let arbitrary_agreement_program =
  QCheck.make ~print:Lang.Pp.program_to_string
    QCheck.Gen.(oneof [ program_gen; lb_gen ])

let done_outs (o : Explore.Enum.outcome) =
  Explore.Traceset.fold
    (fun tr acc ->
      match tr.Ps.Event.ending with
      | Ps.Event.Done -> tr.Ps.Event.outs :: acc
      | _ -> acc)
    o.Explore.Enum.traces []

let witness_agrees ~name ~at ~next =
  QCheck.Test.make ~count:25
    ~name:("witness and explorer agree: " ^ name)
    arbitrary_agreement_program (fun p ->
      let run config =
        Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving p
      in
      let o = run at and o' = run next in
      let witnessed outs = Explore.Witness.find ~config:at ~outs p <> None in
      let complete =
        List.for_all
          (fun r -> r = Explore.Errors.Promise_budget)
          (Explore.Stats.truncation_reasons o.Explore.Enum.stats)
      in
      let d = done_outs o in
      (Explore.Stats.(get o.Explore.Enum.stats cuts) > 0
      || List.for_all witnessed d)
      && ((not complete)
         || List.for_all
              (fun outs -> List.mem outs d || not (witnessed outs))
              (done_outs o')))

let agreement =
  let base = { config with max_nodes = Some 20_000 } in
  let bound k =
    let reduction =
      { Explore.Config.no_reduction with bound_promises = Some k }
    in
    { base with reduction }
  in
  (* Reservations multiply the state space (one reserve step per
     message and location): most of these searches end at the node
     budget, and only the first direction is checked on them. *)
  let rsv = { base with reservations = true; max_nodes = Some 5_000 } in
  [
    witness_agrees ~name:"no reduction" ~at:base
      ~next:(Explore.Config.with_promises 2 base);
    witness_agrees ~name:"full reduction"
      ~at:(Explore.Config.with_reduction Explore.Config.full_reduction base)
      ~next:
        (Explore.Config.with_reduction Explore.Config.full_reduction
           (Explore.Config.with_promises 2 base));
    witness_agrees ~name:"promise bound 0" ~at:(bound 0) ~next:(bound 1);
    witness_agrees ~name:"reservations" ~at:rsv
      ~next:(Explore.Config.with_promises 2 rsv);
  ]

let () =
  Alcotest.run "soundness"
    [
      ( "random-programs",
        List.map QCheck_alcotest.to_alcotest
          [
            test_thm41;
            test_lemma51;
            test_passes_refine;
            test_pipeline_refines;
            test_passes_preserve_wwrf;
            test_passes_idempotent_wf;
            test_witness_completeness;
            test_witness_soundness;
          ] );
      ( "agreement",
        List.map
          (fun t ->
            QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 21 |]) t)
          agreement );
      ( "loop-programs",
        List.map QCheck_alcotest.to_alcotest
          [ test_loop_passes_refine; test_loop_thm41 ] );
    ]
