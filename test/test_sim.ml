(* The thread-local simulation machinery (Sec. 6): timestamp mappings,
   invariants, the delayed write set and the simulation game. *)

let time = Alcotest.testable Ps.Time.pp Int.equal
(* Rank [n] on the canonical timestamp grid. *)
let t n = n * Ps.Time.grid

(* ------------------------------------------------------------------ *)
(* Tmap *)

let test_tmap_basics () =
  let phi = Sim.Tmap.init [ "x"; "y" ] in
  Alcotest.(check (option time)) "phi0 maps (x,0) to 0"
    (Some 0)
    (Sim.Tmap.find "x" 0 phi);
  let phi = Sim.Tmap.add "x" (t 1) (t 2) phi in
  Alcotest.(check (option time))
    "added" (Some (t 2)) (Sim.Tmap.find "x" (t 1) phi);
  Alcotest.(check (option time)) "missing" None (Sim.Tmap.find "y" (t 1) phi)

let test_tmap_mon () =
  let phi = Sim.Tmap.add "x" (t 1) (t 5) (Sim.Tmap.init [ "x" ]) in
  Alcotest.(check bool) "monotone" true (Sim.Tmap.mon phi);
  let bad = Sim.Tmap.add "x" (t 2) (t 3) (Sim.Tmap.add "x" (t 1) (t 5) Sim.Tmap.empty) in
  Alcotest.(check bool) "violation detected" false (Sim.Tmap.mon bad);
  (* different locations never interact *)
  let ok = Sim.Tmap.add "y" (t 2) (t 3) (Sim.Tmap.add "x" (t 1) (t 5) Sim.Tmap.empty) in
  Alcotest.(check bool) "cross-location fine" true (Sim.Tmap.mon ok)

let test_tmap_dom_image () =
  let mem = Ps.Memory.init [ "x" ] in
  let mem =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"x" ~value:1 ~from_:(t 1) ~to_:(t 2) ~view:Ps.View.bot)
      mem
  in
  let phi = Sim.Tmap.add "x" (t 2) (t 2) (Sim.Tmap.init [ "x" ]) in
  Alcotest.(check bool) "dom covers" true (Sim.Tmap.dom_covers mem phi);
  Alcotest.(check bool) "image in" true (Sim.Tmap.image_in mem phi);
  Alcotest.(check bool) "identity" true (Sim.Tmap.is_identity_on mem phi);
  (* a mapping entry pointing at a non-message breaks image_in *)
  let phi_bad = Sim.Tmap.add "x" (t 2) (t 9) (Sim.Tmap.init [ "x" ]) in
  Alcotest.(check bool) "image violated" false (Sim.Tmap.image_in mem phi_bad);
  (* incomplete domain *)
  Alcotest.(check bool) "dom incomplete" false
    (Sim.Tmap.dom_covers mem (Sim.Tmap.init [ "x" ]))

let test_renumber_shares () =
  let phi = Sim.Tmap.add "x" (t 1) (t 2) (Sim.Tmap.init [ "x"; "y" ]) in
  let d = Sim.Delayed.record_target_write "x" (t 1) Sim.Delayed.empty in
  let still _ ts = ts and shift x ts = if x = "x" && ts > 0 then ts + 1 else ts in
  Alcotest.(check bool) "unmoved phi comes back" true (Sim.Tmap.renumber still phi == phi);
  Alcotest.(check bool) "unmoved D comes back" true (Sim.Delayed.renumber still d == d);
  Alcotest.(check (option time)) "moved phi: key and value" (Some (t 2 + 1))
    (Sim.Tmap.find "x" (t 1 + 1) (Sim.Tmap.renumber shift phi));
  Alcotest.(check (option time)) "moved D" (Some (t 1 + 1))
    (Sim.Delayed.oldest_on "x" (Sim.Delayed.renumber shift d))

(* ------------------------------------------------------------------ *)
(* Invariants *)

let test_iid () =
  let m = Ps.Memory.init [ "x" ] in
  let phi = Sim.Tmap.init [ "x" ] in
  Alcotest.(check bool) "holds initially" true
    (Sim.Invariant.iid.Sim.Invariant.holds phi (m, m) Lang.Ast.VarSet.empty);
  Alcotest.(check bool) "wf_initial" true
    (Sim.Invariant.wf_initial Sim.Invariant.iid [ "x" ] Lang.Ast.VarSet.empty);
  let m2 =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"x" ~value:1 ~from_:(t 1) ~to_:(t 2) ~view:Ps.View.bot)
      m
  in
  Alcotest.(check bool) "different memories: fails" false
    (Sim.Invariant.iid.Sim.Invariant.holds phi (m2, m) Lang.Ast.VarSet.empty)

let test_idce_gap () =
  (* Fig. 16(c): the target message must map to a source message with
     an open gap before it. *)
  let msg v f to_ =
    Ps.Message.msg ~var:"x" ~value:v ~from_:(t f) ~to_:(t to_) ~view:Ps.View.bot
  in
  let mt = Ps.Memory.add_exn (msg 2 1 2) (Ps.Memory.init [ "x" ]) in
  (* source with gap before the related message (2 at (3,4]) *)
  let ms_gap = Ps.Memory.add_exn (msg 2 3 4) (Ps.Memory.init [ "x" ]) in
  let phi = Sim.Tmap.add "x" (t 2) (t 4) (Sim.Tmap.init [ "x" ]) in
  Alcotest.(check bool) "holds with gap" true
    (Sim.Invariant.idce.Sim.Invariant.holds phi (mt, ms_gap)
       Lang.Ast.VarSet.empty);
  (* source whose related message is blocked by an adjacent one *)
  let ms_blocked =
    Ps.Memory.add_exn (msg 2 3 4)
      (Ps.Memory.add_exn (msg 7 1 3) (Ps.Memory.init [ "x" ]))
  in
  Alcotest.(check bool) "fails without the unused interval" false
    (Sim.Invariant.idce.Sim.Invariant.holds phi (mt, ms_blocked)
       Lang.Ast.VarSet.empty);
  (* value mismatch *)
  let ms_val = Ps.Memory.add_exn (msg 9 3 4) (Ps.Memory.init [ "x" ]) in
  Alcotest.(check bool) "fails on value mismatch" false
    (Sim.Invariant.idce.Sim.Invariant.holds phi (mt, ms_val)
       Lang.Ast.VarSet.empty)

let test_messages_related_views () =
  (* a release-write message whose view differs under phi is related
     only when the source view is the phi-image of the target's *)
  let phi = Sim.Tmap.init [ "x"; "y" ] in
  let phi = Sim.Tmap.add "y" (t 2) (t 2) phi in
  let phi = Sim.Tmap.add "x" (t 2) (t 2) phi in
  let view_t = Ps.View.observe_write "y" (t 2) Ps.View.bot in
  let mk view =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"x" ~value:1 ~from_:(t 1) ~to_:(t 2) ~view)
      (Ps.Memory.add_exn
         (Ps.Message.msg ~var:"y" ~value:1 ~from_:(t 1) ~to_:(t 2)
            ~view:Ps.View.bot)
         (Ps.Memory.init [ "x"; "y" ]))
  in
  let phi_full = Sim.Tmap.add "y" (t 2) (t 2) phi in
  Alcotest.(check bool) "matching views related" true
    (Sim.Invariant.messages_related phi_full (mk view_t, mk view_t));
  Alcotest.(check bool) "mismatched views rejected" false
    (Sim.Invariant.messages_related phi_full (mk view_t, mk Ps.View.bot))

(* ------------------------------------------------------------------ *)
(* Delayed write set *)

let test_delayed () =
  let d = Sim.Delayed.empty in
  Alcotest.(check bool) "empty" true (Sim.Delayed.is_empty d);
  let d = Sim.Delayed.record_target_write "x" (t 1) d in
  let d = Sim.Delayed.record_target_write "x" (t 3) d in
  let d = Sim.Delayed.record_target_write "y" (t 2) d in
  Alcotest.(check int) "size" 3 (Sim.Delayed.size d);
  Alcotest.(check (option time)) "oldest on x" (Some (t 1))
    (Sim.Delayed.oldest_on "x" d);
  let d = Sim.Delayed.discharge "x" d in
  Alcotest.(check (option time)) "oldest discharged first" (Some (t 3))
    (Sim.Delayed.oldest_on "x" d);
  let d = Sim.Delayed.discharge "y" d in
  Alcotest.(check (option time)) "y discharged" None (Sim.Delayed.oldest_on "y" d);
  Alcotest.(check int) "one left" 1 (Sim.Delayed.size d);
  (* discharge on an absent location is a no-op *)
  Alcotest.(check int) "noop discharge" 1
    (Sim.Delayed.size (Sim.Delayed.discharge "zz" d))

let test_delayed_decrease () =
  let d = Sim.Delayed.record_target_write ~index:2 "x" (t 1) Sim.Delayed.empty in
  (match Sim.Delayed.decrease d with
  | Some d1 -> (
      match Sim.Delayed.decrease d1 with
      | Some d2 ->
          Alcotest.(check bool) "exhausted on third decrease" true
            (Sim.Delayed.decrease d2 = None)
      | None -> Alcotest.fail "second decrease should succeed")
  | None -> Alcotest.fail "first decrease should succeed");
  Alcotest.(check bool) "empty always decreases" true
    (Sim.Delayed.decrease Sim.Delayed.empty <> None)

(* ------------------------------------------------------------------ *)
(* Scenarios *)

let test_scenarios () =
  let p = Litmus.fig1_foo.Litmus.prog in
  let ss = Sim.Scenario.of_program p ~except:"foo" in
  Alcotest.(check bool) "non-empty" true (ss <> []);
  (* some scenario contains g's release write of x with its view *)
  Alcotest.(check bool) "release message with payload view present" true
    (List.exists
       (fun sc ->
         List.exists
           (fun m ->
             Ps.Message.var m = "x"
             &&
             match Ps.Message.view m with
             | Some v -> Ps.View.TimeMap.get "y" v.Ps.View.na > 0
             | None -> false)
           sc)
       ss);
  (* 'except' excludes the thread itself *)
  let none = Sim.Scenario.of_program p ~except:"g" in
  Alcotest.(check bool) "foo produces no scenario (spins)" true
    (List.for_all (fun sc -> sc <> []) none)

(* ------------------------------------------------------------------ *)
(* The simulation game *)

let lit n = (Litmus.find n).Litmus.prog

let holds = function Sim.Simcheck.Holds -> true | _ -> false
let fails = function Sim.Simcheck.Fails _ -> true | _ -> false

let all_hold rs = List.for_all (fun (_, v) -> holds v) rs

let test_sim_identity () =
  let p = lit "sb" in
  Alcotest.(check bool) "program simulates itself (Iid)" true
    (all_hold (Sim.Simcheck.check_program ~inv:Sim.Invariant.iid ~target:p ~source:p ()))

let test_sim_constprop () =
  let p = lit "sb" in
  let tgt = Opt.Pass.apply Opt.Constprop.pass p in
  Alcotest.(check bool) "constprop simulated with Iid" true
    (all_hold
       (Sim.Simcheck.check_program ~inv:Sim.Invariant.iid ~target:tgt ~source:p ()))

let test_sim_cse () =
  let p = lit "fig5_tgt" in
  let tgt = Opt.Pass.apply Opt.Cse.pass p in
  Alcotest.(check bool) "cse simulated with Iid" true
    (all_hold
       (Sim.Simcheck.check_program ~inv:Sim.Invariant.iid ~target:tgt ~source:p ()))

let test_sim_dce_idce () =
  let p = lit "fig16_src" in
  let tgt = Opt.Pass.apply Opt.Dce.pass p in
  Alcotest.(check bool) "dce simulated with Idce" true
    (all_hold
       (Sim.Simcheck.check_program ~inv:Sim.Invariant.idce ~target:tgt ~source:p ()))

let test_sim_dce_needs_idce () =
  (* with Iid, eliminating a write cannot be simulated: the memories
     must be identical at switch points.  The lockstep source write is
     still possible before the AT point... the final wind-down demands
     Iid over different memories -> fails. *)
  let p = lit "fig16_src" in
  let tgt = Opt.Pass.apply Opt.Dce.pass p in
  let r = Sim.Simcheck.check_program ~inv:Sim.Invariant.iid ~target:tgt ~source:p () in
  Alcotest.(check bool) "Iid too strong for DCE" true
    (List.exists (fun (f, v) -> f = "t1" && fails v) r)

let test_sim_reorder_delayed () =
  (* Fig. 14(d): the reorder pair needs the delayed write set *)
  Alcotest.(check bool) "reorder simulated" true
    (all_hold
       (Sim.Simcheck.check_program ~inv:Sim.Invariant.iid
          ~target:(lit "reorder_tgt") ~source:(lit "reorder_src") ()))

let test_sim_bad_dce_rejected () =
  let r =
    Sim.Simcheck.check_program ~inv:Sim.Invariant.idce
      ~target:(lit "fig15_bad_tgt") ~source:(lit "fig15_src") ()
  in
  Alcotest.(check bool) "DCE across release fails the AT diagram" true
    (List.exists (fun (f, v) -> f = "t1" && fails v) r)

let test_sim_bad_licm_rejected () =
  let r =
    Sim.Simcheck.check_program ~inv:Sim.Invariant.iid
      ~target:(lit "fig1_foo_opt") ~source:(lit "fig1_foo") ()
  in
  Alcotest.(check bool) "hoist across acquire fails under interference" true
    (List.exists (fun (f, v) -> f = "foo" && fails v) r)

let test_sim_licm_rlx_holds () =
  let src = lit "fig1_foo_rlx" in
  let tgt = Opt.Pass.apply Opt.Licm.pass src in
  Alcotest.(check bool) "licm over relaxed flag simulated" true
    (all_hold
       (Sim.Simcheck.check_program ~inv:Sim.Invariant.iid ~target:tgt
          ~source:src ()))

let test_sim_linv_holds () =
  let src = lit "fig5_src" in
  let tgt = Opt.Pass.apply Opt.Linv.pass src in
  Alcotest.(check bool) "linv (redundant read introduction) simulated" true
    (all_hold
       (Sim.Simcheck.check_program ~inv:Sim.Invariant.iid ~target:tgt
          ~source:src ()))

(* A refuted cycle head must not leave a stale proof behind.  Both
   loops of [f] spin on reads of [x], which [g]'s scenario may have set
   to 1; only the target writes [y] before it returns, so under [Iid]
   the target's exit cannot be matched and the game fails.  Solving a
   loop state, the game first follows a read around the loop back to
   a state still on its path (assumed to hold), then meets the exit
   and refutes that state.  A proof that rested on the assumption must
   not be reused when a later source response reaches the same state
   from outside the loop. *)
let memo_prog exit =
  Lang.Wf.check_exn
    (Lang.Parse.program_of_string
       (Printf.sprintf
          {|threads f g;
proc f entry L0 {
L0:
  r1 := x.na;
  be r1 == 1, L0, L1;
L1:
  r1 := x.na;
  be r1 == 0, L0, L2;
L2:
  %sreturn;
}
proc g entry G0 {
G0:
  x.na := 1;
  return;
}|}
          exit))

let test_sim_stale_memo () =
  let src = memo_prog "" and tgt = memo_prog "y.na := 2;\n  " in
  Alcotest.(check bool) "target differs" false (Lang.Ast.equal_program tgt src);
  let r =
    Sim.Simcheck.check_program ~inv:Sim.Invariant.iid ~target:tgt ~source:src ()
  in
  Alcotest.(check bool) "the exit that writes y is refuted" true
    (fails (List.assoc "f" r))

(* ------------------------------------------------------------------ *)
(* The Verif(Opt) pipeline (Def. 6.3, Fig. 6) *)

let test_verif_registry () =
  Alcotest.(check int) "seven registered optimizers" 7
    (List.length Sim.Verif.registry);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (Sim.Verif.find name <> None))
    [ "constprop"; "dce"; "cse"; "copyprop"; "linv"; "licm"; "cleanup" ];
  Alcotest.(check bool) "unknown not found" true (Sim.Verif.find "ghost" = None)

let test_verif_pipeline_ok () =
  List.iter
    (fun (pass, prog) ->
      match Sim.Verif.check (Option.get (Sim.Verif.find pass)) (lit prog) with
      | Sim.Verif.Verified -> ()
      | v ->
          Alcotest.failf "%s on %s: %a" pass prog Sim.Verif.pp_verdict v)
    [
      ("constprop", "sb");
      ("dce", "fig16_src");
      ("dce", "fig15_src");
      ("cse", "fig5_tgt");
      ("licm", "fig1_foo_rlx");
      ("linv", "fig5_src");
      ("cleanup", "fig16_tgt");
    ]

let test_verif_requires_ww_rf () =
  (* The theorem's premise: a racy source is rejected up front. *)
  match
    Sim.Verif.check (Option.get (Sim.Verif.find "constprop")) (lit "ww_racy")
  with
  | Sim.Verif.Fail (Sim.Verif.Source_ww_rf, _) -> ()
  | v -> Alcotest.failf "expected ww-RF failure, got %a" Sim.Verif.pp_verdict v

(* ------------------------------------------------------------------ *)
(* The identity rule (docs/SEMANTICS.md, "Unchanged functions") *)

let examples_dir = Filename.concat ".." (Filename.concat "examples" "programs")

let rule_programs () =
  let corpus = List.map (fun t -> (t.Litmus.name, t.Litmus.prog)) Litmus.all in
  let rtl =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".rtl")
    |> List.sort compare
    |> List.map (fun f ->
           ( f,
             Lang.Wf.check_exn
               (Lang.Parse.program_of_file (Filename.concat examples_dir f)) ))
  in
  let seeds =
    List.init 200 (fun seed ->
        (Printf.sprintf "seed %d" seed, Explore.Stress.generate ~seed))
  in
  corpus @ rtl @ seeds

(* Every function the rule answers without a game holds its game. *)
let test_identity_rule_sound () =
  let answered = ref 0 in
  List.iter
    (fun (r : Sim.Verif.registered) ->
      List.iter
        (fun (name, src) ->
          let tgt = r.Sim.Verif.transform src in
          let rule = Sim.Simcheck.identity ~target:tgt ~source:src in
          if List.exists rule tgt.Lang.Ast.threads then
            List.iter
              (fun (f, v) ->
                if rule f then begin
                  incr answered;
                  if not (holds v) then
                    Alcotest.failf "%s on %s: the rule answers %s, its game %a"
                      r.Sim.Verif.name name f Sim.Simcheck.pp_verdict v
                end)
              (Sim.Simcheck.check_program ~inv:r.Sim.Verif.invariant
                 ~target:tgt ~source:src ()))
        (rule_programs ()))
    Sim.Verif.registry;
  Alcotest.(check bool) "the rule answers most functions" true (!answered > 1000)

(* Only the callee [h] changes; [t1] calls it, [t2] does not.  The
   changed write is visible in the final memory, so [t1]'s game must
   be played, and fails under [Iid]. *)
let callee_prog v =
  Lang.Wf.check_exn
    (Lang.Parse.program_of_string
       (Printf.sprintf
          {|threads t1 t2;
proc t1 entry L0 {
L0:
  call(h, L1);
L1:
  return;
}
proc h entry H0 {
H0:
  x.na := %d;
  return;
}
proc t2 entry M0 {
M0:
  r1 := y.na;
  print(r1);
  return;
}|}
          v))

let answered a = Obs.Metrics.counter ~labels:[ ("answer", a) ] "psopt_sim_functions_total"

let test_identity_rule_callee () =
  let src = callee_prog 1 and tgt = callee_prog 2 in
  Alcotest.(check bool) "caller's own code unchanged" true
    (Lang.Ast.equal_codeheap
       (Lang.Ast.FnameMap.find "t1" tgt.Lang.Ast.code)
       (Lang.Ast.FnameMap.find "t1" src.Lang.Ast.code));
  Alcotest.(check bool) "t1 reaches the change" false
    (Sim.Simcheck.identity ~target:tgt ~source:src "t1");
  Alcotest.(check bool) "t2 does not" true
    (Sim.Simcheck.identity ~target:tgt ~source:src "t2");
  let games = answered "game" and ids = answered "identity" in
  let g0 = Obs.Metrics.value games and i0 = Obs.Metrics.value ids in
  let r =
    Sim.Simcheck.check_changed ~inv:Sim.Invariant.iid ~target:tgt ~source:src ()
  in
  Alcotest.(check int) "one game" 1 (Obs.Metrics.value games - g0);
  Alcotest.(check int) "one identity answer" 1 (Obs.Metrics.value ids - i0);
  Alcotest.(check bool) "t1's game fails" true (fails (List.assoc "t1" r));
  Alcotest.(check bool) "t2 holds" true (holds (List.assoc "t2" r));
  Alcotest.(check bool) "atomics must agree too" false
    (Sim.Simcheck.identity ~target:{ src with Lang.Ast.atomics = Lang.Ast.VarSet.singleton "y" }
       ~source:src "t2")

let () =
  Alcotest.run "sim"
    [
      ( "tmap",
        [
          Alcotest.test_case "basics" `Quick test_tmap_basics;
          Alcotest.test_case "monotonicity" `Quick test_tmap_mon;
          Alcotest.test_case "dom/image" `Quick test_tmap_dom_image;
          Alcotest.test_case "renumber shares what it does not move" `Quick
            test_renumber_shares;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "Iid" `Quick test_iid;
          Alcotest.test_case "Idce unused interval" `Quick test_idce_gap;
          Alcotest.test_case "message views related" `Quick
            test_messages_related_views;
        ] );
      ( "delayed",
        [
          Alcotest.test_case "record/discharge" `Quick test_delayed;
          Alcotest.test_case "well-founded indexes" `Quick test_delayed_decrease;
        ] );
      ("scenarios", [ Alcotest.test_case "derivation" `Quick test_scenarios ]);
      ( "game",
        [
          Alcotest.test_case "identity" `Quick test_sim_identity;
          Alcotest.test_case "constprop holds" `Quick test_sim_constprop;
          Alcotest.test_case "cse holds" `Quick test_sim_cse;
          Alcotest.test_case "dce holds with Idce" `Quick test_sim_dce_idce;
          Alcotest.test_case "dce needs Idce" `Quick test_sim_dce_needs_idce;
          Alcotest.test_case "reorder via delayed writes" `Quick
            test_sim_reorder_delayed;
          Alcotest.test_case "bad DCE rejected" `Quick test_sim_bad_dce_rejected;
          Alcotest.test_case "bad LICM rejected" `Quick
            test_sim_bad_licm_rejected;
          Alcotest.test_case "licm (rlx) holds" `Quick test_sim_licm_rlx_holds;
          Alcotest.test_case "linv holds" `Quick test_sim_linv_holds;
          Alcotest.test_case "refuted cycle head: no stale proof" `Quick
            test_sim_stale_memo;
        ] );
      ( "budget",
        [
          Alcotest.test_case "tiny depth yields Unknown, not a verdict"
            `Quick (fun () ->
              let cfg =
                { Sim.Simcheck.default_config with max_depth = 2 }
              in
              let p = lit "fig1_foo_rlx" in
              let r =
                Sim.Simcheck.check_program ~config:cfg
                  ~inv:Sim.Invariant.iid ~target:p ~source:p ()
              in
              Alcotest.(check bool)
                "budget exhaustion is reported honestly" true
                (List.exists
                   (fun (_, v) ->
                     match v with Sim.Simcheck.Unknown _ -> true | _ -> false)
                   r));
        ] );
      ( "identity",
        [
          Alcotest.test_case "answered functions hold their game" `Slow
            test_identity_rule_sound;
          Alcotest.test_case "a changed callee makes its caller play" `Quick
            test_identity_rule_callee;
        ] );
      ( "verif",
        [
          Alcotest.test_case "registry" `Quick test_verif_registry;
          Alcotest.test_case "pipeline verified" `Slow test_verif_pipeline_ok;
          Alcotest.test_case "ww-RF premise enforced" `Quick
            test_verif_requires_ww_rf;
        ] );
    ]
