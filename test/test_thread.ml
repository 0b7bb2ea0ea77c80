(* The PS2.1 thread-step relation: reads, writes, CAS, fences,
   promises, fulfillment (Sec. 3). *)

open Lang.Modes

let time = Alcotest.testable Ps.Time.pp Int.equal
(* Rank [n] on the canonical timestamp grid. *)
let t n = n * Ps.Time.grid

(* A one-thread code heap around the given straight-line body. *)
let code_of instrs =
  Lang.Ast.code_of_list
    [ ("f", Lang.Ast.codeheap ~entry:"L" [ ("L", Lang.Ast.block instrs Lang.Ast.Return) ]) ]

let state instrs vars =
  let code = code_of instrs in
  let ts = Option.get (Ps.Thread.init code "f") in
  (code, ts, Ps.Memory.init vars)

let steps_of code ts mem = Ps.Thread.steps ~code ts mem

let events steps =
  List.map (fun (s : Ps.Thread.step) -> s.Ps.Thread.event) steps

(* ------------------------------------------------------------------ *)

let test_read_enumerates_messages () =
  let code, ts, mem = state [ Lang.Ast.Load ("r", "x", Rlx) ] [ "x" ] in
  let mem =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"x" ~value:7 ~from_:(t 1) ~to_:(t 2)
         ~view:Ps.View.bot)
      mem
  in
  let ss = steps_of code ts mem in
  let vals =
    List.filter_map
      (function Ps.Event.Rd (Rlx, "x", v) -> Some v | _ -> None)
      (events ss)
  in
  Alcotest.(check (slist int compare)) "reads 0 or 7" [ 0; 7 ] vals

let test_read_respects_view () =
  let code, ts, mem = state [ Lang.Ast.Load ("r", "x", Rlx) ] [ "x" ] in
  let mem =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"x" ~value:7 ~from_:(t 1) ~to_:(t 2)
         ~view:Ps.View.bot)
      mem
  in
  let ts =
    { ts with Ps.Thread.view = Ps.View.observe_write "x" (t 2) ts.Ps.Thread.view }
  in
  let vals =
    List.filter_map
      (function Ps.Event.Rd (_, _, v) -> Some v | _ -> None)
      (events (steps_of code ts mem))
  in
  Alcotest.(check (list int)) "only the new message" [ 7 ] vals

let test_na_read_updates_trlx_only () =
  let code, ts, mem = state [ Lang.Ast.Load ("r", "x", Na) ] [ "x" ] in
  let mem =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"x" ~value:7 ~from_:(t 1) ~to_:(t 2)
         ~view:Ps.View.bot)
      mem
  in
  let s =
    List.find
      (fun (s : Ps.Thread.step) -> s.Ps.Thread.event = Ps.Event.Rd (Na, "x", 7))
      (steps_of code ts mem)
  in
  let v = s.Ps.Thread.ts.Ps.Thread.view in
  Alcotest.check time "Tna unchanged" 0 (Ps.View.TimeMap.get "x" v.Ps.View.na);
  Alcotest.check time "Trlx bumped" (t 2) (Ps.View.TimeMap.get "x" v.Ps.View.rlx)

let test_write_updates_both_views () =
  let code, ts, mem = state [ Lang.Ast.Store ("x", Lang.Ast.Val 3, WNa) ] [ "x" ] in
  let s = List.hd (steps_of code ts mem) in
  (match s.Ps.Thread.event with
  | Ps.Event.Wr (WNa, "x", 3) -> ()
  | e -> Alcotest.failf "unexpected event %a" Ps.Event.pp_te e);
  let v = s.Ps.Thread.ts.Ps.Thread.view in
  let written = Ps.View.TimeMap.get "x" v.Ps.View.na in
  Alcotest.(check bool) "Tna bumped" true (written > 0);
  Alcotest.check time "Tna = Trlx" written (Ps.View.TimeMap.get "x" v.Ps.View.rlx);
  (* the new message is in memory with bottom view (na write) *)
  match Ps.Memory.find "x" written s.Ps.Thread.mem with
  | Some m -> Alcotest.(check bool) "bot view" true
                (Ps.View.equal (Option.get (Ps.Message.view m)) Ps.View.bot)
  | None -> Alcotest.fail "message not in memory"

let test_release_write_carries_view () =
  let code, ts, mem =
    state
      [ Lang.Ast.Store ("y", Lang.Ast.Val 1, WNa);
        Lang.Ast.Store ("x", Lang.Ast.Val 1, WRel) ]
      [ "x"; "y" ]
  in
  (* step the na write first *)
  let s1 = List.hd (steps_of code ts mem) in
  let s2 =
    List.find
      (fun (s : Ps.Thread.step) ->
        match s.Ps.Thread.event with Ps.Event.Wr (WRel, "x", 1) -> true | _ -> false)
      (steps_of code s1.Ps.Thread.ts s1.Ps.Thread.mem)
  in
  let xts = Ps.View.TimeMap.get "x" s2.Ps.Thread.ts.Ps.Thread.view.Ps.View.rlx in
  match Ps.Memory.find "x" xts s2.Ps.Thread.mem with
  | Some m ->
      let mv = Option.get (Ps.Message.view m) in
      Alcotest.(check bool) "message view records y" true
        (Ps.View.TimeMap.get "y" mv.Ps.View.na > 0)
  | None -> Alcotest.fail "release message missing"

let test_acquire_read_joins_message_view () =
  let code, ts, mem = state [ Lang.Ast.Load ("r", "x", Acq) ] [ "x"; "y" ] in
  let mview = Ps.View.observe_write "y" (t 9) Ps.View.bot in
  let mem =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"x" ~value:1 ~from_:(t 1) ~to_:(t 2) ~view:mview)
      mem
  in
  let s =
    List.find
      (fun (s : Ps.Thread.step) -> s.Ps.Thread.event = Ps.Event.Rd (Acq, "x", 1))
      (steps_of code ts mem)
  in
  Alcotest.check time "acq joins Tna(y)" (t 9)
    (Ps.View.TimeMap.get "y" s.Ps.Thread.ts.Ps.Thread.view.Ps.View.na)

let test_rlx_read_does_not_join () =
  let code, ts, mem = state [ Lang.Ast.Load ("r", "x", Rlx) ] [ "x"; "y" ] in
  let mview = Ps.View.observe_write "y" (t 9) Ps.View.bot in
  let mem =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"x" ~value:1 ~from_:(t 1) ~to_:(t 2) ~view:mview)
      mem
  in
  let s =
    List.find
      (fun (s : Ps.Thread.step) -> s.Ps.Thread.event = Ps.Event.Rd (Rlx, "x", 1))
      (steps_of code ts mem)
  in
  Alcotest.check time "rlx does not join Tna(y)" 0
    (Ps.View.TimeMap.get "y" s.Ps.Thread.ts.Ps.Thread.view.Ps.View.na);
  (* ... but an acquire fence afterwards does (vacq accumulated). *)
  Alcotest.check time "vacq recorded y" (t 9)
    (Ps.View.TimeMap.get "y" s.Ps.Thread.ts.Ps.Thread.vacq.Ps.View.na)

let test_acq_fence_folds_vacq () =
  let code, ts, mem =
    state [ Lang.Ast.Load ("r", "x", Rlx); Lang.Ast.Fence FAcq ] [ "x"; "y" ]
  in
  let mview = Ps.View.observe_write "y" (t 9) Ps.View.bot in
  let mem =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"x" ~value:1 ~from_:(t 1) ~to_:(t 2) ~view:mview)
      mem
  in
  let s =
    List.find
      (fun (s : Ps.Thread.step) -> s.Ps.Thread.event = Ps.Event.Rd (Rlx, "x", 1))
      (steps_of code ts mem)
  in
  let s2 = List.hd (steps_of code s.Ps.Thread.ts s.Ps.Thread.mem) in
  Alcotest.(check bool) "fence event" true
    (s2.Ps.Thread.event = Ps.Event.Fnc FAcq);
  Alcotest.check time "acq fence folds y into Tna" (t 9)
    (Ps.View.TimeMap.get "y" s2.Ps.Thread.ts.Ps.Thread.view.Ps.View.na)

let test_rel_fence_then_rlx_write () =
  let code, ts, mem =
    state
      [ Lang.Ast.Store ("y", Lang.Ast.Val 1, WNa);
        Lang.Ast.Fence FRel;
        Lang.Ast.Store ("x", Lang.Ast.Val 1, WRlx) ]
      [ "x"; "y" ]
  in
  let s1 = List.hd (steps_of code ts mem) in
  let s2 = List.hd (steps_of code s1.Ps.Thread.ts s1.Ps.Thread.mem) in
  Alcotest.(check bool) "rel fence" true (s2.Ps.Thread.event = Ps.Event.Fnc FRel);
  let s3 =
    List.find
      (fun (s : Ps.Thread.step) ->
        match s.Ps.Thread.event with Ps.Event.Wr (WRlx, "x", 1) -> true | _ -> false)
      (steps_of code s2.Ps.Thread.ts s2.Ps.Thread.mem)
  in
  let xts = Ps.View.TimeMap.get "x" s3.Ps.Thread.ts.Ps.Thread.view.Ps.View.rlx in
  match Ps.Memory.find "x" xts s3.Ps.Thread.mem with
  | Some m ->
      let mv = Option.get (Ps.Message.view m) in
      Alcotest.(check bool) "rlx write after rel fence synchronizes" true
        (Ps.View.TimeMap.get "y" mv.Ps.View.na > 0)
  | None -> Alcotest.fail "message missing"

let test_release_sequence_rlx_write () =
  (* After a release write to x, a later relaxed write to x carries
     the release view (release sequence). *)
  let code, ts, mem =
    state
      [ Lang.Ast.Store ("y", Lang.Ast.Val 1, WNa);
        Lang.Ast.Store ("x", Lang.Ast.Val 1, WRel);
        Lang.Ast.Store ("x", Lang.Ast.Val 2, WRlx) ]
      [ "x"; "y" ]
  in
  let s1 = List.hd (steps_of code ts mem) in
  let s2 =
    List.find
      (fun (s : Ps.Thread.step) ->
        match s.Ps.Thread.event with Ps.Event.Wr (WRel, _, _) -> true | _ -> false)
      (steps_of code s1.Ps.Thread.ts s1.Ps.Thread.mem)
  in
  Alcotest.(check bool) "vrel_loc records x" true
    (Lang.Ast.VarMap.mem "x" s2.Ps.Thread.ts.Ps.Thread.vrel_loc);
  let s3 =
    List.find
      (fun (s : Ps.Thread.step) ->
        match s.Ps.Thread.event with Ps.Event.Wr (WRlx, _, 2) -> true | _ -> false)
      (steps_of code s2.Ps.Thread.ts s2.Ps.Thread.mem)
  in
  let xts = Ps.View.TimeMap.get "x" s3.Ps.Thread.ts.Ps.Thread.view.Ps.View.rlx in
  (match Ps.Memory.find "x" xts s3.Ps.Thread.mem with
  | Some m ->
      let mv = Option.get (Ps.Message.view m) in
      Alcotest.(check bool) "relaxed write carries the release view" true
        (Ps.View.TimeMap.get "y" mv.Ps.View.na > 0)
  | None -> Alcotest.fail "message missing");
  (* ... but a relaxed write to a DIFFERENT location does not *)
  ()

let test_release_sequence_other_loc_untouched () =
  let code, ts, mem =
    state
      [ Lang.Ast.Store ("y", Lang.Ast.Val 1, WNa);
        Lang.Ast.Store ("x", Lang.Ast.Val 1, WRel);
        Lang.Ast.Store ("z", Lang.Ast.Val 2, WRlx) ]
      [ "x"; "y"; "z" ]
  in
  let s1 = List.hd (steps_of code ts mem) in
  let s2 =
    List.find
      (fun (s : Ps.Thread.step) ->
        match s.Ps.Thread.event with Ps.Event.Wr (WRel, _, _) -> true | _ -> false)
      (steps_of code s1.Ps.Thread.ts s1.Ps.Thread.mem)
  in
  let s3 =
    List.find
      (fun (s : Ps.Thread.step) ->
        match s.Ps.Thread.event with Ps.Event.Wr (WRlx, "z", _) -> true | _ -> false)
      (steps_of code s2.Ps.Thread.ts s2.Ps.Thread.mem)
  in
  let zts = Ps.View.TimeMap.get "z" s3.Ps.Thread.ts.Ps.Thread.view.Ps.View.rlx in
  match Ps.Memory.find "z" zts s3.Ps.Thread.mem with
  | Some m ->
      Alcotest.(check bool) "no release sequence across locations" true
        (Ps.View.equal (Option.get (Ps.Message.view m)) Ps.View.bot)
  | None -> Alcotest.fail "message missing"

let test_cas_inherits_read_view () =
  (* The update's message view includes the view of the message it
     reads from: release sequences through RMWs. *)
  let code, ts, mem =
    state [ Lang.Ast.Cas ("r", "x", Lang.Ast.Val 1, Lang.Ast.Val 2, Rlx, WRlx) ]
      [ "x"; "y" ]
  in
  let rel_view = Ps.View.observe_write "y" (t 9) Ps.View.bot in
  let mem =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"x" ~value:1 ~from_:(t 1) ~to_:(t 2) ~view:rel_view)
      mem
  in
  let su =
    List.find
      (fun (s : Ps.Thread.step) ->
        match s.Ps.Thread.event with Ps.Event.Upd _ -> true | _ -> false)
      (steps_of code ts mem)
  in
  let xts = Ps.View.TimeMap.get "x" su.Ps.Thread.ts.Ps.Thread.view.Ps.View.rlx in
  match Ps.Memory.find "x" xts su.Ps.Thread.mem with
  | Some m ->
      let mv = Option.get (Ps.Message.view m) in
      Alcotest.check time "update inherits y@9" (t 9)
        (Ps.View.TimeMap.get "y" mv.Ps.View.na)
  | None -> Alcotest.fail "update message missing"

let test_cas_success_and_failure () =
  let code, ts, mem =
    state [ Lang.Ast.Cas ("r", "x", Lang.Ast.Val 0, Lang.Ast.Val 5, Rlx, WRlx) ] [ "x" ]
  in
  let ss = steps_of code ts mem in
  (* only the initial 0 is readable: CAS can succeed *)
  let upd =
    List.filter
      (fun (s : Ps.Thread.step) ->
        match s.Ps.Thread.event with
        | Ps.Event.Upd (Rlx, WRlx, "x", 0, 5) -> true
        | _ -> false)
      ss
  in
  Alcotest.(check int) "one success step" 1 (List.length upd);
  let su = List.hd upd in
  Alcotest.(check int) "r = 1" 1 (Ps.Local.reg "r" su.Ps.Thread.ts.Ps.Thread.local);
  (* its message attaches: from = 0 *)
  let xts = Ps.View.TimeMap.get "x" su.Ps.Thread.ts.Ps.Thread.view.Ps.View.rlx in
  (match Ps.Memory.find "x" xts su.Ps.Thread.mem with
  | Some m -> Alcotest.check time "adjacent from" 0 (Ps.Message.from_ m)
  | None -> Alcotest.fail "CAS message missing");
  (* failure branch: memory with a non-matching value *)
  let mem2 =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"x" ~value:3 ~from_:(t 1) ~to_:(t 2) ~view:Ps.View.bot)
      mem
  in
  let ss2 = steps_of code ts mem2 in
  let failures =
    List.filter
      (fun (s : Ps.Thread.step) ->
        match s.Ps.Thread.event with
        | Ps.Event.Rd (Rlx, "x", 3) ->
            Ps.Local.reg "r" s.Ps.Thread.ts.Ps.Thread.local = 0
        | _ -> false)
      ss2
  in
  Alcotest.(check int) "failure reads 3, r = 0" 1 (List.length failures)

let test_cas_blocked_by_adjacent () =
  let code, ts, mem =
    state [ Lang.Ast.Cas ("r", "x", Lang.Ast.Val 0, Lang.Ast.Val 5, Rlx, WRlx) ] [ "x" ]
  in
  (* occupy the interval right after the init message *)
  let mem = Ps.Memory.add_exn (Ps.Message.rsv ~var:"x" ~from_:0 ~to_:(t 1)) mem in
  let ss = steps_of code ts mem in
  Alcotest.(check bool) "no success possible" true
    (List.for_all
       (fun (s : Ps.Thread.step) ->
         match s.Ps.Thread.event with Ps.Event.Upd _ -> false | _ -> true)
       ss)

let test_promise_and_fulfill () =
  let code, ts, mem = state [ Lang.Ast.Store ("x", Lang.Ast.Val 5, WNa) ] [ "x" ] in
  let ps =
    Ps.Thread.promise_steps ~candidates:[ ("x", 5) ]
      ~atomics:Lang.Ast.VarSet.empty ts mem
  in
  Alcotest.(check bool) "promise steps exist" true (ps <> []);
  let p = List.hd ps in
  Alcotest.(check int) "one promise" 1
    (List.length (Ps.Thread.concrete_promises p.Ps.Thread.ts));
  Alcotest.(check bool) "promised message in memory" true
    (Ps.Memory.contains
       (List.hd (Ps.Thread.concrete_promises p.Ps.Thread.ts))
       p.Ps.Thread.mem);
  (* the store instruction can now fulfill it *)
  let fulfill =
    List.filter
      (fun (s : Ps.Thread.step) ->
        s.Ps.Thread.event = Ps.Event.Wr (WNa, "x", 5)
        && Ps.Thread.concrete_promises s.Ps.Thread.ts = [])
      (steps_of code p.Ps.Thread.ts p.Ps.Thread.mem)
  in
  Alcotest.(check bool) "fulfillment step exists" true (fulfill <> []);
  (* fulfillment does not duplicate the message *)
  let f = List.hd fulfill in
  Alcotest.(check int) "memory unchanged modulo promise" 2
    (List.length (Ps.Memory.per_loc "x" f.Ps.Thread.mem))

let test_promise_wrong_value_no_fulfill () =
  let code, ts, mem = state [ Lang.Ast.Store ("x", Lang.Ast.Val 5, WNa) ] [ "x" ] in
  let p =
    List.hd
      (Ps.Thread.promise_steps ~candidates:[ ("x", 9) ]
         ~atomics:Lang.Ast.VarSet.empty ts mem)
  in
  let fulfills =
    List.filter
      (fun (s : Ps.Thread.step) -> Ps.Thread.concrete_promises s.Ps.Thread.ts = [])
      (steps_of code p.Ps.Thread.ts p.Ps.Thread.mem)
  in
  Alcotest.(check (list int)) "no fulfillment of a 9-promise by a 5-write" []
    (List.map (fun _ -> 0) fulfills)

let test_release_write_blocked_by_promise () =
  let code, ts, mem = state [ Lang.Ast.Store ("x", Lang.Ast.Val 5, WRel) ] [ "x" ] in
  let p =
    List.hd
      (Ps.Thread.promise_steps ~candidates:[ ("x", 5) ]
         ~atomics:Lang.Ast.VarSet.empty ts mem)
  in
  let ss = steps_of code p.Ps.Thread.ts p.Ps.Thread.mem in
  Alcotest.(check (list int)) "release write blocked while promise on x" []
    (List.map (fun _ -> 0) ss)

let test_reserve_cancel () =
  let _, ts, mem = state [ Lang.Ast.Skip ] [ "x" ] in
  let rs = Ps.Thread.reserve_steps ts mem in
  Alcotest.(check bool) "reserve step exists" true (rs <> []);
  let r = List.hd rs in
  Alcotest.(check int) "reservation in promise set" 1
    (List.length r.Ps.Thread.ts.Ps.Thread.prm);
  let cs = Ps.Thread.cancel_steps r.Ps.Thread.ts r.Ps.Thread.mem in
  Alcotest.(check int) "cancel step" 1 (List.length cs);
  let c = List.hd cs in
  Alcotest.(check (list int)) "promise set empty after cancel" []
    (List.map (fun _ -> 0) c.Ps.Thread.ts.Ps.Thread.prm);
  Alcotest.(check int) "memory back to init" 1
    (List.length (Ps.Memory.per_loc "x" c.Ps.Thread.mem))

let test_control_flow_steps () =
  let code =
    Lang.Ast.code_of_list
      [
        ( "f",
          Lang.Ast.codeheap ~entry:"A"
            [
              ("A", Lang.Ast.block [ Lang.Ast.Assign ("r", Lang.Ast.Val 1) ]
                      (Lang.Ast.Be (Lang.Ast.Reg "r", "B", "C")));
              ("B", Lang.Ast.block [] (Lang.Ast.Call ("g", "C")));
              ("C", Lang.Ast.block [] Lang.Ast.Return);
            ] );
        ("g", Lang.Ast.codeheap ~entry:"G" [ ("G", Lang.Ast.block [] Lang.Ast.Return) ]);
      ]
  in
  let ts = Option.get (Ps.Thread.init code "f") in
  let mem = Ps.Memory.init [] in
  let step1 = List.hd (Ps.Thread.steps ~code ts mem) in
  (* assign *)
  let step2 = List.hd (Ps.Thread.steps ~code step1.Ps.Thread.ts mem) in
  (* branch to B (r = 1) *)
  let step3 = List.hd (Ps.Thread.steps ~code step2.Ps.Thread.ts mem) in
  (* call g *)
  let step4 = List.hd (Ps.Thread.steps ~code step3.Ps.Thread.ts mem) in
  (* return from g -> C *)
  let step5 = List.hd (Ps.Thread.steps ~code step4.Ps.Thread.ts mem) in
  (* return from f -> finished *)
  Alcotest.(check bool) "finished" true (Ps.Local.is_finished step5.Ps.Thread.ts.Ps.Thread.local);
  Alcotest.(check bool) "terminal" true (Ps.Thread.is_terminal step5.Ps.Thread.ts);
  Alcotest.(check (list int)) "no more steps" []
    (List.map (fun _ -> 0) (Ps.Thread.steps ~code step5.Ps.Thread.ts mem))

let test_writes_in_code () =
  let code =
    Lang.Ast.code_of_list
      [
        ( "f",
          Lang.Ast.codeheap ~entry:"A"
            [
              ("A", Lang.Ast.block
                      [ Lang.Ast.Store ("x", Lang.Ast.Val 1, WNa);
                        Lang.Ast.Store ("y", Lang.Ast.Reg "r", WNa);
                        Lang.Ast.Store ("z", Lang.Ast.Val 2, WRel) ]
                      (Lang.Ast.Call ("g", "A")));
            ] );
        ( "g",
          Lang.Ast.codeheap ~entry:"G"
            [ ("G", Lang.Ast.block [ Lang.Ast.Store ("w", Lang.Ast.Val 3, WRlx) ]
                      Lang.Ast.Return) ] );
      ]
  in
  let ts = Option.get (Ps.Thread.init code "f") in
  Alcotest.(check (slist (pair string int) compare))
    "constant na/rlx stores, callees included"
    [ ("w", 3); ("x", 1) ]
    (Ps.Thread.writes_in_code ~code ts)

let () =
  Alcotest.run "thread"
    [
      ( "reads",
        [
          Alcotest.test_case "enumerate messages" `Quick
            test_read_enumerates_messages;
          Alcotest.test_case "view bound" `Quick test_read_respects_view;
          Alcotest.test_case "na updates Trlx only" `Quick
            test_na_read_updates_trlx_only;
          Alcotest.test_case "acq joins message view" `Quick
            test_acquire_read_joins_message_view;
          Alcotest.test_case "rlx does not join" `Quick test_rlx_read_does_not_join;
        ] );
      ( "writes",
        [
          Alcotest.test_case "updates both views" `Quick
            test_write_updates_both_views;
          Alcotest.test_case "release carries view" `Quick
            test_release_write_carries_view;
        ] );
      ( "fences",
        [
          Alcotest.test_case "acq fence folds vacq" `Quick
            test_acq_fence_folds_vacq;
          Alcotest.test_case "rel fence + rlx write" `Quick
            test_rel_fence_then_rlx_write;
        ] );
      ( "cas",
        [
          Alcotest.test_case "success and failure" `Quick
            test_cas_success_and_failure;
          Alcotest.test_case "blocked by adjacency" `Quick
            test_cas_blocked_by_adjacent;
          Alcotest.test_case "inherits read view" `Quick
            test_cas_inherits_read_view;
        ] );
      ( "release-sequences",
        [
          Alcotest.test_case "rlx write carries release view" `Quick
            test_release_sequence_rlx_write;
          Alcotest.test_case "per-location only" `Quick
            test_release_sequence_other_loc_untouched;
        ] );
      ( "promises",
        [
          Alcotest.test_case "promise and fulfill" `Quick
            test_promise_and_fulfill;
          Alcotest.test_case "wrong value cannot fulfill" `Quick
            test_promise_wrong_value_no_fulfill;
          Alcotest.test_case "release blocked by promise" `Quick
            test_release_write_blocked_by_promise;
          Alcotest.test_case "reserve/cancel" `Quick test_reserve_cancel;
        ] );
      ( "control",
        [
          Alcotest.test_case "branch/call/return" `Quick test_control_flow_steps;
          Alcotest.test_case "writes_in_code" `Quick test_writes_in_code;
        ] );
    ]
