(* Rank [n] on the canonical timestamp grid. *)
let t n = n * Ps.Time.grid

(* Promise certification against the capped memory (Sec. 3). *)

open Lang.Modes

let code_of instrs =
  Lang.Ast.code_of_list
    [ ("f", Lang.Ast.codeheap ~entry:"L" [ ("L", Lang.Ast.block instrs Lang.Ast.Return) ]) ]

let state instrs vars =
  let code = code_of instrs in
  let ts = Option.get (Ps.Thread.init code "f") in
  (code, ts, Ps.Memory.init vars)

let promise _code ts mem x v =
  List.hd
    (Ps.Thread.promise_steps ~candidates:[ (x, v) ]
       ~atomics:Lang.Ast.VarSet.empty ts mem)

let test_no_promise_trivially_consistent () =
  let code, ts, mem = state [ Lang.Ast.Skip ] [ "x" ] in
  Alcotest.(check bool) "consistent" true (Ps.Cert.consistent ~code ts mem)

let test_fulfillable_promise_consistent () =
  let code, ts, mem = state [ Lang.Ast.Store ("x", Lang.Ast.Val 5, WNa) ] [ "x" ] in
  let p = promise code ts mem "x" 5 in
  Alcotest.(check bool) "certifiable" true
    (Ps.Cert.consistent ~code p.Ps.Thread.ts p.Ps.Thread.mem)

let test_unfulfillable_promise_inconsistent () =
  let code, ts, mem = state [ Lang.Ast.Skip ] [ "x" ] in
  let p = promise code ts mem "x" 5 in
  Alcotest.(check bool) "no write in code: inconsistent" false
    (Ps.Cert.consistent ~code p.Ps.Thread.ts p.Ps.Thread.mem)

let test_wrong_value_inconsistent () =
  let code, ts, mem = state [ Lang.Ast.Store ("x", Lang.Ast.Val 5, WNa) ] [ "x" ] in
  let p = promise code ts mem "x" 6 in
  Alcotest.(check bool) "value mismatch: inconsistent" false
    (Ps.Cert.consistent ~code p.Ps.Thread.ts p.Ps.Thread.mem)

let test_conditional_promise () =
  (* The thread writes x := 1 only if it reads y = 0; from the capped
     memory (y still 0) the branch is taken, so the promise
     certifies — this is the Fig. 4 mechanism. *)
  let code =
    Lang.Ast.code_of_list
      [
        ( "f",
          Lang.Ast.codeheap ~entry:"A"
            [
              ("A", Lang.Ast.block [ Lang.Ast.Load ("r", "y", Rlx) ]
                      (Lang.Ast.Be (Lang.Ast.Reg "r", "B", "C")));
              ("B", Lang.Ast.block [] Lang.Ast.Return);
              ("C", Lang.Ast.block [ Lang.Ast.Store ("x", Lang.Ast.Val 1, WRlx) ]
                      Lang.Ast.Return);
            ] );
      ]
  in
  let ts = Option.get (Ps.Thread.init code "f") in
  let mem = Ps.Memory.init [ "x"; "y" ] in
  let p = promise code ts mem "x" 1 in
  Alcotest.(check bool) "certifiable via the y=0 branch" true
    (Ps.Cert.consistent ~code p.Ps.Thread.ts p.Ps.Thread.mem);
  (* after the thread reads y = 1, the promise can no longer certify *)
  let mem1 =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"y" ~value:1 ~from_:(t 1) ~to_:(t 2)
         ~view:Ps.View.bot)
      p.Ps.Thread.mem
  in
  let read1 =
    List.find
      (fun (s : Ps.Thread.step) -> s.Ps.Thread.event = Ps.Event.Rd (Rlx, "y", 1))
      (Ps.Thread.steps ~code p.Ps.Thread.ts mem1)
  in
  Alcotest.(check bool) "after reading y=1: inconsistent" false
    (Ps.Cert.consistent ~code read1.Ps.Thread.ts read1.Ps.Thread.mem)

let test_capped_blocks_cas_promise () =
  (* A thread that can only fulfill its promise by first succeeding a
     CAS on x must not be able to certify: the capped memory reserves
     the timestamps adjacent to existing messages, modelling that
     another thread may win the CAS first (Sec. 2.1). *)
  let code =
    Lang.Ast.code_of_list
      [
        ( "f",
          Lang.Ast.codeheap ~entry:"A"
            [
              ( "A",
                Lang.Ast.block
                  [
                    Lang.Ast.Cas ("r", "x", Lang.Ast.Val 0, Lang.Ast.Val 1, Rlx, WRlx);
                  ]
                  (Lang.Ast.Be (Lang.Ast.Reg "r", "B", "C")) );
              ("B", Lang.Ast.block [ Lang.Ast.Store ("y", Lang.Ast.Val 1, WRlx) ]
                      Lang.Ast.Return);
              ("C", Lang.Ast.block [] Lang.Ast.Return);
            ] );
      ]
  in
  let ts = Option.get (Ps.Thread.init code "f") in
  let mem = Ps.Memory.init [ "x"; "y" ] in
  let ps =
    Ps.Thread.promise_steps ~candidates:[ ("y", 1) ]
      ~atomics:(Lang.Ast.VarSet.singleton "x") ts mem
  in
  List.iter
    (fun (p : Ps.Thread.step) ->
      Alcotest.(check bool) "CAS-dependent promise cannot certify at capped memory"
        false
        (Ps.Cert.consistent ~code p.Ps.Thread.ts p.Ps.Thread.mem))
    ps;
  (* the ablation: without capping, the same promise certifies — the
     capped memory is exactly what rules it out *)
  List.iter
    (fun (p : Ps.Thread.step) ->
      Alcotest.(check bool) "uncapped certification would accept" true
        (Ps.Cert.consistent ~cap:false ~code p.Ps.Thread.ts p.Ps.Thread.mem))
    ps

let test_reservation_enables_cas_promise () =
  (* The reason reservations exist (Sec. 3): a thread that has
     reserved the timestamp interval adjacent to the current write of
     x owns the slot its CAS needs, so a promise depending on that CAS
     certifies even at the capped memory — the thread cancels its own
     reservation during certification and performs the update into the
     freed interval. *)
  let code =
    Lang.Ast.code_of_list
      [
        ( "f",
          Lang.Ast.codeheap ~entry:"A"
            [
              ( "A",
                Lang.Ast.block
                  [
                    Lang.Ast.Cas ("r", "x", Lang.Ast.Val 0, Lang.Ast.Val 1, Rlx, WRlx);
                  ]
                  (Lang.Ast.Be (Lang.Ast.Reg "r", "B", "C")) );
              ("B", Lang.Ast.block [ Lang.Ast.Store ("y", Lang.Ast.Val 1, WRlx) ]
                      Lang.Ast.Return);
              ("C", Lang.Ast.block [] Lang.Ast.Return);
            ] );
      ]
  in
  let ts = Option.get (Ps.Thread.init code "f") in
  let mem = Ps.Memory.init [ "x"; "y" ] in
  (* reserve the interval right after x's initialization message *)
  let rsv =
    List.find
      (fun (s : Ps.Thread.step) ->
        match s.Ps.Thread.ts.Ps.Thread.prm with
        | [ m ] ->
            Ps.Message.var m = "x"
            && Ps.Message.from_ m = 0
        | _ -> false)
      (Ps.Thread.reserve_steps ts mem)
  in
  let p =
    List.hd
      (Ps.Thread.promise_steps ~candidates:[ ("y", 1) ]
         ~atomics:(Lang.Ast.VarSet.singleton "x") rsv.Ps.Thread.ts
         rsv.Ps.Thread.mem)
  in
  Alcotest.(check bool)
    "with the reservation, the CAS-dependent promise certifies" true
    (Ps.Cert.consistent ~code p.Ps.Thread.ts p.Ps.Thread.mem)

let test_certifiable_writes () =
  let code, ts, mem =
    state
      [ Lang.Ast.Store ("x", Lang.Ast.Val 5, WNa);
        Lang.Ast.Store ("y", Lang.Ast.Val 6, WRlx) ]
      [ "x"; "y" ]
  in
  let ws = Ps.Cert.certifiable_writes ~code ts mem in
  Alcotest.(check (slist (pair string int) compare))
    "both upcoming writes are candidates"
    [ ("x", 5); ("y", 6) ]
    ws

let test_certifiable_writes_value_dependent () =
  (* x := r where r was read from y: from the capped memory y can
     only give 0, so the only candidate is (x, 0) — the LB-dependency
     (oota) restriction. *)
  let code, ts, mem =
    state
      [ Lang.Ast.Load ("r", "y", Rlx); Lang.Ast.Store ("x", Lang.Ast.Reg "r", WRlx) ]
      [ "x"; "y" ]
  in
  Alcotest.(check (list (pair string int)))
    "only (x,0)"
    [ ("x", 0) ]
    (Ps.Cert.certifiable_writes ~code ts mem)

let test_fuel_bound () =
  (* An unfulfillable promise with a spinning thread terminates the
     search via the fuel bound. *)
  let code =
    Lang.Ast.code_of_list
      [ ("f", Lang.Ast.codeheap ~entry:"A"
                [ ("A", Lang.Ast.block [ Lang.Ast.Skip ] (Lang.Ast.Jmp "A")) ]) ]
  in
  let ts = Option.get (Ps.Thread.init code "f") in
  let mem = Ps.Memory.init [ "x" ] in
  let p =
    List.hd
      (Ps.Thread.promise_steps ~candidates:[ ("x", 1) ]
         ~atomics:Lang.Ast.VarSet.empty ts mem)
  in
  Alcotest.(check bool) "spin loop cannot fulfill" false
    (Ps.Cert.consistent ~fuel:64 ~code p.Ps.Thread.ts p.Ps.Thread.mem)

(* Certification renumbers a step that leaves the grid.  The thread
   holds a reservation right after x's initialization message and a
   promise of y.  Its CAS chain on x can only start once it cancels the
   reservation, and then each CAS attaches at the midpoint of what is
   left of that one gap: on unrenumbered integers the fourth would get
   the zero-width interval (5,5]. *)
let test_cas_chain_in_cancelled_gap () =
  let cas r e n = Lang.Ast.Cas (r, "x", Lang.Ast.Val e, Lang.Ast.Val n, Rlx, WRlx) in
  let code, ts, mem =
    state
      [
        cas "r1" 0 1; cas "r2" 1 2; cas "r3" 2 3; cas "r4" 3 4;
        Lang.Ast.Store ("y", Lang.Ast.Val 1, WRlx);
      ]
      [ "x"; "y" ]
  in
  let rsv = Ps.Message.rsv ~var:"x" ~from_:0 ~to_:(t 1) in
  let prm =
    Ps.Message.msg ~var:"y" ~value:1 ~from_:(t 1) ~to_:(t 2) ~view:Ps.View.bot
  in
  let mem = Ps.Memory.add_exn prm (Ps.Memory.add_exn rsv mem) in
  let ts =
    { ts with Ps.Thread.prm = List.sort Ps.Message.compare [ rsv; prm ] }
  in
  Alcotest.(check bool) "certifiable through the chain" true
    (Ps.Cert.consistent ~code ts mem)

let () =
  Alcotest.run "cert"
    [
      ( "consistency",
        [
          Alcotest.test_case "trivial" `Quick test_no_promise_trivially_consistent;
          Alcotest.test_case "fulfillable" `Quick
            test_fulfillable_promise_consistent;
          Alcotest.test_case "unfulfillable" `Quick
            test_unfulfillable_promise_inconsistent;
          Alcotest.test_case "wrong value" `Quick test_wrong_value_inconsistent;
          Alcotest.test_case "conditional (Fig. 4)" `Quick test_conditional_promise;
          Alcotest.test_case "capped blocks CAS promises" `Quick
            test_capped_blocks_cas_promise;
          Alcotest.test_case "reservation enables CAS promise" `Quick
            test_reservation_enables_cas_promise;
          Alcotest.test_case "fuel bound" `Quick test_fuel_bound;
          Alcotest.test_case "CAS chain in a cancelled reservation's gap"
            `Quick test_cas_chain_in_cancelled_gap;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "certifiable writes" `Quick test_certifiable_writes;
          Alcotest.test_case "value-dependent" `Quick
            test_certifiable_writes_value_dependent;
        ] );
    ]
