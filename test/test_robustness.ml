(* The resilience layer: budget truncation is always surfaced (never a
   verdict over a silently partial state space), the typed error
   taxonomy replaces bare exceptions, fault injection only degrades
   verdicts, and the stress runner quarantines crashes reproducibly. *)

let config = Explore.Config.default

let done_outs_of traces =
  Explore.Traceset.done_outs traces
  |> List.map (List.sort compare)
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* Truncation soundness (the regression guard of the issue): a program
   whose full traceset needs more than [max_steps] must come back
   [Truncated] and force every downstream verdict to inconclusive;
   the same program with budget to spare yields the exhaustive
   verdict. *)

let test_truncation_soundness () =
  let p = Litmus.sb.Litmus.prog in
  let tight = { config with Explore.Config.max_steps = 6 } in
  let o = Explore.Enum.behaviors_exn ~config:tight Explore.Enum.Interleaving p in
  (match o.Explore.Enum.completeness with
  | Explore.Enum.Truncated reasons ->
      Alcotest.(check bool)
        "step budget among reasons" true
        (List.mem Explore.Errors.Step_budget reasons)
  | Explore.Enum.Exhaustive -> Alcotest.fail "expected Truncated");
  Alcotest.(check bool) "exact mirrors completeness" false o.Explore.Enum.exact;
  (* refinement of p against itself: trivially true, but not claimable
     on a truncated exploration *)
  let rep = Explore.Refine.check ~config:tight ~target:p ~source:p () in
  (match rep.Explore.Refine.verdict with
  | Explore.Refine.Inconclusive _ -> ()
  | v ->
      Alcotest.failf "expected Inconclusive, got %a" Explore.Refine.pp_verdict v);
  (* litmus check inherits the downgrade *)
  (match (Litmus.check ~config:tight Litmus.sb).Litmus.verdict with
  | Litmus.Inconclusive _ -> ()
  | Litmus.Pass | Litmus.Mismatch _ -> Alcotest.fail "expected Inconclusive");
  (* with a sufficient budget everything is exhaustive again *)
  let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving p in
  Alcotest.(check bool)
    "exhaustive with budget" true
    (o.Explore.Enum.completeness = Explore.Enum.Exhaustive);
  let rep = Explore.Refine.check ~config ~target:p ~source:p () in
  Alcotest.(check bool)
    "refines with budget" true
    (rep.Explore.Refine.verdict = Explore.Refine.Refines);
  Alcotest.(check bool)
    "litmus passes with budget" true
    ((Litmus.check ~config Litmus.sb).Litmus.verdict = Litmus.Pass)

let test_node_budget () =
  let cfg = { config with Explore.Config.max_nodes = Some 3 } in
  let o =
    Explore.Enum.behaviors_exn ~config:cfg Explore.Enum.Interleaving
      Litmus.sb.Litmus.prog
  in
  (match o.Explore.Enum.completeness with
  | Explore.Enum.Truncated reasons ->
      Alcotest.(check bool)
        "node budget among reasons" true
        (List.mem Explore.Errors.Node_budget reasons)
  | Explore.Enum.Exhaustive -> Alcotest.fail "expected Truncated");
  Alcotest.(check bool)
    "counter incremented" true
    (Explore.Stats.(get o.Explore.Enum.stats node_budget_hits) > 0)

let test_deadline_budget () =
  (* A deadline of 0 ms is already past when the first wall-clock
     probe runs; the amortization means a big enough search always
     probes. *)
  let cfg =
    {
      config with
      Explore.Config.deadline_ms = Some 0;
      max_steps = 100_000;
      max_promises = 2;
    }
  in
  let o =
    Explore.Enum.behaviors_exn ~config:cfg Explore.Enum.Interleaving
      Litmus.spinlock.Litmus.prog
  in
  Alcotest.(check bool)
    "deadline tripped" true
    (Explore.Stats.(get o.Explore.Enum.stats deadline_hits) > 0);
  match o.Explore.Enum.completeness with
  | Explore.Enum.Truncated reasons ->
      Alcotest.(check bool)
        "deadline among reasons" true
        (List.mem Explore.Errors.Deadline reasons)
  | Explore.Enum.Exhaustive -> Alcotest.fail "expected Truncated"

(* The reason/counter correspondence (docs/OBSERVABILITY.md): a reason
   appears in [truncation_reasons] iff its counter is nonzero — in
   BOTH directions, across config variants that trip each budget and
   configs that trip none.  This pins the derivation [Stats.
   truncation_reasons] against counter renames or forgotten reasons. *)

let counter_for stats r =
  Explore.Stats.get stats
    (match r with
    | Explore.Errors.Step_budget -> Explore.Stats.cuts
    | Explore.Errors.Promise_budget -> Explore.Stats.promise_budget_hits
    | Explore.Errors.Deadline -> Explore.Stats.deadline_hits
    | Explore.Errors.Node_budget -> Explore.Stats.node_budget_hits
    | Explore.Errors.Oom -> Explore.Stats.oom_hits
    | Explore.Errors.Fault -> Explore.Stats.faults_injected)

let all_reasons =
  [ Explore.Errors.Step_budget; Explore.Errors.Promise_budget;
    Explore.Errors.Deadline; Explore.Errors.Node_budget;
    Explore.Errors.Oom; Explore.Errors.Fault ]

let test_reasons_match_counters () =
  let variants =
    [
      ("default", config, Litmus.sb.Litmus.prog);
      ( "max_steps=6",
        { config with Explore.Config.max_steps = 6 },
        Litmus.sb.Litmus.prog );
      ( "max_nodes=3",
        { config with Explore.Config.max_nodes = Some 3 },
        Litmus.sb.Litmus.prog );
      ( "deadline_ms=0",
        { config with Explore.Config.deadline_ms = Some 0;
          max_steps = 100_000; max_promises = 2 },
        Litmus.spinlock.Litmus.prog );
      ( "fault rate=20%",
        { config with
          Explore.Config.fault =
            Some { Explore.Config.fault_seed = 3; fault_rate = 0.2 } },
        Litmus.lb.Litmus.prog );
      ( "strict max_promises=0",
        { config with Explore.Config.max_promises = 0;
          strict_promises = true },
        Litmus.lb.Litmus.prog );
    ]
  in
  List.iter
    (fun (name, cfg, prog) ->
      let o = Explore.Enum.behaviors_exn ~config:cfg Explore.Enum.Interleaving prog in
      let stats = o.Explore.Enum.stats in
      let reasons = Explore.Stats.truncation_reasons stats in
      List.iter
        (fun r ->
          let listed = List.mem r reasons in
          let counted = counter_for stats r > 0 in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s listed iff counted" name
               (Explore.Errors.reason_to_string r))
            counted listed)
        all_reasons;
      (* and the reason list agrees with the outcome's completeness *)
      Alcotest.(check bool)
        (name ^ ": reasons empty iff exhaustive")
        (reasons = [])
        (o.Explore.Enum.completeness = Explore.Enum.Exhaustive))
    variants

let test_race_inconclusive_on_truncation () =
  let cfg = { config with Explore.Config.max_steps = 3 } in
  (* ww_sync is race-free with a full exploration; under truncation
     that claim must not survive. *)
  match Race.ww_rf ~config:cfg Litmus.ww_sync.Litmus.prog with
  | Ok (Race.Inconclusive _) -> ()
  | Ok Race.Free -> Alcotest.fail "claimed Free over a truncated walk"
  | Ok (Race.Racy _) -> Alcotest.fail "unexpected race"
  | Error e -> Alcotest.fail e

let test_verif_inconclusive_on_truncation () =
  let cfg = { config with Explore.Config.max_steps = 3 } in
  let r = Option.get (Sim.Verif.find "dce") in
  match Sim.Verif.check ~explore_config:cfg r Litmus.mp_rel_acq.Litmus.prog with
  | Sim.Verif.Inconclusive _ -> ()
  | Sim.Verif.Verified -> Alcotest.fail "Verified over a truncated state space"
  | Sim.Verif.Fail (_, why) -> Alcotest.failf "unexpected Fail: %s" why

(* ------------------------------------------------------------------ *)
(* Fault injection: under every seeded schedule, (a) completed traces
   are a subset of the fault-free run's, and (b) pipeline verdicts
   only move toward Inconclusive — never a flip to Verified, and any
   Fail under fault matches the fault-free refutation. *)

let test_fault_subset () =
  let programs =
    [ Litmus.sb; Litmus.lb; Litmus.mp_rel_acq; Litmus.coherence ]
  in
  List.iter
    (fun (t : Litmus.t) ->
      let base =
        Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving
          t.Litmus.prog
      in
      let base_outs = done_outs_of base.Explore.Enum.traces in
      for seed = 0 to 99 do
        let cfg =
          {
            config with
            Explore.Config.fault =
              Some { Explore.Config.fault_seed = seed; fault_rate = 0.05 };
          }
        in
        let o =
          Explore.Enum.behaviors_exn ~config:cfg Explore.Enum.Interleaving
            t.Litmus.prog
        in
        let outs = done_outs_of o.Explore.Enum.traces in
        List.iter
          (fun out ->
            Alcotest.(check bool)
              (Printf.sprintf "%s seed %d: faulty outcome in fault-free set"
                 t.Litmus.name seed)
              true (List.mem out base_outs))
          outs;
        (* A schedule that fired must surface as truncation. *)
        if Explore.Stats.(get o.Explore.Enum.stats faults_injected) > 0 then
          match o.Explore.Enum.completeness with
          | Explore.Enum.Truncated reasons ->
              Alcotest.(check bool)
                "fault among reasons" true
                (List.mem Explore.Errors.Fault reasons)
          | Explore.Enum.Exhaustive ->
              Alcotest.fail "faults fired but outcome claims Exhaustive"
      done)
    programs

let test_fault_verdict_monotone () =
  let r = Option.get (Sim.Verif.find "constprop") in
  let programs =
    [ Litmus.mp_rel_acq.Litmus.prog; Litmus.ww_sync.Litmus.prog ]
  in
  List.iter
    (fun p ->
      let base = Sim.Verif.check r p in
      for seed = 0 to 99 do
        let cfg =
          {
            config with
            Explore.Config.fault =
              Some { Explore.Config.fault_seed = seed; fault_rate = 0.02 };
          }
        in
        match (base, Sim.Verif.check ~explore_config:cfg r p) with
        | _, Sim.Verif.Inconclusive _ -> ()
        | Sim.Verif.Verified, Sim.Verif.Verified -> ()
        | Sim.Verif.Fail _, Sim.Verif.Fail _ -> ()
        | Sim.Verif.Verified, Sim.Verif.Fail (_, why) ->
            (* Faults only remove behaviours, so a verified pipeline
               can degrade to Inconclusive but never conjure a
               refutation from thin air... except a racy state is
               always genuinely reachable, and faults cannot create
               states.  So this is a genuine flip: fail loudly. *)
            Alcotest.failf "seed %d: Verified flipped to Fail: %s" seed why
        | Sim.Verif.Fail _, Sim.Verif.Verified ->
            Alcotest.failf "seed %d: Fail flipped to Verified" seed
        | Sim.Verif.Inconclusive _, v ->
            Alcotest.failf "fault-free run inconclusive?! %a"
              Sim.Verif.pp_verdict v
      done)
    programs

(* ------------------------------------------------------------------ *)
(* The typed error taxonomy. *)

let test_parse_positions () =
  (match Lang.Parse.program_of_string "threads t1;\nproc t1 entry L {\n  L: x.na := @;\n}" with
  | exception Lang.Parse.Error e ->
      Alcotest.(check int) "line" 3 e.Lang.Parse.line;
      Alcotest.(check bool) "column points into the line" true
        (e.Lang.Parse.col > 1)
  | _ -> Alcotest.fail "expected a parse error");
  match Lang.Parse.program_of_string "threads t1;\nproc t1 entry L {\n  L: jmp\n}" with
  | exception Lang.Parse.Error e ->
      Alcotest.(check bool) "message mentions the offending token" true
        (let m = Lang.Parse.error_message e in
         String.length m > 0 && e.Lang.Parse.line >= 3)
  | _ -> Alcotest.fail "expected a parse error"

let test_wf_exception () =
  let open Lang.Ast in
  let p =
    program
      ~code:[ ("t1", codeheap ~entry:"L" [ ("L", block [] Return) ]) ]
      [ "t1"; "missing" ]
  in
  match Lang.Wf.check_exn p with
  | exception Lang.Wf.Ill_formed (_ :: _) -> ()
  | exception Lang.Wf.Ill_formed [] -> Alcotest.fail "empty error list"
  | _ -> Alcotest.fail "expected Ill_formed"

let test_error_classification () =
  let open Explore.Errors in
  Alcotest.(check bool)
    "invalid_arg classifies as Ill_formed" true
    (match of_exn (Invalid_argument "x") with Ill_formed _ -> true | _ -> false);
  Alcotest.(check bool)
    "stack overflow is Internal" true
    (match of_exn Stack_overflow with Internal _ -> true | _ -> false);
  Alcotest.(check bool)
    "guard catches typed errors" true
    (match guard (fun () -> raise (Error (Budget_exhausted "b"))) with
    | Error (Budget_exhausted _) -> true
    | _ -> false);
  Alcotest.(check bool)
    "guard passes values through" true
    (guard (fun () -> 41 + 1) = Ok 42)

let test_behaviors_exn_typed () =
  let open Lang.Ast in
  (* thread function never declared: Machine.init fails *)
  let p =
    {
      (program
         ~code:[ ("t1", codeheap ~entry:"L" [ ("L", block [] Return) ]) ]
         [ "t1" ])
      with
      threads = [ "ghost" ];
    }
  in
  match Explore.Enum.behaviors_exn Explore.Enum.Interleaving p with
  | exception Explore.Errors.Error (Explore.Errors.Ill_formed _) -> ()
  | _ -> Alcotest.fail "expected a typed Ill_formed error"

(* ------------------------------------------------------------------ *)
(* Stress runner: generation is deterministic, verdict accounting
   adds up, crashes are quarantined with a round-trippable artifact. *)

let test_generator_deterministic () =
  for seed = 0 to 20 do
    let p1 = Explore.Stress.generate ~seed in
    let p2 = Explore.Stress.generate ~seed in
    Alcotest.(check string)
      (Printf.sprintf "seed %d reproducible" seed)
      (Lang.Pp.program_to_string p1)
      (Lang.Pp.program_to_string p2);
    Alcotest.(check bool)
      "generated programs are well-formed" true
      (Lang.Wf.check p1 = Ok ())
  done

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Sys.rmdir dir
  end

let test_stress_accounting () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "psopt-stress-ok" in
  rm_rf dir;
  let r = Option.get (Sim.Verif.find "dce") in
  let check ~config p =
    match Sim.Verif.check ~explore_config:config r p with
    | Sim.Verif.Verified -> `Verified
    | Sim.Verif.Fail (_, why) -> `Refuted why
    | Sim.Verif.Inconclusive why -> `Inconclusive why
  in
  let s =
    Explore.Stress.run ~quarantine_dir:dir ~cases:8 ~seed:0 ~deadline_ms:5000
      ~check ()
  in
  Alcotest.(check int) "all cases accounted" 8
    (s.Explore.Stress.verified + s.Explore.Stress.refuted
    + s.Explore.Stress.inconclusive + s.Explore.Stress.quarantined);
  Alcotest.(check int) "no quarantines" 0 s.Explore.Stress.quarantined;
  Alcotest.(check bool)
    "inflight file cleaned up" false
    (Sys.file_exists (Filename.concat dir "inflight.sexp"));
  rm_rf dir

let test_stress_quarantine () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "psopt-stress-crash"
  in
  rm_rf dir;
  let ticks = ref 0 in
  let check ~config:_ _ =
    incr ticks;
    if !ticks = 2 then failwith "injected checker bug" else `Verified
  in
  let s =
    Explore.Stress.run ~retries:0 ~quarantine_dir:dir ~cases:3 ~seed:7
      ~deadline_ms:1000 ~check ()
  in
  Alcotest.(check int) "one quarantine" 1 s.Explore.Stress.quarantined;
  Alcotest.(check int) "others verified" 2 s.Explore.Stress.verified;
  (* the artifact exists and round-trips to the generated program *)
  let sexps =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sexp")
    |> List.filter (fun f -> f <> "inflight.sexp")
  in
  (match sexps with
  | [ f ] -> (
      let ic = open_in_bin (Filename.concat dir f) in
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match Lang.Sexp.program_of_string contents with
      | Ok p ->
          let expected =
            Explore.Stress.generate ~seed:(7 + 1) (* second case *)
          in
          Alcotest.(check string)
            "artifact round-trips to the generated program"
            (Lang.Pp.program_to_string expected)
            (Lang.Pp.program_to_string p)
      | Error e -> Alcotest.failf "artifact does not parse: %s" e)
  | fs -> Alcotest.failf "expected exactly one artifact, got %d" (List.length fs));
  rm_rf dir

let test_stress_retry_escalation () =
  (* A checker inconclusive at the base budget and verified once the
     budget doubles: the retry loop must find the second attempt. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "psopt-stress-retry"
  in
  rm_rf dir;
  let check ~config p =
    ignore p;
    if config.Explore.Config.max_steps > Explore.Config.default.Explore.Config.max_steps
    then `Verified
    else `Inconclusive "needs a bigger budget"
  in
  let s =
    Explore.Stress.run ~retries:2 ~quarantine_dir:dir ~cases:1 ~seed:0
      ~deadline_ms:1000 ~check ()
  in
  Alcotest.(check int) "verified after escalation" 1 s.Explore.Stress.verified;
  (match s.Explore.Stress.results with
  | [ r ] -> Alcotest.(check int) "took two attempts" 2 r.Explore.Stress.attempts
  | _ -> Alcotest.fail "expected one result");
  rm_rf dir

let () =
  Alcotest.run "robustness"
    [
      ( "truncation",
        [
          Alcotest.test_case "budget truncation is surfaced and sufficient \
                              budget restores exhaustive verdicts"
            `Quick test_truncation_soundness;
          Alcotest.test_case "node budget" `Quick test_node_budget;
          Alcotest.test_case "wall-clock deadline" `Quick test_deadline_budget;
          Alcotest.test_case "reasons listed iff counters nonzero" `Quick
            test_reasons_match_counters;
          Alcotest.test_case "race freedom not claimable under truncation"
            `Quick test_race_inconclusive_on_truncation;
          Alcotest.test_case "Verif.check inconclusive under truncation"
            `Quick test_verif_inconclusive_on_truncation;
        ] );
      ( "fault-injection",
        [
          Alcotest.test_case "completed traces subset of fault-free (100 seeds)"
            `Quick test_fault_subset;
          Alcotest.test_case "verdicts only degrade (100 seeds)" `Quick
            test_fault_verdict_monotone;
        ] );
      ( "errors",
        [
          Alcotest.test_case "positioned parse errors" `Quick
            test_parse_positions;
          Alcotest.test_case "wf raises Ill_formed" `Quick test_wf_exception;
          Alcotest.test_case "exception classification and guard" `Quick
            test_error_classification;
          Alcotest.test_case "behaviors_exn raises typed errors" `Quick
            test_behaviors_exn_typed;
        ] );
      ( "stress",
        [
          Alcotest.test_case "generator deterministic and well-formed" `Quick
            test_generator_deterministic;
          Alcotest.test_case "accounting adds up, inflight cleaned" `Quick
            test_stress_accounting;
          Alcotest.test_case "crash quarantines a reproducible artifact"
            `Quick test_stress_quarantine;
          Alcotest.test_case "budget escalation on retry" `Quick
            test_stress_retry_escalation;
        ] );
    ]
