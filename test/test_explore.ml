(* The bounded-exhaustive explorer and refinement checker: machine
   semantics (Fig. 9/10), Theorem 4.1, prefix-closed behaviour sets,
   and the sampling sanity property. *)

let sorted l = List.sort compare l

let outcomes ?config disc prog =
  let o = Explore.Enum.behaviors_exn ?config disc prog in
  ( Explore.Traceset.done_outs o.Explore.Enum.traces
    |> List.map sorted |> List.sort_uniq compare,
    o )

let test_sb_weak_outcome () =
  let outs, o = outcomes Explore.Enum.Interleaving Litmus.sb.Litmus.prog in
  Alcotest.(check bool) "exact" true o.Explore.Enum.exact;
  Alcotest.(check bool) "0/0 observable" true (List.mem [ 0; 0 ] outs);
  Alcotest.(check bool) "1/1 observable" true (List.mem [ 1; 1 ] outs)

let test_lb_needs_promises () =
  let with_p, _ = outcomes Explore.Enum.Interleaving Litmus.lb.Litmus.prog in
  Alcotest.(check bool) "1/1 with promises" true (List.mem [ 1; 1 ] with_p);
  let without, _ =
    outcomes ~config:Explore.Config.quick Explore.Enum.Interleaving
      Litmus.lb.Litmus.prog
  in
  Alcotest.(check bool) "1/1 impossible without promises" false
    (List.mem [ 1; 1 ] without)

let test_oota_forbidden () =
  let outs, _ = outcomes Explore.Enum.Interleaving Litmus.lb_oota.Litmus.prog in
  Alcotest.(check (list (list int))) "only 0/0" [ [ 0; 0 ] ] outs

let test_syntactic_promise_mode () =
  (* the LB promise (y := 1 is a constant store) is also found by the
     cheap syntactic candidate collector *)
  let cfg = { Explore.Config.default with promise_mode = Explore.Config.Syntactic } in
  let outs, _ = outcomes ~config:cfg Explore.Enum.Interleaving Litmus.lb.Litmus.prog in
  Alcotest.(check bool) "1/1 via syntactic candidates" true
    (List.mem [ 1; 1 ] outs)

let test_every_litmus_claim () =
  List.iter
    (fun (t : Litmus.t) ->
      let outs, o = outcomes Explore.Enum.Interleaving t.Litmus.prog in
      Alcotest.(check bool) (t.Litmus.name ^ " exact") true o.Explore.Enum.exact;
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "%s expects %s" t.Litmus.name
               (String.concat ";" (List.map string_of_int e)))
            true
            (List.mem (sorted e) outs))
        t.Litmus.expected;
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s forbids %s" t.Litmus.name
               (String.concat ";" (List.map string_of_int f)))
            false
            (List.mem (sorted f) outs))
        t.Litmus.forbidden)
    Litmus.all

let test_np_equivalence_corpus () =
  (* Theorem 4.1, exhaustively on the corpus. *)
  List.iter
    (fun (t : Litmus.t) ->
      Alcotest.(check bool)
        (t.Litmus.name ^ " interleaving = non-preemptive")
        true
        (Explore.Refine.equivalent_disciplines t.Litmus.prog))
    Litmus.all

let test_np_never_larger () =
  (* the non-preemptive machine visits at most as many states; node
     counts are only comparable single-domain (frontier splitting
     re-expands shared subtrees), so pin domains even under PSOPT_J *)
  let config = { Explore.Config.default with Explore.Config.domains = 1 } in
  List.iter
    (fun (t : Litmus.t) ->
      let _, oi = outcomes ~config Explore.Enum.Interleaving t.Litmus.prog in
      let _, onp = outcomes ~config Explore.Enum.Non_preemptive t.Litmus.prog in
      Alcotest.(check bool)
        (t.Litmus.name ^ " np state count <= interleaving")
        true
        Explore.Stats.(
          get onp.Explore.Enum.stats nodes <= get oi.Explore.Enum.stats nodes))
    Litmus.all

let test_closure () =
  let tr outs ending = { Ps.Event.outs; ending } in
  let s = Explore.Traceset.of_list [ tr [ 1; 2 ] Ps.Event.Done ] in
  let c = Explore.Traceset.closure s in
  Alcotest.(check int) "done + 3 open prefixes" 4 (Explore.Traceset.cardinal c);
  Alcotest.(check bool) "keeps done" true
    (Explore.Traceset.mem (tr [ 1; 2 ] Ps.Event.Done) c);
  Alcotest.(check bool) "[1] open" true
    (Explore.Traceset.mem (tr [ 1 ] Ps.Event.Open) c);
  Alcotest.(check bool) "[] open" true
    (Explore.Traceset.mem (tr [] Ps.Event.Open) c);
  (* closure is idempotent *)
  Alcotest.(check bool) "idempotent" true
    (Explore.Traceset.equal c (Explore.Traceset.closure c))

let test_closure_oracle () =
  (* Pin the closure extensionally against a brute-force oracle on a
     longer trace mix, so the linear-time rewrite cannot drift from
     the spec: closure(S) = S ∪ { prefix·Open | trace ∈ S, prefix of
     its outs }.  Also guards the worst case the old implementation
     made cubic (it rebuilt every prefix with filteri/length). *)
  let tr outs ending = { Ps.Event.outs; ending } in
  let long = List.init 200 (fun i -> i) in
  let s =
    Explore.Traceset.of_list
      [
        tr long Ps.Event.Done;
        tr [ 1; 2; 3 ] Ps.Event.Cut;
        tr [ 1; 2 ] Ps.Event.Done;
        tr [] Ps.Event.Done;
      ]
  in
  let oracle =
    Explore.Traceset.fold
      (fun t acc ->
        let rec prefixes = function
          | [] -> [ [] ]
          | x :: rest -> [] :: List.map (fun p -> x :: p) (prefixes rest)
        in
        List.fold_left
          (fun acc p -> Explore.Traceset.add (tr p Ps.Event.Open) acc)
          acc (prefixes t.Ps.Event.outs))
      s s
  in
  Alcotest.(check bool) "closure matches brute-force oracle" true
    (Explore.Traceset.equal oracle (Explore.Traceset.closure s))

let test_equal_behaviour () =
  let tr outs ending = { Ps.Event.outs; ending } in
  let a = Explore.Traceset.of_list [ tr [ 1; 2 ] Ps.Event.Done ] in
  (* open prefixes are implied, so adding them does not change the
     behaviour... *)
  let b = Explore.Traceset.add (tr [ 1 ] Ps.Event.Open) a in
  Alcotest.(check bool) "implied prefixes are no-ops" true
    (Explore.Traceset.equal_behaviour a b);
  (* ...but a non-prefix open trace, a different output order, or a
     different ending does *)
  Alcotest.(check bool) "extra open trace distinguishes" false
    (Explore.Traceset.equal_behaviour a
       (Explore.Traceset.add (tr [ 3 ] Ps.Event.Open) a));
  Alcotest.(check bool) "output order distinguishes" false
    (Explore.Traceset.equal_behaviour a
       (Explore.Traceset.of_list [ tr [ 2; 1 ] Ps.Event.Done ]));
  Alcotest.(check bool) "ending distinguishes" false
    (Explore.Traceset.equal_behaviour a
       (Explore.Traceset.of_list [ tr [ 1; 2 ] Ps.Event.Cut ]))

let test_traceset_ops () =
  let tr outs ending = { Ps.Event.outs; ending } in
  let s =
    Explore.Traceset.of_list
      [ tr [ 1 ] Ps.Event.Done; tr [ 2 ] Ps.Event.Open; tr [ 3 ] Ps.Event.Cut ]
  in
  Alcotest.(check int) "completed keeps done only" 1
    (Explore.Traceset.cardinal (Explore.Traceset.completed s));
  Alcotest.(check (list (list int))) "done_outs" [ [ 1 ] ]
    (Explore.Traceset.done_outs s);
  Alcotest.(check bool) "has_done" true (Explore.Traceset.has_done [ 1 ] s);
  Alcotest.(check bool) "has_done needs done ending" false
    (Explore.Traceset.has_done [ 2 ] s);
  let p = Explore.Traceset.prepend 9 s in
  Alcotest.(check bool) "prepend" true
    (Explore.Traceset.has_done [ 9; 1 ] p);
  let src = Explore.Traceset.of_list [ tr [ 1 ] Ps.Event.Done; tr [ 4 ] Ps.Event.Done ] in
  Alcotest.(check bool) "is_refined_by" true
    (Explore.Traceset.is_refined_by
       ~target:(Explore.Traceset.of_list [ tr [ 1 ] Ps.Event.Done ])
       ~source:src);
  Alcotest.(check bool) "violation detected" false
    (Explore.Traceset.is_refined_by
       ~target:(Explore.Traceset.of_list [ tr [ 5 ] Ps.Event.Done ])
       ~source:src);
  Alcotest.(check int) "diff_done lists offenders" 1
    (Explore.Traceset.cardinal
       (Explore.Traceset.diff_done
          ~target:(Explore.Traceset.of_list [ tr [ 5 ] Ps.Event.Done ])
          ~source:src))

let test_refinement_verdicts () =
  (* identical programs refine both ways *)
  let p = Litmus.sb.Litmus.prog in
  Alcotest.(check bool) "refl" true (Explore.Refine.refines ~target:p ~source:p ());
  (* Fig. 1: the violating direction and the sound direction *)
  let rep =
    Explore.Refine.check ~target:Litmus.fig1_foo_opt.Litmus.prog
      ~source:Litmus.fig1_foo.Litmus.prog ()
  in
  (match rep.Explore.Refine.verdict with
  | Explore.Refine.Violates bad ->
      Alcotest.(check bool) "counterexample prints 0" true
        (List.exists
           (fun tr ->
             tr.Ps.Event.outs = [ 0 ] && tr.Ps.Event.ending = Ps.Event.Done)
           bad)
  | v ->
      Alcotest.failf "expected violation, got %a" Explore.Refine.pp_verdict v);
  Alcotest.(check bool) "source refines target here (opt has more)" true
    (Explore.Refine.refines ~target:Litmus.fig1_foo.Litmus.prog
       ~source:Litmus.fig1_foo_opt.Litmus.prog ());
  (* the relaxed variants are equivalent *)
  Alcotest.(check bool) "rlx variants equivalent" true
    (Explore.Refine.equivalent Litmus.fig1_foo_rlx.Litmus.prog
       Litmus.fig1_foo_opt_rlx.Litmus.prog)

let test_np_discipline_refinement () =
  (* refinement verdicts agree across disciplines on a violation *)
  let check d =
    (Explore.Refine.check ~discipline:d ~target:Litmus.fig15_bad_tgt.Litmus.prog
       ~source:Litmus.fig15_src.Litmus.prog ())
      .Explore.Refine.verdict
  in
  let v_il = check Explore.Enum.Interleaving in
  let v_np = check Explore.Enum.Non_preemptive in
  let violates = function Explore.Refine.Violates _ -> true | _ -> false in
  Alcotest.(check bool) "interleaving violates" true (violates v_il);
  Alcotest.(check bool) "np violates" true (violates v_np)

let test_cut_reported () =
  (* an artificial tiny budget must surface as inexact, not silently *)
  let cfg = { Explore.Config.quick with max_steps = 3 } in
  let o =
    Explore.Enum.behaviors_exn ~config:cfg Explore.Enum.Interleaving
      Litmus.sb.Litmus.prog
  in
  Alcotest.(check bool) "inexact" false o.Explore.Enum.exact;
  Alcotest.(check bool) "cut trace present" true
    (Explore.Traceset.exists
       (fun tr -> tr.Ps.Event.ending = Ps.Event.Cut)
       o.Explore.Enum.traces);
  (* and refinement refuses to conclude *)
  let rep =
    Explore.Refine.check ~config:cfg ~target:Litmus.sb.Litmus.prog
      ~source:Litmus.sb.Litmus.prog ()
  in
  match rep.Explore.Refine.verdict with
  | Explore.Refine.Inconclusive _ -> ()
  | v -> Alcotest.failf "expected inconclusive, got %a" Explore.Refine.pp_verdict v

let test_memoization_agrees () =
  (* memoized and non-memoized exploration compute the same set *)
  List.iter
    (fun name ->
      let t = Litmus.find name in
      let cfg_no = { Explore.Config.default with memoize = false } in
      let o1 = Explore.Enum.behaviors_exn Explore.Enum.Interleaving t.Litmus.prog in
      let o2 =
        Explore.Enum.behaviors_exn ~config:cfg_no Explore.Enum.Interleaving
          t.Litmus.prog
      in
      Alcotest.(check bool) (name ^ " memo-independent") true
        (Explore.Traceset.equal_behaviour o1.Explore.Enum.traces
           o2.Explore.Enum.traces))
    [ "sb"; "mp_rel_acq"; "cas_exclusive"; "fig16_src" ]

let test_sampling () =
  let freqs = Explore.Random_run.sample ~runs:200 Litmus.lb.Litmus.prog in
  Alcotest.(check bool) "some outcomes" true (freqs <> []);
  let total = List.fold_left (fun a (_, n) -> a + n) 0 freqs in
  Alcotest.(check int) "all runs complete on lb" 200 total;
  (* frequencies sorted descending *)
  let rec sorted = function
    | (_, a) :: ((_, b) :: _ as rest) -> a >= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by frequency" true (sorted freqs);
  (* sampling is promise-free: the LB outcome never appears, while
     the exhaustive explorer finds it *)
  Alcotest.(check bool) "1/1 never sampled" false
    (List.mem_assoc [ 1; 1 ] freqs);
  let enumerated =
    (Explore.Enum.behaviors_exn Explore.Enum.Interleaving Litmus.lb.Litmus.prog)
      .Explore.Enum.traces
  in
  List.iter
    (fun (outs, _) ->
      Alcotest.(check bool) "every sampled outcome enumerated" true
        (Explore.Traceset.has_done outs enumerated))
    freqs

let test_random_runs_within_enumeration () =
  (* every sampled trace is in the enumerated behaviour set *)
  List.iter
    (fun (t : Litmus.t) ->
      let o =
        Explore.Enum.behaviors_exn Explore.Enum.Interleaving t.Litmus.prog
      in
      let closure = Explore.Traceset.closure o.Explore.Enum.traces in
      for seed = 0 to 19 do
        let r = Explore.Random_run.run_exn ~seed t.Litmus.prog in
        let tr = r.Explore.Random_run.trace in
        if tr.Ps.Event.ending = Ps.Event.Done then
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %d sampled trace enumerated" t.Litmus.name
               seed)
            true
            (Explore.Traceset.mem tr closure)
      done)
    [ Litmus.sb; Litmus.mp_rel_acq; Litmus.coherence; Litmus.cas_exclusive ]

let test_iter_reachable () =
  let count = ref 0 and committed = ref 0 in
  (match
     Explore.Enum.iter_reachable Explore.Enum.Interleaving Litmus.sb.Litmus.prog
       ~f:(fun ~committed:c _ ->
         incr count;
         if c then incr committed)
   with
  | Ok stats ->
      Alcotest.(check int) "visits every node once"
        Explore.Stats.(get stats nodes)
        !count;
      Alcotest.(check bool) "some committed" true (!committed > 0);
      Alcotest.(check bool) "committed <= all" true (!committed <= !count)
  | Error e -> Alcotest.fail e)

let test_iter_reachable_budget_complete () =
  (* Regression: the walk used to mark a node visited at the depth it
     was *first* seen.  With reservations on, reserve/cancel detours
     are enumerated before the direct switch successors, so DFS first
     reaches many states above their minimal depth; under a tight
     [max_steps] their successors were cut at that deep first visit
     and never reconsidered when the state turned up again on a
     shorter path — undercounting reachable states, and doing so
     non-monotonically in the budget.  Recording the best (lowest)
     depth per node and re-expanding on improvement makes the walk
     budget-complete: once the budget covers every minimal path, the
     count equals the full state space. *)
  let p =
    Lang.Build.(
      program ~atomics:[ "x" ]
        [
          proc "t1"
            [ blk "L0" [ store "x" ~mode:Lang.Modes.WRlx (i 1) ] ret ];
          proc "t2"
            [
              blk "L0"
                [ load "r" "x" ~mode:Lang.Modes.Rlx; print (r "r") ]
                ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ])
  in
  let count b =
    let cfg =
      { Explore.Config.default with max_steps = b; reservations = true }
    in
    match
      Explore.Enum.iter_reachable ~config:cfg Explore.Enum.Interleaving p
        ~f:(fun ~committed:_ _ -> ())
    with
    | Ok st -> Explore.Stats.(get st nodes, get st transitions)
    | Error e -> Alcotest.fail e
  in
  let full = count 40 in
  Alcotest.(check (pair int int))
    "tight budget covers the full state space" full (count 15);
  let n12, _ = count 12 and n13, _ = count 13 in
  Alcotest.(check bool) "node count monotone in the budget" true (n12 <= n13)

(* Regression: a state already expanded at a shallower depth and met
   again at the budget used to count a step cut, so iriw at 20 steps
   came back [Truncated] though it visits every state it visits at
   400. *)
let test_iter_reachable_no_spurious_cut () =
  List.iter
    (fun disc ->
      let config = { Explore.Config.default with max_steps = 20 } in
      match
        Explore.Enum.iter_reachable ~config disc Litmus.iriw.Litmus.prog
          ~f:(fun ~committed:_ _ -> ())
      with
      | Ok st ->
          Alcotest.(check string)
            "exhaustive" "exhaustive"
            (Format.asprintf "%a" Explore.Enum.pp_completeness
               (Explore.Enum.completeness_of st));
          Alcotest.(check int) "nodes" 4852 Explore.Stats.(get st nodes)
      | Error e -> Alcotest.fail e)
    [ Explore.Enum.Interleaving; Explore.Enum.Non_preemptive ]

module NodeTbl = Hashtbl.Make (Explore.Enum.Node)

(* The reference: the reachability walk that expands a state again
   whenever it meets it at a shallower depth, cut or no cut.  Returns
   the worlds in first-visit order, the node and the transition
   count. *)
let reexpanding_walk ~config disc p =
  match Ps.Machine.init p with
  | Error e -> Alcotest.fail e
  | Ok world ->
      let st = Explore.Enum.stepper ~config disc p in
      let best = NodeTbl.create 1024 in
      let seen = ref [] and nodes = ref 0 and transitions = ref 0 in
      let rec visit n depth =
        if depth < config.Explore.Config.max_steps then
          match NodeTbl.find_opt best n with
          | Some d when d <= depth -> ()
          | prev ->
              NodeTbl.replace best n depth;
              let succs = Explore.Enum.successors st n in
              if prev = None then begin
                incr nodes;
                seen := Explore.Enum.Node.world n :: !seen;
                transitions := !transitions + List.length succs
              end;
              List.iter
                (fun s -> visit s.Explore.Enum.next (depth + 1))
                succs
      in
      visit (Explore.Enum.root world) 0;
      (List.rev !seen, !nodes, !transitions)

(* The scan expands each state once until it cuts one, and first
   visits states in the reference's order, with its counts; an
   [Exhaustive] scan visits what the unbounded one visits. *)
let test_iter_reachable_reference () =
  let programs =
    List.map (fun t -> (t.Litmus.name, t.Litmus.prog)) Litmus.all
    @ List.init 108 (fun seed ->
          (Printf.sprintf "seed %d" seed, Explore.Stress.generate ~seed))
  in
  let scan config disc p =
    let seen = ref [] in
    match
      Explore.Enum.iter_reachable ~config disc p ~f:(fun ~committed:_ w ->
          seen := w :: !seen)
    with
    | Ok st -> (List.rev !seen, st)
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun disc ->
          let at b = { Explore.Config.default with max_steps = b } in
          let nodes_of st = Explore.Stats.(get st nodes) in
          let full = nodes_of (snd (scan (at 400) disc p)) in
          List.iter
            (fun b ->
              let what = Printf.sprintf "%s at %d" name b in
              let worlds, st = scan (at b) disc p in
              let ref_worlds, nodes, transitions =
                reexpanding_walk ~config:(at b) disc p
              in
              Alcotest.(check bool)
                (what ^ " first visits") true
                (List.equal Ps.Machine.equal worlds ref_worlds);
              Alcotest.(check (pair int int))
                (what ^ " nodes, transitions") (nodes, transitions)
                (nodes_of st, Explore.Stats.(get st transitions));
              if Explore.Enum.completeness_of st = Explore.Enum.Exhaustive then
                Alcotest.(check int) (what ^ " exhaustive") full (nodes_of st))
            [ 6; 10; 14; 20; 400 ])
        [ Explore.Enum.Interleaving; Explore.Enum.Non_preemptive ])
    programs

let test_reservations_no_new_outcomes () =
  (* Enumerating reserve/cancel steps may widen the state space but
     must not change the completed outcomes: reservations only block
     others, never enable new values.  Kept to a small two-thread
     program — reservation interleavings multiply the state space
     (the explorer caps threads at one outstanding reservation; the
     certification-level uses are unit-tested in test_cert). *)
  let p =
    Lang.Build.(
      program ~atomics:[ "x" ]
        [
          proc "t1"
            [ blk "L0" [ store "x" ~mode:Lang.Modes.WRlx (i 1) ] ret ];
          proc "t2"
            [
              blk "L0"
                [ load "r" "x" ~mode:Lang.Modes.Rlx; print (r "r") ]
                ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ])
  in
  let cfg = { Explore.Config.default with reservations = true } in
  let base, _ = outcomes Explore.Enum.Interleaving p in
  let with_rsv, _ = outcomes ~config:cfg Explore.Enum.Interleaving p in
  Alcotest.(check (list (list int)))
    "outcomes stable under reservations" base with_rsv

let test_no_cap_candidates () =
  (* Promise candidates follow [cap_certification] like the
     certification itself: uncapped, t1's [y = 1] is a candidate. *)
  let done_11 config =
    let o =
      Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving
        Lb_cas.program
    in
    Alcotest.(check bool) "exhaustive" true o.Explore.Enum.exact;
    List.mem [ 1; 1 ] (Explore.Traceset.done_outs o.Explore.Enum.traces)
  in
  Alcotest.(check bool) "[1; 1] done uncapped" true
    (done_11 { Explore.Config.default with cap_certification = false });
  Alcotest.(check bool) "no [1; 1] capped" false
    (done_11 Explore.Config.default)

let has_promise w =
  List.exists
    (fun (s : Explore.Witness.step) -> s.Explore.Witness.event = Ps.Event.Prm)
    w

let test_witness_promise_bound () =
  (* The witness search walks the explorer's relation, so the promise
     bound binds it too: LB's [1; 1] needs one promise. *)
  let find k =
    let reduction =
      { Explore.Config.no_reduction with bound_promises = Some k }
    in
    Explore.Witness.find
      ~config:{ Explore.Config.default with reduction }
      ~outs:[ 1; 1 ] Litmus.lb.Litmus.prog
  in
  Alcotest.(check bool) "no witness at bound 0" true (find 0 = None);
  match find 1 with
  | None -> Alcotest.fail "LB 1/1 should have a witness at bound 1"
  | Some w -> Alcotest.(check bool) "a promise at bound 1" true (has_promise w)

let test_witness_lb () =
  (* The paper's annotated LB execution: a promise must appear. *)
  match Explore.Witness.find ~outs:[ 1; 1 ] Litmus.lb.Litmus.prog with
  | None -> Alcotest.fail "LB 1/1 should have a witness"
  | Some w ->
      Alcotest.(check bool) "contains a promise step" true
        (List.exists
           (fun (s : Explore.Witness.step) -> s.Explore.Witness.event = Ps.Event.Prm)
           w);
      Alcotest.(check int) "two output steps" 2
        (List.length
           (List.filter
              (fun (s : Explore.Witness.step) ->
                match s.Explore.Witness.event with
                | Ps.Event.Out _ -> true
                | _ -> false)
              w))

let test_witness_forbidden () =
  Alcotest.(check bool) "oota 1/1 has no witness" true
    (Explore.Witness.forbidden ~outs:[ 1; 1 ] Litmus.lb_oota.Litmus.prog);
  Alcotest.(check bool) "mp_rel_acq stale payload has no witness" true
    (Explore.Witness.forbidden ~outs:[ 0 ] Litmus.mp_rel_acq.Litmus.prog);
  (* out-order sensitivity: the witness search asks for the exact
     sequence, and mp only ever emits one output *)
  Alcotest.(check bool) "mp 42 observable" true
    (Explore.Witness.find ~outs:[ 42 ] Litmus.mp_rel_acq.Litmus.prog <> None)

let test_witness_np () =
  match
    Explore.Witness.find ~discipline:Explore.Enum.Non_preemptive
      ~outs:[ 1; 1 ] Litmus.lb.Litmus.prog
  with
  | None -> Alcotest.fail "np machine should also witness LB 1/1"
  | Some _ -> ()

let test_machine_init () =
  match Ps.Machine.init Litmus.sb.Litmus.prog with
  | Error e -> Alcotest.fail e
  | Ok w ->
      Alcotest.(check (list int)) "tids" [ 0; 1 ] (Ps.Machine.tids w);
      Alcotest.(check int) "cur" 0 w.Ps.Machine.cur;
      Alcotest.(check bool) "not finished" false (Ps.Machine.all_finished w);
      Alcotest.(check bool) "not terminal" false (Ps.Machine.terminal w)

(* ---- the switch-run memo (docs/SEMANTICS.md) ---- *)

let j1 =
  { Explore.Config.default with Explore.Config.domains = 1; oversubscribe = false }

(* Call-free with an acyclic block graph in every function: the only
   cycles of such a program's state space are switch cycles. *)
let loop_free (p : Lang.Ast.program) =
  Lang.Ast.FnameMap.for_all
    (fun _ (ch : Lang.Ast.codeheap) ->
      let blocks = ch.Lang.Ast.blocks in
      let color = Hashtbl.create 16 in
      let rec dag l =
        match Hashtbl.find_opt color l with
        | Some done_ -> done_
        | None -> (
            match Lang.Ast.LabelMap.find_opt l blocks with
            | None -> true
            | Some (b : Lang.Ast.block) ->
                Hashtbl.add color l false;
                let ok =
                  match b.Lang.Ast.term with
                  | Lang.Ast.Jmp l -> dag l
                  | Lang.Ast.Be (_, l1, l2) -> dag l1 && dag l2
                  | Lang.Ast.Call _ -> false
                  | Lang.Ast.Return -> true
                in
                Hashtbl.replace color l ok;
                ok)
      in
      Lang.Ast.LabelMap.for_all (fun l _ -> dag l) blocks)
    p.Lang.Ast.code

(* On a loop-free program the memoized walk expands every reachable
   state exactly once: as many expansions as the reachability scan
   counts distinct states. *)
let test_each_state_once () =
  let programs =
    List.map (fun t -> (t.Litmus.name, t.Litmus.prog)) Litmus.all
    @ List.init 200 (fun seed ->
          (Printf.sprintf "seed %d" seed, Explore.Stress.generate ~seed))
  in
  let checked = ref 0 in
  List.iter
    (fun (name, p) ->
      if loop_free p then
        List.iter
          (fun disc ->
            incr checked;
            let walk = Explore.Enum.behaviors_exn ~config:j1 disc p in
            match
              Explore.Enum.iter_reachable ~config:j1 disc p
                ~f:(fun ~committed:_ _ -> ())
            with
            | Error e -> Alcotest.fail e
            | Ok st ->
                Alcotest.(check int)
                  (Format.asprintf "%s (%a) expansions" name
                     Explore.Enum.pp_discipline disc)
                  Explore.Stats.(get st nodes)
                  Explore.Stats.(get walk.Explore.Enum.stats nodes))
          [ Explore.Enum.Interleaving; Explore.Enum.Non_preemptive ])
    programs;
  Alcotest.(check bool) "most programs are loop-free" true (!checked > 300)

let same_as_memo_free ~what config disc p =
  let memo = Explore.Enum.behaviors_exn ~config disc p in
  let free =
    Explore.Enum.behaviors_exn
      ~config:{ config with Explore.Config.memoize = false }
      disc p
  in
  Alcotest.(check bool)
    (what ^ " completeness") true
    (memo.Explore.Enum.completeness = free.Explore.Enum.completeness);
  Alcotest.(check bool)
    (what ^ " traceset") true
    (Explore.Traceset.equal memo.Explore.Enum.traces free.Explore.Enum.traces)

(* t1 prints in an endless loop and t2 spins; t0's one step first
   leads to their switch run's head, whose members' loops run back
   through frames below them by thread steps.  Such a member is not
   pure, so it is not memoized with its head's traceset: met again from
   t0's side, it is expanded afresh. *)
let loop_through_head =
  Lang.Build.(
    program ~atomics:[ "x" ]
      [
        proc "t0" [ blk "A0" [ store "x" ~mode:Lang.Modes.WRlx (i 1) ] ret ];
        proc "t1" [ blk "L0" [ print (i 1) ] (jmp "L0") ];
        proc "t2" [ blk "M0" [ skip ] (jmp "M0") ];
      ]
      ~threads:[ "t0"; "t1"; "t2" ])

let test_loop_through_head () =
  List.iter
    (fun steps ->
      same_as_memo_free
        ~what:(Printf.sprintf "at %d steps" steps)
        { j1 with Explore.Config.max_steps = steps }
        Explore.Enum.Interleaving loop_through_head)
    [ 10; 11; 12; 13 ]

(* Under every budget up to 30 some run's head sits near [max_steps]:
   members and their reuse answer only when a fresh expansion would
   not be cut either, so the tracesets are the memo-free ones. *)
let test_near_budget () =
  List.iter
    (fun (t : Litmus.t) ->
      List.iter
        (fun disc ->
          for steps = 1 to 30 do
            same_as_memo_free
              ~what:
                (Format.asprintf "%s (%a) at %d steps" t.Litmus.name
                   Explore.Enum.pp_discipline disc steps)
              { j1 with Explore.Config.max_steps = steps }
              disc t.Litmus.prog
          done)
        [ Explore.Enum.Interleaving; Explore.Enum.Non_preemptive ])
    [ Litmus.cas_exclusive; Litmus.mp_rel_acq; Litmus.sb ]

let () =
  Alcotest.run "explore"
    [
      ( "semantics",
        [
          Alcotest.test_case "sb weak outcome" `Quick test_sb_weak_outcome;
          Alcotest.test_case "lb needs promises" `Quick test_lb_needs_promises;
          Alcotest.test_case "oota forbidden" `Quick test_oota_forbidden;
          Alcotest.test_case "syntactic promises" `Quick
            test_syntactic_promise_mode;
          Alcotest.test_case "whole corpus claims" `Slow test_every_litmus_claim;
        ] );
      ( "non-preemptive",
        [
          Alcotest.test_case "Theorem 4.1 on corpus" `Slow
            test_np_equivalence_corpus;
          Alcotest.test_case "state-space reduction" `Slow test_np_never_larger;
          Alcotest.test_case "verdicts agree on violations" `Quick
            test_np_discipline_refinement;
        ] );
      ( "traces",
        [
          Alcotest.test_case "prefix closure" `Quick test_closure;
          Alcotest.test_case "closure oracle" `Quick test_closure_oracle;
          Alcotest.test_case "equal behaviour" `Quick test_equal_behaviour;
          Alcotest.test_case "trace-set operations" `Quick test_traceset_ops;
          Alcotest.test_case "refinement verdicts" `Quick
            test_refinement_verdicts;
          Alcotest.test_case "cuts reported" `Quick test_cut_reported;
          Alcotest.test_case "memoization-independent" `Quick
            test_memoization_agrees;
          Alcotest.test_case "random runs enumerated" `Quick
            test_random_runs_within_enumeration;
          Alcotest.test_case "sampling histogram" `Quick test_sampling;
        ] );
      ( "safety",
        [
          Alcotest.test_case "Safe(P) on the corpus" `Quick (fun () ->
              List.iter
                (fun (t : Litmus.t) ->
                  Alcotest.(check bool) (t.Litmus.name ^ " safe") true
                    (Explore.Refine.safe t.Litmus.prog))
                [ Litmus.sb; Litmus.fig4; Litmus.spinlock ]);
        ] );
      ( "reservations",
        [
          Alcotest.test_case "no new outcomes" `Quick
            test_reservations_no_new_outcomes;
          Alcotest.test_case "uncapped candidates (LB+CAS)" `Quick
            test_no_cap_candidates;
        ] );
      ( "witness",
        [
          Alcotest.test_case "LB annotated execution" `Quick test_witness_lb;
          Alcotest.test_case "forbidden outcomes" `Quick
            test_witness_forbidden;
          Alcotest.test_case "non-preemptive" `Quick test_witness_np;
          Alcotest.test_case "the promise bound binds" `Quick
            test_witness_promise_bound;
        ] );
      ( "machine",
        [
          Alcotest.test_case "iter_reachable" `Quick test_iter_reachable;
          Alcotest.test_case "iter_reachable budget-complete" `Quick
            test_iter_reachable_budget_complete;
          Alcotest.test_case "iter_reachable no spurious cut" `Quick
            test_iter_reachable_no_spurious_cut;
          Alcotest.test_case "iter_reachable against the re-expanding walk"
            `Quick test_iter_reachable_reference;
          Alcotest.test_case "init" `Quick test_machine_init;
        ] );
      ( "switch memo",
        [
          Alcotest.test_case "each state once" `Quick test_each_state_once;
          Alcotest.test_case "loop through the head" `Quick
            test_loop_through_head;
          Alcotest.test_case "near the budget" `Quick test_near_budget;
        ] );
    ]
