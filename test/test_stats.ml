(* Golden single-domain statistics.  At j=1 the search is a
   deterministic depth-first walk, so every counter is exact and pinned
   here: any drift in the accounting (a lost increment, a
   double-counted cache hit, a table size taken from the wrong place)
   shows up.  The values were recorded with the engine whose counters
   were shared atomics and whose table sizes came from end-of-search
   merged tables, and must not move when that bookkeeping changes.
   They move when the work changes: the "reachable spinlock" row's
   certification and promise counters fell when the reachability walk
   stopped expanding a state again before its first step cut (its
   node, transition, memo and cut counts and its peak depth did
   not move), and every walked row's counters fell when the memoized
   walk stopped expanding switch-cycle members again (spinlock stores
   its members too, but meets none of them again). *)

let cert_heavy ~pad ~noise =
  let h1 = pad / 2 in
  let h2 = pad - h1 in
  let open Lang.Build in
  let padding n = List.init n (fun _ -> assign "a" (r "a" + i 1)) in
  let noise_instrs =
    List.init noise (fun _ -> load "s" "z" ~mode:Lang.Modes.Rlx)
  in
  program ~atomics:[ "x"; "y"; "z" ]
    [
      proc "t1"
        [
          blk "L0"
            ([ assign "a" (i 0) ]
            @ padding h1
            @ [ load "r1" "y" ~mode:Lang.Modes.Rlx ]
            @ padding h2
            @ [ store "x" ~mode:Lang.Modes.WRlx (i 1); print (r "r1") ])
            ret;
        ];
      proc "t2"
        [
          blk "L0"
            (noise_instrs
            @ [
                load "r2" "x" ~mode:Lang.Modes.Rlx;
                store "y" ~mode:Lang.Modes.WRlx (i 1);
                print (r "r2");
              ])
            ret;
        ];
    ]
    ~threads:[ "t1"; "t2" ]

(* IRIW with two identical readers: symmetry folds the reader orbit and
   the ample rule eats the padding. *)
let iriw_sym =
  let open Lang.Build in
  let pad k tag =
    List.init k (fun j -> assign (Printf.sprintf "%s%d" tag j) (i j))
  in
  program ~atomics:[ "x"; "y" ]
    [
      proc "wx"
        [ blk "L0" (pad 4 "pw" @ [ store "x" ~mode:Lang.Modes.WRlx (i 1) ]) ret ];
      proc "wy"
        [ blk "L0" (pad 4 "pw" @ [ store "y" ~mode:Lang.Modes.WRlx (i 1) ]) ret ];
      proc "rd"
        [
          blk "L0"
            (pad 6 "pr"
            @ [
                load "r1" "x" ~mode:Lang.Modes.Rlx;
                load "r2" "y" ~mode:Lang.Modes.Rlx;
                print ((r "r1" * i 10) + r "r2");
              ])
            ret;
        ];
    ]
    ~threads:[ "wx"; "wy"; "rd"; "rd" ]

(* Pinned to one domain even under PSOPT_J. *)
let j1 =
  {
    Explore.Config.default with
    Explore.Config.domains = 1;
    oversubscribe = false;
  }

(* The counters the golden rows pin, in their column order. *)
let tracked =
  Explore.Stats.
    [
      nodes; transitions; memo_hits; memo_size; cert_checks;
      cert_cache_hits; cert_runs; cert_trivial; cert_faults;
      cand_cache_hits; cert_cache_size; cycles; cuts; promises;
      peak_depth; sleep_prunes; persistent_prunes; symmetry_folds;
    ]

let names = List.map Explore.Stats.name tracked
let counters s = List.map (Explore.Stats.get s) tracked

let check name want (s : Explore.Stats.t) =
  List.iter2
    (fun (field, want) got ->
      Alcotest.(check int) (name ^ " " ^ field) want got)
    (List.combine names want) (counters s)

let behaviors name ?(config = j1) prog want () =
  let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving prog in
  Alcotest.(check int) (name ^ " domains") 1
    Explore.Stats.(get o.Explore.Enum.stats domains_used);
  check name want o.Explore.Enum.stats

let golden =
  [
    ( "sb", Litmus.sb.Litmus.prog, j1,
      [ 676; 996; 185; 676; 696; 216; 24; 456; 0; 156; 44; 136; 0; 20; 13; 0; 0; 0 ] );
    ( "lb", Litmus.lb.Litmus.prog, j1,
      [ 747; 1135; 229; 747; 811; 353; 36; 422; 0; 146; 60; 160; 0; 64; 13; 0; 0; 0 ] );
    ( "iriw", Litmus.iriw.Litmus.prog, j1,
      [ 4852; 13156; 5183; 4852; 4852; 0; 0; 4852; 0; 3118; 64; 3122; 0; 0; 20; 0; 0; 0 ] );
    ( "spinlock", Litmus.spinlock.Litmus.prog, j1,
      [ 520; 898; 208; 444; 570; 132; 28; 410; 0; 194; 78; 171; 0; 50; 21; 0; 0; 0 ] );
    ( "cert_heavy 20/8", cert_heavy ~pad:20 ~noise:8, j1,
      [ 4650; 9651; 3205; 4650; 5973; 3480; 90; 2403; 0; 1587; 180; 1797; 0; 1323; 42; 0; 0; 0 ] );
    ( "iriw_sym full reduction", iriw_sym,
      Explore.Config.with_reduction Explore.Config.full_reduction j1,
      [ 27619; 58386; 20458; 27236; 23652; 9294; 32; 14326; 0; 12337; 104; 10310; 0; 1751; 42; 805; 12278; 8082 ] );
  ]

(* The same rows walked with the ww-race predicate observed at every
   committed state, as [Verif.check] walks a changed target: the
   observer reuses the walk's own consistency checks, so every counter
   is the unobserved walk's.  An observed walk runs on one domain
   whatever width is asked for, so the j=1 figures hold at 4 too.
   Observing needs reduction off. *)
let observed name ~config prog want () =
  if config.Explore.Config.reduction <> Explore.Config.no_reduction then
    Alcotest.check_raises (name ^ " observed under reduction")
      (Invalid_argument "Enum.behaviors: ~observe needs Config.no_reduction")
      (fun () -> ignore (Race.behaviors_ww_rf ~config prog))
  else
    let config =
      { config with Explore.Config.domains = 4; oversubscribe = true }
    in
    match Race.behaviors_ww_rf ~config prog with
    | Error e -> Alcotest.fail e
    | Ok (o, _) ->
        Alcotest.(check int) (name ^ " domains") 1
          Explore.Stats.(get o.Explore.Enum.stats domains_used);
        check (name ^ " observed") want o.Explore.Enum.stats

(* The reachability walk behind the race checks: [memo_size] is the
   number of distinct states visited. *)
let test_reachable () =
  match
    Explore.Enum.iter_reachable ~config:j1 Explore.Enum.Interleaving
      Litmus.spinlock.Litmus.prog
      ~f:(fun ~committed:_ _ -> ())
  with
  | Error e -> Alcotest.fail e
  | Ok s ->
      check "reachable spinlock"
        [ 450; 734; 0; 450; 942; 210; 28; 704; 0; 148; 78; 0; 0; 42; 21; 0; 0; 0 ]
        s

(* ---- the counter surface: [pp], [add], [truncation_reasons] and the
   metrics mirror, pinned byte for byte ---- *)

module S = Explore.Stats

(* A fresh record whose [k]-th counter, in declaration order, holds
   [f k]. *)
let filled f =
  let s = S.create () in
  List.iteri (fun k c -> S.set s c (f k)) S.all;
  s

let show s = Format.asprintf "%a" S.pp s

let test_pp () =
  Alcotest.(check int) "every counter" 26 (List.length S.all);
  Alcotest.(check string) "fresh"
    "nodes=0 transitions=0 memo_hits=0 memo_size=0 cert_checks=0 \
     cert_cache_hits=0 cert_runs=0 cert_trivial=0 cand_cache_hits=0 \
     cert_cache_size=0 cycles=0 cuts=0 promises=0 peak_depth=0 domains=1 \
     elapsed_ms=0"
    (show (S.create ()));
  Alcotest.(check (list string)) "fresh: no reason" []
    (List.map Explore.Errors.reason_to_string
       (S.truncation_reasons (S.create ())));
  let s = filled (fun k -> 100 + k) in
  Alcotest.(check string) "every counter distinct"
    "nodes=100 transitions=101 memo_hits=102 memo_size=103 \
     cert_checks=104 cert_cache_hits=105 cert_runs=106 cert_trivial=107 \
     cand_cache_hits=108 cert_cache_size=109 cycles=110 cuts=111 \
     promises=112 peak_depth=113 domains=114 elapsed_ms=0 \
     deadline_hits=115 node_budget_hits=116 oom_hits=117 \
     promise_budget_hits=118 faults_injected=119 cert_faults=120 \
     output_cycles=125 sleep_prunes=121 persistent_prunes=122 symmetry_folds=123 \
     promise_bound_hits=124"
    (show s);
  Alcotest.(check (list string)) "every reason, in order"
    [
      "step-budget"; "promise-budget"; "deadline"; "node-budget"; "oom";
      "fault-injection"; "output-cycle";
    ]
    (List.map Explore.Errors.reason_to_string (S.truncation_reasons s));
  (* each group prints when one of its counters is nonzero
     ([cert_faults] is not tried alone: every fault it counts is also
     counted in [faults_injected]) *)
  List.iteri
    (fun k c ->
      let name = S.name c in
      if name <> "cert_faults" then
        let s = filled (fun j -> if j = k then 7 else 0) in
        Alcotest.(check bool) (name ^ " printed") true
          (List.mem (name ^ "=7") (String.split_on_char ' ' (show s))))
    S.all

let test_add () =
  let into = filled (fun k -> 100 + k) in
  S.add ~into (filled (fun k -> 50 - k));
  Alcotest.(check string) "sums, max and per-search"
    "nodes=150 transitions=150 memo_hits=150 memo_size=103 \
     cert_checks=150 cert_cache_hits=150 cert_runs=150 cert_trivial=150 \
     cand_cache_hits=150 cert_cache_size=109 cycles=150 cuts=150 \
     promises=150 peak_depth=113 domains=114 elapsed_ms=0 \
     deadline_hits=150 node_budget_hits=150 oom_hits=150 \
     promise_budget_hits=150 faults_injected=150 cert_faults=150 \
     output_cycles=150 sleep_prunes=150 persistent_prunes=150 symmetry_folds=150 \
     promise_bound_hits=150"
    (show into);
  let into = filled (fun _ -> 1) in
  S.add ~into (filled (fun k -> 10 + k));
  Alcotest.(check string) "max takes the larger depth"
    "nodes=11 transitions=12 memo_hits=13 memo_size=1 cert_checks=15 \
     cert_cache_hits=16 cert_runs=17 cert_trivial=18 cand_cache_hits=19 \
     cert_cache_size=1 cycles=21 cuts=22 promises=23 peak_depth=23 \
     domains=1 elapsed_ms=0 deadline_hits=26 node_budget_hits=27 \
     oom_hits=28 promise_budget_hits=29 faults_injected=30 \
     cert_faults=31 output_cycles=36 sleep_prunes=32 persistent_prunes=33 \
     symmetry_folds=34 promise_bound_hits=35"
    (show into)

(* The [psopt_explore_*] families a search publishes, each sample
   reported as its growth over one fixed search (sb at j=1), so the
   test does not depend on the searches run before it.  The
   certification timing histogram is left out: its buckets are
   wall-clock. *)
let test_metrics () =
  let lines () =
    String.split_on_char '\n' (Obs.Metrics.render ())
    |> List.filter (fun l ->
           let has p =
             let n = String.length p in
             let rec go i =
               i + n <= String.length l && (String.sub l i n = p || go (i + 1))
             in
             go 0
           in
           has "psopt_explore_" && not (has "cert_run_duration"))
  in
  let value l = int_of_string (List.nth (String.split_on_char ' ' l) 1) in
  let before = lines () in
  ignore (Explore.Enum.behaviors_exn ~config:j1 Explore.Enum.Interleaving
            Litmus.sb.Litmus.prog);
  let after = lines () in
  let delta =
    List.map2
      (fun b a ->
        if a.[0] = '#' then a
        else
          Printf.sprintf "%s %d"
            (List.hd (String.split_on_char ' ' a))
            (value a - value b))
      before after
  in
  Alcotest.(check (list string)) "families, help and labels"
    [
      "# HELP psopt_explore_cert_checks_total Consistency checks requested";
      "# TYPE psopt_explore_cert_checks_total counter";
      "psopt_explore_cert_checks_total 696";
      "# HELP psopt_explore_cert_outcomes_total Consistency checks by \
       outcome (exact partition of cert checks)";
      "# TYPE psopt_explore_cert_outcomes_total counter";
      "psopt_explore_cert_outcomes_total{outcome=\"cache_hit\"} 216";
      "psopt_explore_cert_outcomes_total{outcome=\"run\"} 24";
      "psopt_explore_cert_outcomes_total{outcome=\"trivial\"} 456";
      "psopt_explore_cert_outcomes_total{outcome=\"fault\"} 0";
      "# HELP psopt_explore_memo_hits_total Suffix-set memo hits";
      "# TYPE psopt_explore_memo_hits_total counter";
      "psopt_explore_memo_hits_total 185";
      "# HELP psopt_explore_nodes_total Machine states visited by exploration";
      "# TYPE psopt_explore_nodes_total counter";
      "psopt_explore_nodes_total 676";
      "# HELP psopt_explore_searches_total Explorations finished";
      "# TYPE psopt_explore_searches_total counter";
      "psopt_explore_searches_total 1";
      "# HELP psopt_explore_transitions_total Micro-steps enumerated";
      "# TYPE psopt_explore_transitions_total counter";
      "psopt_explore_transitions_total 996";
      "# HELP psopt_explore_truncated_total Explorations finished incomplete";
      "# TYPE psopt_explore_truncated_total counter";
      "psopt_explore_truncated_total 0";
    ]
    delta

let () =
  Alcotest.run "stats"
    [
      ( "golden j=1",
        List.map
          (fun (name, prog, config, want) ->
            Alcotest.test_case name `Quick (behaviors name ~config prog want))
          golden
        @ [ Alcotest.test_case "reachable spinlock" `Quick test_reachable ] );
      ( "surface",
        [
          Alcotest.test_case "pp" `Quick test_pp;
          Alcotest.test_case "add" `Quick test_add;
          Alcotest.test_case "metrics" `Quick test_metrics;
        ] );
      ( "observed walk",
        List.map
          (fun (name, prog, config, want) ->
            Alcotest.test_case name `Quick (observed name ~config prog want))
          golden );
    ]
