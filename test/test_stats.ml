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

let names =
  [
    "nodes"; "transitions"; "memo_hits"; "memo_size"; "cert_checks";
    "cert_cache_hits"; "cert_runs"; "cert_trivial"; "cert_faults";
    "cand_cache_hits"; "cert_cache_size"; "cycles"; "cuts"; "promises";
    "peak_depth"; "sleep_prunes"; "persistent_prunes"; "symmetry_folds";
  ]

let counters (s : Explore.Stats.t) =
  Explore.Stats.
    [
      s.nodes; s.transitions; s.memo_hits; s.memo_size; s.cert_checks;
      s.cert_cache_hits; s.cert_runs; s.cert_trivial; s.cert_faults;
      s.cand_cache_hits; s.cert_cache_size; s.cycles; s.cuts; s.promises;
      s.peak_depth; s.sleep_prunes; s.persistent_prunes; s.symmetry_folds;
    ]

let check name want (s : Explore.Stats.t) =
  List.iter2
    (fun (field, want) got ->
      Alcotest.(check int) (name ^ " " ^ field) want got)
    (List.combine names want) (counters s)

let behaviors name ?(config = j1) prog want () =
  let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving prog in
  Alcotest.(check int) (name ^ " domains") 1 o.Explore.Enum.stats.domains_used;
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
          o.Explore.Enum.stats.domains_used;
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

let () =
  Alcotest.run "stats"
    [
      ( "golden j=1",
        List.map
          (fun (name, prog, config, want) ->
            Alcotest.test_case name `Quick (behaviors name ~config prog want))
          golden
        @ [ Alcotest.test_case "reachable spinlock" `Quick test_reachable ] );
      ( "observed walk",
        List.map
          (fun (name, prog, config, want) ->
            Alcotest.test_case name `Quick (observed name ~config prog want))
          golden );
    ]
