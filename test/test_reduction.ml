(* The state-space reduction layer (docs/REDUCTION.md): the reduced
   explorer must preserve the behaviours the rest of the system
   consumes.

   Equality criteria per technique:
   - symmetry alone is raw-traceset preserving (memo keys fold, the
     tree itself is not pruned), so reduced vs. unreduced runs are
     compared with [Traceset.equal];
   - the partial-order rules prune switch chatter, which can drop
     redundant [Open] divergence prefixes, so any [por] comparison
     uses [Traceset.equal_behaviour] (prefix-closure equality) —
     completed traces must survive exactly;
   - at a FIXED reduction setting the traceset is deterministic across
     pool widths (pruning is a pure function of the node and the
     config), so the cross-j checks use raw equality like
     test_parallel.ml does. *)

module Config = Explore.Config
module Enum = Explore.Enum
module Traceset = Explore.Traceset
module Stats = Explore.Stats

let pp_comp = Enum.pp_completeness

let at_j j config =
  { config with Config.domains = j; oversubscribe = j > 1 }

let run ?(j = 1) ~config disc prog =
  Enum.behaviors_exn ~config:(at_j j config) disc prog

let reduced r config = { config with Config.reduction = r }

let por_only = { Config.no_reduction with Config.por = true }
let sym_only = { Config.no_reduction with Config.symmetry = true }

let disciplines = [ Enum.Interleaving; Enum.Non_preemptive ]

let check_equal name a b =
  Alcotest.(check bool) (name ^ ": traceset equal") true (Traceset.equal a b)

let check_behaviour name a b =
  Alcotest.(check bool)
    (name ^ ": behaviour equal (prefix closures)")
    true
    (Traceset.equal_behaviour a b)

let check_comp name (a : Enum.outcome) (b : Enum.outcome) =
  Alcotest.(check string)
    (name ^ ": completeness equal")
    (Format.asprintf "%a" pp_comp a.Enum.completeness)
    (Format.asprintf "%a" pp_comp b.Enum.completeness)

(* 1. Litmus corpus, both disciplines: full reduction preserves the
   behaviour set and the (exhaustive) completeness; symmetry alone
   preserves the raw traceset. *)
let test_corpus () =
  List.iter
    (fun (t : Litmus.t) ->
      List.iter
        (fun disc ->
          let name =
            Format.asprintf "%s %a" t.Litmus.name Enum.pp_discipline disc
          in
          let base = run ~config:Config.default disc t.Litmus.prog in
          let full =
            run ~config:(reduced Config.full_reduction Config.default) disc
              t.Litmus.prog
          in
          check_behaviour (name ^ " full") base.Enum.traces full.Enum.traces;
          check_comp (name ^ " full") base full;
          let sym =
            run ~config:(reduced sym_only Config.default) disc t.Litmus.prog
          in
          check_equal (name ^ " symmetry raw") base.Enum.traces sym.Enum.traces;
          check_comp (name ^ " symmetry") base sym)
        disciplines)
    Litmus.all

(* 2. The 108-seed random corpus of test_parallel.ml, reduction on:
   reduced vs. unreduced behaviour equality (fault-free seeds), and
   determinism of the reduced traceset across j in {1, 2, 4} for every
   seed — faults included, since pruning is a pure function of the
   node and the config. *)
let test_seeds () =
  for seed = 0 to 107 do
    let prog = Explore.Stress.generate ~seed in
    let config =
      {
        Config.default with
        Config.max_steps = 48;
        fault =
          (if seed mod 2 = 0 then
             Some { Config.fault_seed = seed; fault_rate = 0.03 }
           else None);
      }
    in
    let rconfig = reduced Config.full_reduction config in
    List.iter
      (fun disc ->
        let name =
          Format.asprintf "seed %d %a" seed Enum.pp_discipline disc
        in
        let o1 = run ~j:1 ~config:rconfig disc prog in
        List.iter
          (fun j ->
            let oj = run ~j ~config:rconfig disc prog in
            check_equal
              (Printf.sprintf "%s reduced j=%d" name j)
              o1.Enum.traces oj.Enum.traces;
            check_comp (Printf.sprintf "%s reduced j=%d" name j) o1 oj)
          [ 2; 4 ];
        if config.Config.fault = None then begin
          let base = run ~j:1 ~config disc prog in
          check_behaviour (name ^ " vs unreduced") base.Enum.traces
            o1.Enum.traces;
          check_comp (name ^ " vs unreduced") base o1
        end)
      disciplines
  done

(* 3. Symmetry suite: N identical writer threads next to one reader,
   N in {2, 3, 4}.  Raw traceset equality, exhaustiveness, and the
   folds counter actually firing (the orbit is explored once).  The
   writers run under distinct fnames (w0, w1, ...) on purpose: the
   canonicalizer must identify them through [equal_codeheap], not by
   name.  The unreduced baseline blows up with N (that is the point
   of the reduction), so N >= 3 runs promise-free and N = 4 lives in
   a [`Slow] case — its baseline alone is ~4M nodes. *)
let sym_prog n =
  let open Lang.Build in
  let wname k = Printf.sprintf "w%d" k in
  program ~atomics:[ "x" ]
    (proc "reader"
       [
         blk "L0"
           [
             load "r1" "x" ~mode:Lang.Modes.Rlx;
             load "r2" "x" ~mode:Lang.Modes.Rlx;
             print (r "r1");
             print (r "r2");
           ]
           ret;
       ]
    :: List.init n (fun k ->
           proc (wname k)
             [ blk "L0" [ store "x" ~mode:Lang.Modes.WRlx (i 1) ] ret ]))
    ~threads:("reader" :: List.init n wname)

let sym_config n =
  if n >= 3 then { Config.default with Config.max_promises = 0 }
  else Config.default

let check_symmetry_n n =
  let prog = sym_prog n in
  let config = sym_config n in
  List.iter
    (fun disc ->
      let name = Format.asprintf "sym %d %a" n Enum.pp_discipline disc in
      let base = run ~config disc prog in
      let sym = run ~config:(reduced sym_only config) disc prog in
      check_equal name base.Enum.traces sym.Enum.traces;
      check_comp name base sym;
      Alcotest.(check bool) (name ^ ": exhaustive") true base.Enum.exact;
      Alcotest.(check bool)
        (name ^ ": symmetry folds fired")
        true
        (Stats.get sym.Enum.stats Stats.symmetry_folds > 0);
      Alcotest.(check bool)
        (name ^ ": fewer nodes than unreduced")
        true
        (Stats.get sym.Enum.stats Stats.nodes
        <= Stats.get base.Enum.stats Stats.nodes))
    disciplines

let test_symmetry_suite () = List.iter check_symmetry_n [ 2; 3 ]
let test_symmetry_4 () = check_symmetry_n 4

(* The orbit factor must actually be realized: promise-free, the
   N-writer baseline should shrink by very nearly N! (the reader
   breaks no symmetry).  Require at least half of it to keep the
   check robust against memo-layer noise. *)
let test_symmetry_factor () =
  let n = 3 in
  let config = { Config.default with Config.max_promises = 0 } in
  let base = run ~config Enum.Interleaving (sym_prog n) in
  let sym = run ~config:(reduced sym_only config) Enum.Interleaving (sym_prog n) in
  let nb = Stats.get base.Enum.stats Stats.nodes in
  let ns = Stats.get sym.Enum.stats Stats.nodes in
  Alcotest.(check bool)
    (Printf.sprintf "orbit fold >= 3 on 3 writers (%d -> %d)" nb ns)
    true
    (nb >= 3 * ns)

(* 4. Thread-index permutation invariance: listing the identical
   threads in any order yields the same behaviour set — the orbit
   collapse cannot depend on which member is the representative. *)
let test_symmetry_permutation () =
  let prog_rev n =
    (* same program as [sym_prog] with the writer thread list reversed *)
    let p = sym_prog n in
    let threads =
      match p.Lang.Ast.threads with
      | reader :: writers -> reader :: List.rev writers
      | [] -> []
    in
    { p with Lang.Ast.threads = threads }
  in
  List.iter
    (fun n ->
      let config = reduced sym_only (sym_config n) in
      let a = run ~config Enum.Interleaving (sym_prog n) in
      let b = run ~config Enum.Interleaving (prog_rev n) in
      check_equal
        (Printf.sprintf "sym %d permuted threads" n)
        a.Enum.traces b.Enum.traces)
    [ 2; 3 ]

(* 4b. Spelling the identical threads as N entries of ONE fname in
   the thread list (the idiomatic way to write replicated workers) is
   the same program: same behaviours, and the orbit still folds. *)
let test_symmetry_shared_fname () =
  let n = 3 in
  let shared =
    let open Lang.Build in
    program ~atomics:[ "x" ]
      [
        proc "reader"
          [
            blk "L0"
              [
                load "r1" "x" ~mode:Lang.Modes.Rlx;
                load "r2" "x" ~mode:Lang.Modes.Rlx;
                print (r "r1");
                print (r "r2");
              ]
              ret;
          ];
        proc "w" [ blk "L0" [ store "x" ~mode:Lang.Modes.WRlx (i 1) ] ret ];
      ]
      ~threads:("reader" :: List.init n (fun _ -> "w"))
  in
  let config = reduced sym_only (sym_config n) in
  let a = run ~config Enum.Interleaving (sym_prog n) in
  let b = run ~config Enum.Interleaving shared in
  check_equal "shared fname = distinct fnames" a.Enum.traces b.Enum.traces;
  Alcotest.(check bool)
    "shared-fname orbit folds" true
    (Stats.get b.Enum.stats Stats.symmetry_folds > 0)

(* 5. Orbit expansion is the identity: traces carry no thread ids, so
   a symmetry-reduced traceset is already fully expanded. *)
let test_orbit_expand () =
  let o =
    run ~config:(reduced sym_only (sym_config 3)) Enum.Interleaving (sym_prog 3)
  in
  let classes = [ [| 1; 2; 3 |] ] in
  check_equal "orbit_expand is the identity" o.Enum.traces
    (Traceset.orbit_expand classes o.Enum.traces)

(* 6. The por counters fire and actually shrink the tree on a padded
   workload (local assign chains are where the ample rule lives). *)
let padded_prog =
  let open Lang.Build in
  let padding n = List.init n (fun _ -> assign "a" (r "a" + i 1)) in
  program ~atomics:[ "x" ]
    [
      proc "t1"
        [
          blk "L0"
            (padding 8
            @ [ load "r1" "x" ~mode:Lang.Modes.Rlx; print (r "r1") ])
            ret;
        ];
      proc "t2"
        [ blk "L0" (padding 8 @ [ store "x" ~mode:Lang.Modes.WRlx (i 1) ]) ret ];
    ]
    ~threads:[ "t1"; "t2" ]

let test_por_counters () =
  let base = run ~config:Config.default Enum.Interleaving padded_prog in
  let por = run ~config:(reduced por_only Config.default) Enum.Interleaving padded_prog in
  check_behaviour "padded" base.Enum.traces por.Enum.traces;
  check_comp "padded" base por;
  let nodes o = Stats.get o.Enum.stats Stats.nodes in
  Alcotest.(check bool)
    "ample rule fired" true
    (Stats.get por.Enum.stats Stats.persistent_prunes > 0);
  Alcotest.(check bool)
    (Printf.sprintf "node count shrank (%d -> %d)" (nodes base) (nodes por))
    true
    (nodes por < nodes base)

(* 7. Bounded promises: monotone behaviours (K ⊆ K+1), exhaustive-for-
   the-bound reporting, and honest truncation when the bound bites. *)
let test_bounded_promises () =
  let outs config =
    let o = run ~config Enum.Interleaving Litmus.lb.Litmus.prog in
    (Traceset.done_outs o.Enum.traces, o)
  in
  let bound k =
    reduced
      { Config.no_reduction with Config.bound_promises = Some k }
      { Config.default with Config.max_promises = 99 }
  in
  let prev = ref None in
  for k = 0 to 3 do
    let o_k, outcome = outs (bound k) in
    (match !prev with
    | Some o_prev ->
        List.iter
          (fun out ->
            Alcotest.(check bool)
              (Printf.sprintf "K=%d ⊆ K=%d" (k - 1) k)
              true (List.mem out o_k))
          o_prev
    | None -> ());
    prev := Some o_k;
    (* lb needs exactly one promise: above that, the bound never
       suppresses a candidate and the run must report exhaustive *)
    if k >= 2 then
      Alcotest.(check bool)
        (Printf.sprintf "K=%d exhaustive" k)
        true outcome.Enum.exact
  done;
  (* K=0 on lb must cut off the promise-dependent outcome and say so *)
  let o0, outcome0 = outs (bound 0) in
  let o2, _ = outs (bound 2) in
  Alcotest.(check bool)
    "K=0 loses the promise outcome" true
    (List.length o0 < List.length o2);
  (match outcome0.Enum.completeness with
  | Enum.Truncated reasons ->
      Alcotest.(check bool)
        "K=0 reports Promise_budget" true
        (List.mem Explore.Errors.Promise_budget reasons)
  | Enum.Exhaustive -> Alcotest.fail "K=0 on lb claimed exhaustive");
  Alcotest.(check bool)
    "K=0 counts promise_bound_hits" true
    (Stats.get outcome0.Enum.stats Stats.promise_bound_hits > 0);
  (* the bound overrides max_promises in both directions *)
  let unbounded =
    run
      ~config:{ Config.default with Config.max_promises = 2 }
      Enum.Interleaving Litmus.lb.Litmus.prog
  in
  let via_bound, _ = outs (bound 2) in
  Alcotest.(check bool)
    "bound 2 = max_promises 2 behaviours" true
    (List.equal (List.equal Int.equal)
       (Traceset.done_outs unbounded.Enum.traces)
       via_bound)

(* 8. Reduction off by default, and iter_reachable ignores it: the
   race check must see every reachable state. *)
let test_reachability_unreduced () =
  let count config =
    let n = ref 0 in
    (match
       Enum.iter_reachable ~config Enum.Interleaving padded_prog
         ~f:(fun ~committed:_ _ -> incr n)
     with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "iter_reachable: %s" e);
    !n
  in
  Alcotest.(check int)
    "iter_reachable sees the same states with reduction requested"
    (count Config.default)
    (count (reduced Config.full_reduction Config.default))

let () =
  Alcotest.run "reduction"
    [
      ( "equivalence",
        [
          Alcotest.test_case "litmus corpus, both disciplines" `Quick
            test_corpus;
          Alcotest.test_case "108-seed corpus, reduced, j in {1,2,4}" `Slow
            test_seeds;
        ] );
      ( "symmetry",
        [
          Alcotest.test_case "N identical threads, N in {2,3}" `Quick
            test_symmetry_suite;
          Alcotest.test_case "N = 4 (4M-node baseline)" `Slow test_symmetry_4;
          Alcotest.test_case "orbit factor ~ N! realized" `Quick
            test_symmetry_factor;
          Alcotest.test_case "thread order is immaterial" `Quick
            test_symmetry_permutation;
          Alcotest.test_case "one fname, N thread entries" `Quick
            test_symmetry_shared_fname;
          Alcotest.test_case "orbit expansion is the identity" `Quick
            test_orbit_expand;
        ] );
      ( "por",
        [
          Alcotest.test_case "ample rule: counters + shrink" `Quick
            test_por_counters;
        ] );
      ( "bounded-promises",
        [
          Alcotest.test_case "monotone, honest, overrides max_promises" `Quick
            test_bounded_promises;
        ] );
      ( "reachability",
        [
          Alcotest.test_case "iter_reachable forces reduction off" `Quick
            test_reachability_unreduced;
        ] );
    ]
