(* The domain-parallel engine's determinism contract (docs/PARALLEL.md):
   [Enum.behaviors] returns the same traceset and the same completeness
   at every pool width.

   Strict equality is checked for the deterministic truncation classes
   (step budget, injected faults) over a seeded random-program corpus,
   both disciplines.  The global budgets (deadline, node budget) are
   scheduling-dependent, so for them only soundness is checked: the
   verdict is Truncated and the completed outcomes are a subset of the
   exhaustive set. *)

let sorted l = List.sort compare l

let outs_of (o : Explore.Enum.outcome) =
  Explore.Traceset.done_outs o.Explore.Enum.traces
  |> List.map sorted |> List.sort_uniq compare

(* Force oversubscription: the point of this suite is to exercise the
   multi-domain engine (stealing, publication, merging) even when the
   host has a single core and the production policy would clamp the
   width to 1. *)
let at_j j config =
  { config with Explore.Config.domains = j; oversubscribe = j > 1 }

let run ~j ?(config = Explore.Config.default) disc prog =
  Explore.Enum.behaviors_exn ~config:(at_j j config) disc prog

let pp_comp = Explore.Enum.pp_completeness

(* 1. Strict equivalence, >= 100 seeds, both disciplines, under hash
   faults (even seeds) and a tight step budget (the two deterministic
   truncation classes). *)
let test_equivalence_seeds () =
  for seed = 0 to 107 do
    let prog = Explore.Stress.generate ~seed in
    let config =
      {
        Explore.Config.default with
        Explore.Config.max_steps = 48;
        fault =
          (if seed mod 2 = 0 then
             Some
               { Explore.Config.fault_seed = seed; fault_rate = 0.03 }
           else None);
      }
    in
    List.iter
      (fun disc ->
        let o1 = run ~j:1 ~config disc prog in
        List.iter
          (fun j ->
            let oj = run ~j ~config disc prog in
            let name =
              Format.asprintf "seed %d %a j=%d" seed
                Explore.Enum.pp_discipline disc j
            in
            Alcotest.(check bool)
              (name ^ ": traceset equal")
              true
              (Explore.Traceset.equal o1.Explore.Enum.traces
                 oj.Explore.Enum.traces);
            Alcotest.(check string)
              (name ^ ": completeness equal")
              (Format.asprintf "%a" pp_comp o1.Explore.Enum.completeness)
              (Format.asprintf "%a" pp_comp oj.Explore.Enum.completeness))
          [ 2; 4 ])
      [ Explore.Enum.Interleaving; Explore.Enum.Non_preemptive ]
  done

(* 2. The corpus programs with their real configs (promises on, no
   truncation): exhaustive at every width, identical behaviour sets. *)
let test_equivalence_corpus () =
  List.iter
    (fun (t : Litmus.t) ->
      let o1 = run ~j:1 Explore.Enum.Interleaving t.Litmus.prog in
      let o4 = run ~j:4 Explore.Enum.Interleaving t.Litmus.prog in
      Alcotest.(check bool)
        (t.Litmus.name ^ ": traceset equal at j=4")
        true
        (Explore.Traceset.equal o1.Explore.Enum.traces
           o4.Explore.Enum.traces);
      Alcotest.(check bool)
        (t.Litmus.name ^ ": exact at j=4")
        o1.Explore.Enum.exact o4.Explore.Enum.exact)
    Litmus.all

(* 3. Scheduling-dependent budgets: soundness only.  Parallel runs
   under a deadline or node budget must report Truncated and may only
   lose behaviours relative to the exhaustive set. *)
let test_budget_soundness () =
  let exhaustive_outs prog = outs_of (run ~j:1 Explore.Enum.Interleaving prog) in
  let check_sound name prog config =
    let o = run ~j:4 ~config Explore.Enum.Interleaving prog in
    (match o.Explore.Enum.completeness with
    | Explore.Enum.Truncated _ -> ()
    | Explore.Enum.Exhaustive ->
        Alcotest.failf "%s: tight budget not reported as truncated" name);
    let full = exhaustive_outs prog in
    List.iter
      (fun out ->
        Alcotest.(check bool)
          (name ^ ": completed outcome in exhaustive set")
          true (List.mem out full))
      (outs_of o)
  in
  List.iter
    (fun seed ->
      let prog = Explore.Stress.generate ~seed in
      check_sound
        (Printf.sprintf "seed %d max_nodes" seed)
        prog
        { Explore.Config.default with Explore.Config.max_nodes = Some 30 };
      check_sound
        (Printf.sprintf "seed %d deadline" seed)
        prog
        {
          Explore.Config.default with
          Explore.Config.deadline_ms = Some 0;
          max_steps = 100_000;
        })
    [ 1; 2; 3; 4; 5 ]

(* 4. Exact partition of the certification counters: every consistency
   query is counted exactly once as a cache hit, a run, a trivial
   accept or an injected fault — at every width, with and without
   faults.  (PR 3 fixed a double count where a fault firing under a
   warm cache was also booked as a cache hit.) *)
let test_cert_accounting () =
  let check name (st : Explore.Stats.t) =
    Alcotest.(check int)
      (name ^ ": cert_checks = hits + runs + trivial + faults")
      Explore.Stats.(get st cert_checks)
      Explore.Stats.(
        get st cert_cache_hits + get st cert_runs + get st cert_trivial
        + get st cert_faults);
    Alcotest.(check bool)
      (name ^ ": cert faults never exceed injected faults")
      true
      Explore.Stats.(get st cert_faults <= get st faults_injected)
  in
  List.iter
    (fun (name, fault) ->
      let config =
        { Explore.Config.default with Explore.Config.fault } in
      List.iter
        (fun j ->
          let o = run ~j ~config Explore.Enum.Interleaving Litmus.lb.Litmus.prog in
          check
            (Printf.sprintf "lb %s j=%d" name j)
            o.Explore.Enum.stats;
          List.iter
            (fun seed ->
              let o =
                run ~j ~config Explore.Enum.Interleaving
                  (Explore.Stress.generate ~seed)
              in
              check
                (Printf.sprintf "seed %d %s j=%d" seed name j)
                o.Explore.Enum.stats)
            [ 11; 12; 13 ])
        [ 1; 4 ])
    [
      ("no-fault", None);
      ( "fault",
        Some { Explore.Config.fault_seed = 7; fault_rate = 0.05 } );
    ]

(* 5. The stats report the pool width actually used. *)
let test_domain_reporting () =
  let used j =
    let o = run ~j Explore.Enum.Interleaving Litmus.sb.Litmus.prog in
    Explore.Stats.(get o.Explore.Enum.stats domains_used)
  in
  Alcotest.(check int) "j=1 reports 1 domain" 1 (used 1);
  Alcotest.(check int) "j=4 reports 4 domains" 4 (used 4);
  Alcotest.(check int)
    "j beyond the cap is clamped" Explore.Pool.domain_cap
    (used (Explore.Pool.domain_cap + 3))

(* 5b. Skew-heavy workloads: one huge subtree (a long straight-line
   thread whose padding makes its state chain deep) next to several
   tiny single-store writers.  This is the adversarial shape for
   work-stealing — the pre-planned frontier of the old engine parked
   every domain behind the one big task — and the determinism contract
   must hold at every width anyway. *)
let skew ~pad ~writers =
  let h1 = pad / 2 in
  let h2 = pad - h1 in
  let open Lang.Build in
  let padding n = List.init n (fun _ -> assign "a" (r "a" + i 1)) in
  let wname k = Printf.sprintf "w%d" k in
  program ~atomics:[ "x" ]
    (proc "big"
       [
         blk "L0"
           ([ assign "a" (i 0) ]
           @ padding h1
           @ [ load "r1" "x" ~mode:Lang.Modes.Rlx ]
           @ padding h2
           @ [
               load "r2" "x" ~mode:Lang.Modes.Rlx;
               print (r "r1");
               print (r "r2");
             ])
           ret;
       ]
    :: List.init writers (fun k ->
           proc (wname k)
             [
               blk "L0"
                 [ store "x" ~mode:Lang.Modes.WRlx (i (Stdlib.( + ) k 1)) ]
                 ret;
             ]))
    ~threads:("big" :: List.init writers wname)

let test_skew_equivalence () =
  List.iter
    (fun (name, prog) ->
      List.iter
        (fun disc ->
          let o1 = run ~j:1 disc prog in
          List.iter
            (fun j ->
              let oj = run ~j disc prog in
              let label =
                Format.asprintf "%s %a j=%d" name Explore.Enum.pp_discipline
                  disc j
              in
              Alcotest.(check bool)
                (label ^ ": traceset equal")
                true
                (Explore.Traceset.equal o1.Explore.Enum.traces
                   oj.Explore.Enum.traces);
              Alcotest.(check string)
                (label ^ ": completeness equal")
                (Format.asprintf "%a" pp_comp o1.Explore.Enum.completeness)
                (Format.asprintf "%a" pp_comp oj.Explore.Enum.completeness))
            [ 2; 4 ])
        [ Explore.Enum.Interleaving; Explore.Enum.Non_preemptive ])
    [
      ("skew 12/2", skew ~pad:12 ~writers:2);
      ("skew 24/2", skew ~pad:24 ~writers:2);
    ]

(* 6. The pool itself: order preservation, error propagation, shards. *)
let test_pool () =
  let xs = List.init 100 Fun.id in
  Alcotest.(check (list int))
    "map preserves input order at j=4"
    (List.map (fun x -> x * x) xs)
    (Explore.Pool.map ~j:4 (fun x -> x * x) xs);
  (match
     Explore.Pool.map ~j:4
       (fun x -> if x = 41 then failwith "boom" else x)
       xs
   with
  | exception Failure msg -> Alcotest.(check string) "first error wins" "boom" msg
  | _ -> Alcotest.fail "expected the worker exception to propagate");
  Alcotest.(check (list int))
    "j=1 degenerates to List.map" (List.map succ xs)
    (Explore.Pool.map ~j:1 succ xs)

(* 7. Pool edge cases (service PR): empty input, every task raising,
   nested pools, and two independent pools driven concurrently from
   separate domains — the daemon schedules client requests onto the
   pool, so these shapes now occur in production. *)
let test_pool_edges () =
  Alcotest.(check (list int))
    "zero tasks at j=4 yields []" []
    (Explore.Pool.map ~j:4 (fun x -> x) []);
  Alcotest.(check (list int))
    "zero tasks at j=1 yields []" []
    (Explore.Pool.map ~j:1 (fun x -> x) []);
  (* every task raises: the lowest task index must win, at any width *)
  List.iter
    (fun j ->
      match
        Explore.Pool.map ~j
          (fun x -> failwith (Printf.sprintf "task-%d" x))
          (List.init 20 Fun.id)
      with
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "all raise at j=%d: lowest index wins" j)
            "task-0" msg
      | _ -> Alcotest.fail "expected the exception to propagate")
    [ 1; 4 ];
  (* a task that itself runs a pool: from a j=1 caller and a j=4 caller *)
  let inner x = Explore.Pool.map ~j:2 (fun y -> (x * 10) + y) [ 0; 1; 2 ] in
  let expect = List.map inner [ 0; 1; 2; 3 ] in
  Alcotest.(check (list (list int)))
    "nested pool from j=1" expect
    (Explore.Pool.map ~j:1 inner [ 0; 1; 2; 3 ]);
  Alcotest.(check (list (list int)))
    "nested pool from j=4" expect
    (Explore.Pool.map ~j:4 inner [ 0; 1; 2; 3 ]);
  (* two independent pool runs from two domains at once *)
  let xs = List.init 50 Fun.id in
  let spawn () = Domain.spawn (fun () -> Explore.Pool.map ~j:3 succ xs) in
  let d1 = spawn () and d2 = spawn () in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check (list int)) "concurrent run 1" (List.map succ xs) r1;
  Alcotest.(check (list int)) "concurrent run 2" (List.map succ xs) r2

(* 8. Worker lifecycle on the scheduler (the domain-leak regression):
   every worker that ran [init] must run [finish] and be joined, no
   matter what raises.  Before the fix, a coordinator-side exception
   propagated before the join loop, abandoning the spawned domains (a
   leak that eventually exhausts the runtime's domain slots).
   Observable contract: after the call returns (exceptionally), all
   [init]ed workers have [finish]ed, the error is the deterministic
   one, and the pool is immediately reusable. *)
let test_worker_lifecycle () =
  let tasks = List.init 16 Fun.id in
  let run_counted ~finish exec =
    let started = Atomic.make 0 and finished = Atomic.make 0 in
    let remaining = Atomic.make (List.length tasks) in
    let r =
      match
        Explore.Pool.run ~j:4
          ~init:(fun _ -> Atomic.incr started)
          ~finish:(fun () ->
            Atomic.incr finished;
            finish ())
          ~stop:(fun () -> Atomic.get remaining = 0)
          (fun () x ->
            exec x;
            Atomic.decr remaining)
          tasks
      with
      | _ -> None
      | exception Failure msg -> Some msg
    in
    (r, Atomic.get started, Atomic.get finished)
  in
  (* finish raises on every worker, including the coordinator *)
  let r, started, finished =
    run_counted ~finish:(fun () -> failwith "finish-boom") ignore
  in
  Alcotest.(check (option string))
    "finish failure propagates" (Some "finish-boom") r;
  Alcotest.(check int)
    "every init'd worker ran finish (finish raising)" started finished;
  (* a raising task stops the pool and propagates; finish still runs
     everywhere *)
  let r, started, finished =
    run_counted ~finish:ignore (fun x ->
        if x = 5 then failwith (Printf.sprintf "task-%d" x))
  in
  Alcotest.(check (option string)) "the task's exception propagates"
    (Some "task-5") r;
  Alcotest.(check int)
    "every init'd worker ran finish (task raising)" started finished;
  (* error order through [map] on the same scheduler: every task from
     index 5 on raises, and the lowest index wins at any width *)
  List.iter
    (fun j ->
      match
        Explore.Pool.map ~j
          (fun x -> if x >= 5 then failwith (Printf.sprintf "task-%d" x) else x)
          tasks
      with
      | exception Failure msg ->
          Alcotest.(check string)
            (Printf.sprintf "lowest task index wins at j=%d" j)
            "task-5" msg
      | _ -> Alcotest.fail "expected the task exception to propagate")
    [ 1; 4 ];
  (* the pool still works after both exceptional exits (nothing is
     left wedged: deques drained, domains joined) *)
  Alcotest.(check (list int))
    "pool reusable after exceptional runs"
    (List.map succ tasks)
    (Explore.Pool.map ~j:4 succ tasks)

(* 9. Dynamic pushes: a task may split itself onto its worker's deque,
   and the pieces run exactly once whoever steals them. *)
let test_dynamic_push () =
  let n = 1 lsl 10 in
  let seen = Array.init n (fun _ -> Atomic.make 0) in
  let remaining = Atomic.make n in
  let states =
    Explore.Pool.run ~j:4
      ~init:(fun h -> h)
      ~finish:ignore
      ~stop:(fun () -> Atomic.get remaining = 0)
      (fun h (lo, hi) ->
        if hi - lo = 1 then begin
          Atomic.incr seen.(lo);
          Atomic.decr remaining
        end
        else begin
          let mid = (lo + hi) / 2 in
          Explore.Pool.push h (lo, mid);
          Explore.Pool.push h (mid, hi)
        end)
      [ (0, n) ]
  in
  Alcotest.(check int) "one state per worker" 4 (Array.length states);
  Alcotest.(check bool)
    "every leaf ran exactly once" true
    (Array.for_all (fun c -> Atomic.get c = 1) seen)

(* 10. The domain-budget policy and the PSOPT_J syntax. *)
let test_split_and_jobs () =
  let split j tasks = Explore.Pool.split ~j ~tasks in
  Alcotest.(check (pair int int)) "refine at j=4" (2, 2) (split 4 2);
  Alcotest.(check (pair int int)) "verify at j=4" (4, 1) (split 4 4);
  Alcotest.(check (pair int int)) "races at j=2" (2, 1) (split 2 3);
  Alcotest.(check (pair int int)) "corpus at j=4" (4, 1) (split 4 30);
  Alcotest.(check (pair int int)) "j=1" (1, 1) (split 1 30);
  Alcotest.(check (pair int int)) "no tasks" (1, 4) (split 4 0);
  Alcotest.(check (pair int int))
    "outer width is capped" (Explore.Pool.domain_cap, 1)
    (split (Explore.Pool.domain_cap + 3) 100);
  List.iter
    (fun (s, want) ->
      Alcotest.(check (option int))
        (Printf.sprintf "PSOPT_J=%S" s)
        want
        (Explore.Config.parse_jobs s))
    [
      ("4", Some 4); (" 2 ", Some 2); ("1", Some 1); ("0", None);
      ("-3", None); ("abc", None); ("", None); ("2x", None);
    ]

let () =
  Alcotest.run "parallel"
    [
      ( "determinism",
        [
          Alcotest.test_case "seeded corpus, faults + tight budget, j in {2,4}"
            `Slow test_equivalence_seeds;
          Alcotest.test_case "litmus corpus exact at j=4" `Quick
            test_equivalence_corpus;
          Alcotest.test_case "skew-heavy workloads, both disciplines" `Quick
            test_skew_equivalence;
        ] );
      ( "soundness",
        [
          Alcotest.test_case "deadline/node budgets: truncated + subset"
            `Quick test_budget_soundness;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "cert counters partition exactly" `Quick
            test_cert_accounting;
          Alcotest.test_case "domain width reported in stats" `Quick
            test_domain_reporting;
        ] );
      ( "pool",
        [
          Alcotest.test_case "order, errors, clamp" `Quick test_pool;
          Alcotest.test_case "edges: empty, all-raise, nested, concurrent"
            `Quick test_pool_edges;
          Alcotest.test_case "worker lifecycle: finish + join on every exit"
            `Quick test_worker_lifecycle;
          Alcotest.test_case "dynamic pushes run exactly once" `Quick
            test_dynamic_push;
          Alcotest.test_case "domain-budget split and PSOPT_J syntax" `Quick
            test_split_and_jobs;
        ] );
    ]
