(* The experiment harness: one list of tables.

   Each table re-runs one part of DESIGN.md's experiment index or one
   engine ablation, and returns its named checks, the lines it prints
   and its fields of the [--json] summary.

   - The reproduction rows (E1–E17, X1–X13) are the paper's "tables
     and figures": a verification paper's evaluation artifacts are
     example programs, counterexamples and theorems.
   - The ablation tables check that each engine mechanism (cert cache,
     reduction, tracing, parallelism, result store, replay, load
     generation) leaves verdicts unchanged, and time it as a median
     over [reps] reps.
   - The series and timing-only tables have no checks; [--check] skips
     them.  The wall time of the paper's workloads is bench/e2e's job. *)

let lit n = (Litmus.find n).Litmus.prog

(* ------------------------------------------------------------------ *)
(* CLI: [-j N] sets the domain pool width the tables run under
   (default: $PSOPT_J, else 1 — rows must verdict identically at every
   width); [--json FILE] writes the summary; [--check] runs only the
   tables that have checks. *)

let usage = "usage: main.exe [--check] [-j N] [--json FILE]"

let bench_j, json_file, check_only =
  let j = ref Explore.Config.default.Explore.Config.domains in
  let json = ref None and check = ref false in
  let bad msg =
    Printf.eprintf "bench: %s\n%s\n" msg usage;
    exit 2
  in
  let rec go = function
    | [] -> ()
    | "--check" :: rest ->
        check := true;
        go rest
    | ("-j" | "--jobs") :: n :: rest -> (
        match Explore.Config.parse_jobs n with
        | Some n ->
            j := n;
            go rest
        | None -> bad (Printf.sprintf "-j wants a positive integer, got %S" n))
    | "--json" :: file :: rest ->
        json := Some file;
        go rest
    | arg :: _ -> bad (Printf.sprintf "bad argument %S" arg)
  in
  go (List.tl (Array.to_list Sys.argv));
  (!j, !json, !check)

(* [Config.default] is evaluated at module init, so an explicit [-j]
   cannot go through $PSOPT_J: every helper threads this config. *)
let bench_config () =
  { Explore.Config.default with Explore.Config.domains = bench_j }

(* Node-count comparisons must run single-domain: splitting the
   frontier re-expands subtrees shared across tasks, so parallel
   [nodes] counters over-approximate the sequential state count. *)
let seq_config () = { Explore.Config.default with Explore.Config.domains = 1 }

(* ------------------------------------------------------------------ *)
(* The registry *)

type result = {
  checks : (string * bool) list;
      (** named pass/fail verdicts; the summary prefixes the table id *)
  lines : string list;  (** printed under the title *)
  json : (string * Obs.Json.t) list;  (** top-level summary fields *)
}

type table = {
  id : string;
  title : string;
  in_check : bool;  (** run under [--check] *)
  run : unit -> result;
}

let status ok = if ok then "ok" else "FAIL"

(* ------------------------------------------------------------------ *)
(* Timing: every timing is the median of [reps] reps, with its IQR.  A
   body shorter than [min_rep_s] is looped until one rep lasts that
   long, so µs-scale bodies are not clock noise.  [median_time] takes
   the settings a table compares and alternates their order between
   reps, so drift (heap growth, frequency scaling) favours neither. *)

(* Three, not more: a rep of the cert-cache table alone is six
   explorations of up to 3 s, and [--check] runs every timed table. *)
let reps = 3

let min_rep_s = 0.02

type timing = { median : float; iqr : float }  (** seconds per call *)

let time_n n f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to n do
    f ()
  done;
  Unix.gettimeofday () -. t0

let quantile sorted q =
  let last = Array.length sorted - 1 in
  let pos = q *. float_of_int last in
  let i = int_of_float pos in
  if i >= last then sorted.(last)
  else sorted.(i) +. ((pos -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

(* The first run of each setting fixes its loop count; it is a
   warm-up, kept as a sample when one call already lasts [min_rep_s].
   The calibration round runs the settings in order, so the reps start
   in reverse. *)
let median_time fs =
  let k = Array.length fs in
  let loops = Array.make k 1 and samples = Array.make k [] in
  Array.iteri
    (fun i f ->
      let rec calibrate n =
        let t = time_n n f in
        if t < min_rep_s then calibrate (2 * n)
        else begin
          loops.(i) <- n;
          if n = 1 then samples.(i) <- [ t ]
        end
      in
      calibrate 1)
    fs;
  for r = 0 to reps - 1 do
    for j = 0 to k - 1 do
      let i = if r mod 2 = 1 then j else k - 1 - j in
      if List.length samples.(i) < reps then
        samples.(i) <-
          (time_n loops.(i) fs.(i) /. float_of_int loops.(i))
          :: samples.(i)
    done
  done;
  Array.map
    (fun l ->
      let a = Array.of_list l in
      Array.sort compare a;
      { median = quantile a 0.5; iqr = quantile a 0.75 -. quantile a 0.25 })
    samples

let pp_dur s =
  if s >= 1.0 then Printf.sprintf "%.3fs" s
  else if s >= 1e-3 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.1fus" (s *. 1e6)

let pp_timing t = Printf.sprintf "%s ±%s" (pp_dur t.median) (pp_dur t.iqr)

let timing_json prefix t =
  [ (prefix ^ "_s", Obs.Json.Float t.median); (prefix ^ "_iqr_s", Obs.Json.Float t.iqr) ]

(* A fresh directory under the temp dir, removed with everything in it
   once [f] returns. *)
let with_temp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> try remove dir with Sys_error _ -> ())
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Reproduction rows *)

let sorted l = List.sort compare l

let outcomes ?config prog =
  let config = match config with Some c -> c | None -> bench_config () in
  let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving prog in
  Explore.Traceset.done_outs o.Explore.Enum.traces
  |> List.map sorted |> List.sort_uniq compare

let observable prog out = List.mem (sorted out) (outcomes prog)

let refines t s =
  Explore.Refine.refines ~config:(bench_config ()) ~target:t ~source:s ()

let violates t s =
  match
    (Explore.Refine.check ~config:(bench_config ()) ~target:t ~source:s ())
      .Explore.Refine.verdict
  with
  | Explore.Refine.Violates _ -> true
  | _ -> false

let ww_free p =
  match Race.ww_rf ~config:(bench_config ()) p with
  | Ok Race.Free -> true
  | _ -> false

let sim_holds inv t s =
  List.for_all
    (fun (_, v) -> v = Sim.Simcheck.Holds)
    (Sim.Simcheck.check_program ~inv ~target:t ~source:s ())

let sim_fails_on f inv t s =
  List.exists
    (fun (g, v) ->
      g = f && match v with Sim.Simcheck.Fails _ -> true | _ -> false)
    (Sim.Simcheck.check_program ~inv ~target:t ~source:s ())

let nodes disc prog =
  let o = Explore.Enum.behaviors_exn ~config:(seq_config ()) disc prog in
  Explore.Stats.(get o.Explore.Enum.stats nodes)

let rows =
  [
    ( "E1", "SB: r1=r2=0 observable under relaxed accesses (Sec. 2.1)",
      fun () -> observable (lit "sb") [ 0; 0 ] );
    ( "E2", "LB: r1=r2=1 observable via a certified promise (Sec. 2.1)",
      fun () -> observable (lit "lb") [ 1; 1 ] );
    ( "E2b", "LB: r1=r2=1 NOT observable when promising is disabled",
      fun () ->
        not (List.mem [ 1; 1 ] (outcomes ~config:Explore.Config.quick (lit "lb")))
    );
    ( "E3", "LB-dep: out-of-thin-air 1/1 forbidden by certification",
      fun () -> not (observable (lit "lb_oota") [ 1; 1 ]) );
    ( "E4", "CAS exclusivity: two CAS from one write cannot both succeed",
      fun () -> not (observable (lit "cas_exclusive") [ 1; 1 ]) );
    ( "E5", "Fig. 1: hoisting across an acquire read violates refinement",
      fun () -> violates (lit "fig1_foo_opt") (lit "fig1_foo") );
    ( "E5b", "Fig. 1: with a relaxed flag the hoisting refines",
      fun () -> refines (lit "fig1_foo_opt_rlx") (lit "fig1_foo_rlx") );
    ( "E5c", "Fig. 1: LICM itself refuses the acquire loop, hoists the relaxed",
      fun () ->
        Lang.Ast.equal_program
          (Opt.Pass.apply Opt.Licm.pass (lit "fig1_foo"))
          (lit "fig1_foo")
        && not
             (Lang.Ast.equal_program
                (Opt.Pass.apply Opt.Licm.pass (lit "fig1_foo_rlx"))
                (lit "fig1_foo_rlx")) );
    ( "E6", "(Reorder): target and source equivalent, racy context included",
      fun () ->
        refines (lit "reorder_tgt") (lit "reorder_src")
        && refines (lit "reorder_src") (lit "reorder_tgt") );
    ( "E7", "Fig. 4: no ww-race (races checked only when promises certify)",
      fun () -> ww_free (lit "fig4") );
    ( "E7b", "plain ww-race is detected (ww_racy)",
      fun () -> not (ww_free (lit "ww_racy")) );
    ( "E8", "Fig. 5: LInv introduces an rw race yet refines",
      fun () ->
        refines (lit "fig5_tgt") (lit "fig5_src")
        &&
        match Race.rw_races (lit "fig5_tgt") with
        | Ok (_ :: _) -> (
            match Race.rw_races (lit "fig5_src") with Ok [] -> true | _ -> false)
        | _ -> false );
    ( "E9", "Thm 4.1: interleaving = non-preemptive behaviours (whole corpus)",
      fun () ->
        List.for_all
          (fun (t : Litmus.t) ->
            Explore.Refine.equivalent_disciplines ~config:(bench_config ())
              t.Litmus.prog
            = Explore.Refine.Refines)
          Litmus.all );
    ( "E10", "Lm 5.1: ww-RF = ww-NPRF (whole corpus)",
      fun () ->
        List.for_all
          (fun (t : Litmus.t) ->
            let np =
              match Race.ww_nprf ~config:(bench_config ()) t.Litmus.prog with
              | Ok Race.Free -> true
              | _ -> false
            in
            ww_free t.Litmus.prog = np)
          Litmus.all );
    ( "E11", "Fig. 14(d): reorder simulated with Iid + delayed write set",
      fun () ->
        sim_holds Sim.Invariant.iid (lit "reorder_tgt") (lit "reorder_src") );
    ( "E12", "Fig. 15: DCE across a release write violates refinement",
      fun () -> violates (lit "fig15_bad_tgt") (lit "fig15_src") );
    ( "E12b", "Fig. 15: the DCE implementation keeps the write (release kill)",
      fun () ->
        Lang.Ast.equal_program
          (Opt.Pass.apply Opt.Dce.pass (lit "fig15_src"))
          (lit "fig15_src") );
    ( "E13", "Fig. 16: DCE simulated with Idce (unused-interval invariant)",
      fun () ->
        sim_holds Sim.Invariant.idce
          (Opt.Pass.apply Opt.Dce.pass (lit "fig16_src"))
          (lit "fig16_src") );
    ( "E13b", "Fig. 16: Iid is too strong for DCE (lockstep needs Idce)",
      fun () ->
        sim_fails_on "t1" Sim.Invariant.iid
          (Opt.Pass.apply Opt.Dce.pass (lit "fig16_src"))
          (lit "fig16_src") );
    ( "E13c", "Fig. 15: bad DCE rejected by the simulation (AT diagram)",
      fun () ->
        sim_fails_on "t1" Sim.Invariant.idce (lit "fig15_bad_tgt")
          (lit "fig15_src") );
    ( "E14", "ConstProp refines and is simulated with Iid (corpus programs)",
      fun () ->
        let p = lit "sb" in
        let t = Opt.Pass.apply Opt.Constprop.pass p in
        refines t p && sim_holds Sim.Invariant.iid t p );
    ( "E15", "CSE refines and is simulated with Iid (fig5 pipeline)",
      fun () ->
        let p = lit "fig5_tgt" in
        let t = Opt.Pass.apply Opt.Cse.pass p in
        refines t p && sim_holds Sim.Invariant.iid t p );
    ( "E16", "non-preemptive machine explores no more states (corpus)",
      fun () ->
        List.for_all
          (fun (t : Litmus.t) ->
            nodes Explore.Enum.Non_preemptive t.Litmus.prog
            <= nodes Explore.Enum.Interleaving t.Litmus.prog)
          Litmus.all );
    ( "E17", "np semantics keeps promise-visible writes (lb still 1/1)",
      fun () ->
        let o =
          Explore.Enum.behaviors_exn ~config:(bench_config ())
            Explore.Enum.Non_preemptive (lit "lb")
        in
        List.mem [ 1; 1 ]
          (Explore.Traceset.done_outs o.Explore.Enum.traces |> List.map sorted) );
    (* Extras beyond the paper's figures: classic shapes + the witness
       reconstruction of Sec. 2.1's annotated executions. *)
    ( "X1", "spinlock: mutual exclusion (reads 0 then 1; 0/0 forbidden)",
      fun () ->
        observable (lit "spinlock") [ 0; 1 ]
        && not (observable (lit "spinlock") [ 0; 0 ]) );
    ( "X2", "spinlock counter is ww-race-free under lock synchronization",
      fun () -> ww_free (lit "spinlock") );
    ( "X3", "IRIW rel/acq: the split outcome 10/10 is observable in PS",
      fun () -> observable (lit "iriw") [ 10; 10 ] );
    ( "X4", "WRC: release/acquire chains are cumulative (0 forbidden)",
      fun () -> not (observable (lit "wrc") [ 0 ]) );
    ( "X5", "fence MP: rel fence + rlx write synchronizes (0 forbidden)",
      fun () -> not (observable (lit "mp_fences") [ 0 ]) );
    ( "X6", "witness: LB's annotated execution contains a promise step",
      fun () ->
        match
          Explore.Witness.find ~config:(bench_config ()) ~outs:[ 1; 1 ] (lit "lb")
        with
        | Some w ->
            List.exists
              (fun (s : Explore.Witness.step) ->
                s.Explore.Witness.event = Ps.Event.Prm)
              w
        | None -> false );
    ( "X7", "witness: oota outcome refuted bounded-exhaustively",
      fun () ->
        Explore.Witness.forbidden ~config:(bench_config ()) ~outs:[ 1; 1 ]
          (lit "lb_oota") );
    ( "X11", "read-own-write coherence: the writer cannot read back 0",
      fun () -> not (observable (lit "corw") [ 0 ]) );
    ( "X12", "control-dependent LB: guarded write cannot be promised (oota)",
      fun () -> not (observable (lit "lb_ctrl_dep") [ 1; 1 ]) );
    ( "X13", "inverted guard: the promise certifies, 0/1 observable, 1/1 not",
      fun () ->
        observable (lit "lb_ctrl_indep") [ 0; 1 ]
        && not (observable (lit "lb_ctrl_indep") [ 1; 1 ]) );
    ( "X9", "release sequence: rlx write after rel write synchronizes",
      fun () -> not (observable (lit "release_seq") [ 0 ]) );
    ( "X10", "release sequence extends through a relaxed RMW",
      fun () -> not (observable (lit "release_seq_rmw") [ 0 ]) );
    ( "X8", "Verif pipeline (Fig. 6) verifies dce/cse/licm on their examples",
      fun () ->
        List.for_all
          (fun (pass, prog) ->
            Sim.Verif.check ~explore_config:(bench_config ())
              (Option.get (Sim.Verif.find pass))
              (lit prog)
            = Sim.Verif.Verified)
          [ ("dce", "fig16_src"); ("cse", "fig5_tgt"); ("licm", "fig1_foo_rlx") ] );
  ]

let reproduction () =
  let results = List.map (fun (id, claim, check) -> (id, claim, check ())) rows in
  {
    checks = List.map (fun (id, _, ok) -> (id, ok)) results;
    lines =
      List.map
        (fun (id, claim, ok) -> Printf.sprintf "%-4s %-62s %s" id claim (status ok))
        results;
    json =
      [
        ( "rows",
          List
            (List.map
               (fun (id, claim, ok) ->
                 Obs.Json.Obj [ ("id", String id); ("claim", String claim); ("ok", Bool ok) ])
               results) );
      ];
  }

let state_space () =
  let row (t : Litmus.t) =
    let il = nodes Explore.Enum.Interleaving t.Litmus.prog in
    let np = nodes Explore.Enum.Non_preemptive t.Litmus.prog in
    Printf.sprintf "%-18s %12d %12d %8.2fx" t.Litmus.name il np
      (float_of_int il /. float_of_int (max 1 np))
  in
  {
    checks = [];
    lines =
      Printf.sprintf "%-18s %12s %12s %9s" "litmus" "interleaving" "non-preempt" "ratio"
      :: List.map row Litmus.all;
    json = [];
  }

(* Fig. 1 loop-bound sweep: the claim is bound-independent; the series
   shows the violation persists as the loop grows. *)
let fig1_sweep () =
  let make ~bound ~flag_mode ~hoisted =
    let open Lang.Build in
    let prelude =
      [ assign "r1" (i 0); assign "r2" (i 0) ]
      @ if hoisted then [ load "r2" "y" ~mode:Lang.Modes.Na ] else []
    in
    let body =
      if hoisted then [ assign "r1" (r "r1" + i 1) ]
      else [ load "r2" "y" ~mode:Lang.Modes.Na; assign "r1" (r "r1" + i 1) ]
    in
    program ~atomics:[ "x" ]
      [
        proc "foo"
          [
            blk "L0" prelude (jmp "L1");
            blk "L1" [] (be (r "r1" < i bound) "L2" "L4");
            blk "L2"
              [ load "r3" "x" ~mode:flag_mode ]
              (be (r "r3" == i 0) "L2" "L3");
            blk "L3" body (jmp "L1");
            blk "L4" [ print (r "r2") ] ret;
          ];
        proc "g"
          [
            blk "G0"
              [ store "y" ~mode:Lang.Modes.WNa (i 1);
                store "x" ~mode:Lang.Modes.WRel (i 1) ]
              ret;
          ];
      ]
      ~threads:[ "foo"; "g" ]
  in
  let verdict bound flag =
    if
      violates
        (make ~bound ~flag_mode:flag ~hoisted:true)
        (make ~bound ~flag_mode:flag ~hoisted:false)
    then "violates"
    else "refines"
  in
  let row bound =
    Printf.sprintf "%-6d %-10s %-10s" bound (verdict bound Lang.Modes.Acq)
      (verdict bound Lang.Modes.Rlx)
  in
  {
    checks = [];
    lines =
      (Printf.sprintf "%-6s %-10s %-10s" "bound" "acq" "rlx" :: List.map row [ 1; 2; 3 ])
      @ [ "(expected: acq violates at every bound, rlx always refines)" ];
    json = [];
  }

(* ------------------------------------------------------------------ *)
(* Cert-cache ablation: node throughput of the full exploration with
   the certification cache on (default) vs off.

   Certification — a bounded exploration of the promising thread's
   future per check — is the one per-node cost that is not O(step), so
   the workload family here is built to be certification-bound: a
   promiser whose fulfillment sits [pad] register steps after the
   promise (each consistency check walks that suffix, so uncached
   certification work grows quadratically with [pad] while the state
   space grows linearly), interleaved with a reader thread whose
   [noise] loads of an unwritten location revisit the promiser's exact
   (thread-state, memory) configuration over and over.  On litmus-size
   programs certification is a few percent of runtime and the cache is
   neutral; these rows show the regime it exists for.

   The checked invariant: the behaviour sets are identical with the
   cache on and off — the cache only skips re-deriving results that
   are pure functions of the (thread-state, memory) configuration. *)
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
            @ [ load "r2" "x" ~mode:Lang.Modes.Rlx;
                store "y" ~mode:Lang.Modes.WRlx (i 1); print (r "r2") ])
            ret;
        ];
    ]
    ~threads:[ "t1"; "t2" ]

(* [explore_into r ?config disc prog] is a timing body that keeps its
   last outcome in [r], for the equivalence checks. *)
let explore_into r ?(config = bench_config ()) disc prog () =
  r := Some (Explore.Enum.behaviors_exn ~config disc prog)

(* The row tables' common shape: each row is a named check, a printed
   line and a JSON object, and the objects go under [key]. *)
let of_rows ~key header rows =
  {
    checks = List.map (fun (c, _, _) -> c) rows;
    lines = header :: List.map (fun (_, l, _) -> l) rows;
    json = [ (key, Obs.Json.List (List.map (fun (_, _, j) -> j) rows)) ];
  }

let cert_cache () =
  let speedups = ref [] in
  let row (pad, noise) =
    let name = Printf.sprintf "cert_heavy %d/%d" pad noise in
    let prog = cert_heavy ~pad ~noise in
    let cached = ref None and uncached = ref None in
    let body r cache =
      explore_into r
        ~config:{ (bench_config ()) with Explore.Config.cert_cache = cache }
        Explore.Enum.Interleaving prog
    in
    let ts = median_time [| body cached true; body uncached false |] in
    let t_on = ts.(0) and t_off = ts.(1) in
    let cached = Option.get !cached in
    let equal =
      Explore.Traceset.equal cached.Explore.Enum.traces
        (Option.get !uncached).Explore.Enum.traces
    in
    let n = Explore.Stats.get cached.Explore.Enum.stats Explore.Stats.nodes in
    let speedup = t_off.median /. t_on.median in
    speedups := speedup :: !speedups;
    ( (name, equal),
      Printf.sprintf "%-18s %7d %17s %17s %7.2fx  %s" name n (pp_timing t_on)
        (pp_timing t_off) speedup
        (if equal then "tracesets identical  ok" else "traceset MISMATCH  FAIL"),
      Obs.Json.Obj
        ([ ("workload", Obs.Json.String name); ("nodes", Int n) ]
        @ timing_json "cached" t_on @ timing_json "uncached" t_off
        @ [ ("speedup", Float speedup); ("equivalent", Bool equal) ]) )
  in
  let r =
    of_rows ~key:"cert_cache"
      (Printf.sprintf "%-18s %7s %17s %17s %8s" "workload" "nodes" "t(cached)"
         "t(uncached)" "speedup")
      (List.map row [ (60, 16); (80, 20); (100, 24) ])
  in
  let geo =
    List.fold_left ( *. ) 1.0 !speedups
    ** (1.0 /. float_of_int (List.length !speedups))
  in
  { r with lines = r.lines @ [ Printf.sprintf "geometric-mean speedup: %.2fx" geo ] }

(* ------------------------------------------------------------------ *)
(* State-space reduction ablation (docs/REDUCTION.md): node counts of
   the same single-domain exploration with [Config.full_reduction] on
   vs off.  The row family covers the regimes each technique exists
   for: the cert_heavy rows are certification-bound with a
   thread-private noise location (the ample rule collapses the local
   chains), iriw_sym is an IRIW-shaped workload with two identical
   readers (symmetry folds the reader orbit, the ample rule eats the
   padding), and sym_writers is a pure orbit workload (N identical
   writers, promise-free so the baseline stays tractable).

   Checks:
   - behaviour equality: reduced and unreduced explorations must agree
     on [Traceset.equal_behaviour] and completeness, over these rows
     AND the whole litmus corpus;
   - the reduction gate, over distinct states: the unreduced side is
     the number of distinct reachable states ([Enum.iter_reachable]'s
     node count), the reduced side the reduced walk's node count; the
     headline rows must shrink it by >= 7.5x (cert_heavy 100/24) and
     >= 9.5x (iriw_sym), the supporting rows by their listed floors —
     this is the PR-facing perf claim;
   - counter consistency: nodes saved >= sleep_prunes +
     symmetry_folds (each symmetric-sibling prune and each orbit fold
     must account for at least one avoided node; the ample rule's
     [persistent_prunes] counts pruned switch *edges*, which is why it
     is not part of the inequality). *)

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

let sym_writers n =
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

(* Unreduced and fully reduced explorations of [prog]: whether they
   agree on behaviours and completeness, and both outcomes. *)
let reduced_pair config prog =
  let base = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving prog in
  let red =
    Explore.Enum.behaviors_exn
      ~config:{ config with Explore.Config.reduction = Explore.Config.full_reduction }
      Explore.Enum.Interleaving prog
  in
  ( Explore.Traceset.equal_behaviour base.Explore.Enum.traces red.Explore.Enum.traces
    && base.Explore.Enum.completeness = red.Explore.Enum.completeness,
    base,
    red )

let reduction () =
  let gate_ok = ref true in
  let row (name, prog, config, floor) =
    let equal, base, red = reduced_pair config prog in
    let rs = red.Explore.Enum.stats in
    let nb = Explore.Stats.get base.Explore.Enum.stats Explore.Stats.nodes in
    let states =
      match
        Explore.Enum.iter_reachable ~config Explore.Enum.Interleaving prog
          ~f:(fun ~committed:_ _ -> ())
      with
      | Ok st -> Explore.Stats.get st Explore.Stats.nodes
      | Error e -> failwith e
    in
    let nr = Explore.Stats.get rs Explore.Stats.nodes in
    let sleep = Explore.Stats.get rs Explore.Stats.sleep_prunes in
    let pers = Explore.Stats.get rs Explore.Stats.persistent_prunes in
    let folds = Explore.Stats.get rs Explore.Stats.symmetry_folds in
    let counters_ok = nb - nr >= sleep + folds in
    let factor = float_of_int states /. float_of_int (max 1 nr) in
    let row_ok = factor >= floor in
    gate_ok := !gate_ok && row_ok;
    ( (name, equal && counters_ok),
      Printf.sprintf "%-18s %10d %8d %7.2fx %6d %6d %7d  floor %4.1f %s%s" name
        states nr factor sleep pers folds floor (status row_ok)
        (if equal && counters_ok then ""
         else Printf.sprintf "  MISMATCH (equal %b, counters %b)" equal counters_ok),
      Obs.Json.Obj
        [ ("workload", String name); ("nodes_unreduced", Int states);
          ("nodes_reduced", Int nr); ("factor", Float factor);
          ("sleep_prunes", Int sleep); ("persistent_prunes", Int pers);
          ("symmetry_folds", Int folds); ("equivalent", Bool equal);
          ("counters_ok", Bool counters_ok); ("gate_floor", Float floor);
          ("gate_ok", Bool row_ok) ] )
  in
  let r =
    of_rows ~key:"reduction"
      (Printf.sprintf "%-18s %10s %8s %8s %6s %6s %7s" "workload" "states"
         "reduced" "factor" "sleep" "pers" "symfold")
      (List.map row
         [
           ("cert_heavy 60/16", cert_heavy ~pad:60 ~noise:16, seq_config (), 5.0);
           ("cert_heavy 100/24", cert_heavy ~pad:100 ~noise:24, seq_config (), 7.5);
           ("iriw_sym 2r", iriw_sym, seq_config (), 9.5);
           ( "sym_writers 3",
             sym_writers 3,
             { (seq_config ()) with Explore.Config.max_promises = 0 },
             3.0 );
         ])
  in
  (* the whole litmus corpus must be behaviour-invariant under full
     reduction (completeness included) *)
  let corpus_ok =
    List.for_all
      (fun (t : Litmus.t) ->
        let equal, _, _ = reduced_pair (bench_config ()) t.Litmus.prog in
        equal)
      Litmus.all
  in
  let gate_ok = !gate_ok in
  {
    checks = r.checks @ [ ("litmus corpus", corpus_ok); ("gate", gate_ok) ];
    lines =
      r.lines
      @ [
          "litmus corpus: reduced ≡ unreduced behaviours  " ^ status corpus_ok;
          "reduction gate: node-count floors met on every row  " ^ status gate_ok;
        ];
    json =
      r.json
      @ [
          ( "reduction_gate",
            Obj [ ("ok", Bool gate_ok); ("corpus_equivalent", Bool corpus_ok) ] );
        ];
  }

(* ------------------------------------------------------------------ *)
(* Trace ablation: node throughput of the same certification-bound
   exploration with span tracing off (the default) vs on.  The checked
   invariant is twofold: tracesets must be identical (tracing is pure
   observation), and the traced run must actually record spans.  The
   throughput ratio backs docs/OBSERVABILITY.md's "~zero cost
   disabled" claim; it is printed, not gated. *)

let trace_ablation () =
  let name = "cert_heavy 60/16" in
  let prog = cert_heavy ~pad:60 ~noise:16 in
  let untraced = ref None and traced = ref None in
  let off = explore_into untraced Explore.Enum.Interleaving prog in
  let on () =
    Obs.Trace.start ();
    Fun.protect ~finally:Obs.Trace.stop
      (explore_into traced Explore.Enum.Interleaving prog)
  in
  let ts = median_time [| off; on |] in
  let t_off = ts.(0) and t_on = ts.(1) in
  (* [start] clears, so these are the last traced run's spans *)
  let n_spans = List.length (Obs.Trace.events ()) in
  let untraced = Option.get !untraced in
  let equal =
    Explore.Traceset.equal untraced.Explore.Enum.traces
      (Option.get !traced).Explore.Enum.traces
  in
  let ok = equal && n_spans > 0 in
  let nodes =
    float_of_int Explore.Stats.(get untraced.Explore.Enum.stats nodes)
  in
  let overhead = (t_on.median -. t_off.median) /. t_off.median *. 100. in
  {
    checks = [ (name, ok) ];
    lines =
      [
        Printf.sprintf "%-18s %7s %17s %17s %9s %6s" "workload" "nodes"
          "t(untraced)" "t(traced)" "overhead" "spans";
        Printf.sprintf "%-18s %7.0f %17s %17s %8.1f%% %6d  %s" name nodes
          (pp_timing t_off) (pp_timing t_on) overhead n_spans
          (if ok then "tracesets identical  ok"
           else Printf.sprintf "MISMATCH (equal %b, spans %d)  FAIL" equal n_spans);
      ];
    json =
      [
        ( "trace_ablation",
          Obj
            ([ ("workload", Obs.Json.String name);
               ("untraced_nodes_per_s", Float (nodes /. t_off.median));
               ("traced_nodes_per_s", Float (nodes /. t_on.median));
               ("overhead_pct", Float overhead); ("spans", Int n_spans);
               ("equivalent", Bool equal) ]
            @ timing_json "untraced" t_off @ timing_json "traced" t_on) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Truncation pressure: the resource-budget counters under tight
   budgets, so perf PRs can see at a glance how much of a search each
   budget is eating.  The completeness column is checked: a tight
   budget must report Truncated and the default config must stay
   Exhaustive. *)

let truncation () =
  let prog = lit "spinlock" in
  let dflt = bench_config () in
  let row (name, config, expect_truncated) =
    let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving prog in
    let st = o.Explore.Enum.stats in
    let ok =
      (o.Explore.Enum.completeness <> Explore.Enum.Exhaustive) = expect_truncated
    in
    ( (name, ok),
      Format.asprintf "%-24s %8d %6d %9d %9d %7d %7d  %a  %s" name
        Explore.Stats.(get st nodes) Explore.Stats.(get st cuts)
        Explore.Stats.(get st deadline_hits)
        Explore.Stats.(get st node_budget_hits)
        Explore.Stats.(get st oom_hits) Explore.Stats.(get st faults_injected)
        Explore.Enum.pp_completeness o.Explore.Enum.completeness (status ok) )
  in
  let rs =
    List.map row
      [
        ("default", dflt, false);
        ("max_steps=12", { dflt with Explore.Config.max_steps = 12 }, true);
        ("max_nodes=50", { dflt with Explore.Config.max_nodes = Some 50 }, true);
        ( "deadline_ms=0",
          { dflt with Explore.Config.deadline_ms = Some 0; max_steps = 100_000 },
          true );
        ( "fault seed=42 rate=5%",
          {
            dflt with
            Explore.Config.fault =
              Some { Explore.Config.fault_seed = 42; fault_rate = 0.05 };
          },
          true );
      ]
  in
  {
    checks = List.map fst rs;
    lines =
      Printf.sprintf "%-24s %8s %6s %9s %9s %7s %7s  %s" "config" "nodes" "cuts"
        "deadline" "node_bgt" "oom" "faults" "completeness"
      :: List.map snd rs;
    json = [];
  }

(* ------------------------------------------------------------------ *)
(* Domain-parallel scaling: the certification-bound workloads (where
   the shared cert cache lets extra domains pay off) plus two wide
   litmus shapes, explored at j=1/2/4 under the shipped scheduling
   policy (requested width clamped to the cores — oversubscription off
   regardless of $PSOPT_J, because this table measures what a user
   gets).  The three widths run interleaved within each rep.

   Checks:
   - determinism: identical tracesets and completeness at every width,
     over every run;
   - the scaling gate on the median speedup_j4, hardware-aware because
     a 4-wide speedup is physically unattainable on fewer than 4
     cores:
       * "full" mode (>= 4 cores): >= 2.0 on the cert-heavy rows and
         >= 1.0 on every row — parallel exploration must pay, never
         cost;
       * "clamped" mode (< 4 cores): >= 0.9 on every row — the width
         request is clamped to the hardware, so asking for more
         domains than cores must be a no-op, not the 2–10x slowdown
         this gate was added to catch. *)

type floor_class = Cert_heavy | Any_workload

let scaling () =
  let cores = Explore.Pool.recommended () in
  let mode = if cores >= 4 then "full" else "clamped" in
  let cert_floor, all_floor = if cores >= 4 then (2.0, 1.0) else (0.9, 0.9) in
  let gate_ok = ref true in
  let row (name, prog, cls) =
    let runs = ref [] in
    let at j () =
      let config =
        { Explore.Config.default with Explore.Config.domains = j; oversubscribe = false }
      in
      runs := Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving prog :: !runs
    in
    (* the previous row leaves a large major heap behind; compacting
       it keeps that GC debt out of this row's reps *)
    Gc.compact ();
    let ts = median_time [| at 1; at 2; at 4 |] in
    let t1 = ts.(0) and t2 = ts.(1) and t4 = ts.(2) in
    let first = List.hd (List.rev !runs) in
    let equivalent =
      List.for_all
        (fun (o : Explore.Enum.outcome) ->
          Explore.Traceset.equal first.Explore.Enum.traces o.Explore.Enum.traces
          && first.Explore.Enum.completeness = o.Explore.Enum.completeness)
        !runs
    in
    let s4 = t1.median /. t4.median in
    let floor = if cores >= 4 && cls = Cert_heavy then cert_floor else all_floor in
    let row_ok = s4 >= floor in
    gate_ok := !gate_ok && row_ok;
    ( (name, equivalent),
      Printf.sprintf "%-18s %17s %17s %17s %6.2fx  floor %.2f %s  %s" name
        (pp_timing t1) (pp_timing t2) (pp_timing t4) s4 floor (status row_ok)
        (if equivalent then "identical at j=1/2/4" else "parallel/sequential MISMATCH"),
      Obs.Json.Obj
        [ ("workload", String name); ("t1_s", Float t1.median);
          ("t2_s", Float t2.median); ("t4_s", Float t4.median);
          ("speedup_j4", Float s4); ("equivalent", Bool equivalent);
          ("gate_floor", Float floor); ("gate_ok", Bool row_ok);
          ("t1_iqr_s", Float t1.iqr); ("t2_iqr_s", Float t2.iqr);
          ("t4_iqr_s", Float t4.iqr) ] )
  in
  let rows =
    [
      ("cert_heavy 80/20", cert_heavy ~pad:80 ~noise:20, Cert_heavy);
      ("cert_heavy 100/24", cert_heavy ~pad:100 ~noise:24, Cert_heavy);
      ("iriw", lit "iriw", Any_workload);
      ("spinlock", lit "spinlock", Any_workload);
    ]
  in
  (* About 1.5 s of untimed parallel searches of the first row's
     program: the first parallel searches of a process that has run
     single-domain tables for tens of seconds can find the second CPU
     of a shared VM busy for about a second (docs/PARALLEL.md), and
     the first row would time that instead of the engine.  One search
     is too short a warm-up for that (~130 ms). *)
  (let _, prog, _ = List.hd rows in
   let config =
     { Explore.Config.default with Explore.Config.domains = 4; oversubscribe = false }
   in
   let until = Unix.gettimeofday () +. 1.5 in
   while Unix.gettimeofday () < until do
     ignore (Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving prog)
   done);
  let r =
    of_rows ~key:"scaling"
      (Printf.sprintf "%-18s %17s %17s %17s %7s" "workload" "t(j=1)" "t(j=2)"
         "t(j=4)" "x(j=4)")
      (List.map row rows)
  in
  let gate_ok = !gate_ok in
  {
    checks = r.checks @ [ ("gate", gate_ok) ];
    lines =
      r.lines
      @ [
          Printf.sprintf "scaling gate (%s mode, %d cores): %s" mode cores
            (if gate_ok then "speedups within thresholds  ok" else "FAIL");
        ];
    json =
      r.json
      @ [
          ( "scaling_gate",
            Obj
              [ ("mode", String mode); ("cores", Int cores);
                ("cert_heavy_floor", Float cert_floor); ("all_floor", Float all_floor);
                ("ok", Bool gate_ok) ] );
        ];
  }

(* ------------------------------------------------------------------ *)
(* Verification service: the content-addressed result store's cold vs
   warm cost over the litmus corpus (docs/SERVICE.md), through the
   same [Server.serve_work] path the daemon uses.  The checked
   invariant is the cache contract: a cold pass misses everywhere, a
   warm pass hits on every request, and the two return byte-identical
   reports and exit codes.  Each cold pass gets a fresh store; the
   warm passes reuse the last one. *)

let service () =
  with_temp_dir "psopt-bench-store" @@ fun root ->
  let stats = Service.Server.Counters.create () in
  let config = bench_config () in
  let pass store =
    List.map
      (fun (t : Litmus.t) ->
        match
          Service.Server.serve_work ~store ~stats
            (Service.Proto.Litmus t.Litmus.name) config
        with
        | Service.Proto.Reply r -> r
        | _ -> failwith ("service refused litmus " ^ t.Litmus.name))
      Litmus.all
  in
  let stores = ref [] and cold = ref [] and warm = ref [] in
  let cold_pass () =
    let s =
      Service.Store.open_
        (Filename.concat root (string_of_int (List.length !stores)))
    in
    stores := s :: !stores;
    cold := pass s
  in
  let t_cold = (median_time [| cold_pass |]).(0) in
  let t_warm =
    (median_time [| (fun () -> warm := pass (List.hd !stores)) |]).(0)
  in
  let cold = !cold and warm = !warm in
  let total = List.length warm in
  let hits = List.length (List.filter (fun r -> r.Service.Proto.cached) warm) in
  let cold_misses = List.for_all (fun r -> not r.Service.Proto.cached) cold in
  let identical =
    List.for_all2
      (fun (a : Service.Proto.reply) (b : Service.Proto.reply) ->
        a.Service.Proto.output = b.Service.Proto.output
        && a.Service.Proto.exit_code = b.Service.Proto.exit_code)
      cold warm
  in
  let ok = cold_misses && hits = total && identical in
  {
    checks = [ ("store contract", ok) ];
    lines =
      [
        (if ok then
           Printf.sprintf
             "%d programs: cold all misses, warm %d/%d hits, replies identical  ok"
             total hits total
         else
           Printf.sprintf
             "service store MISMATCH (cold misses %b, warm hits %d/%d, identical \
              %b)  FAIL"
             cold_misses hits total identical);
        Printf.sprintf "cold %s   warm %s   speedup %.1fx" (pp_timing t_cold)
          (pp_timing t_warm) (t_cold.median /. t_warm.median);
      ];
    json =
      [
        ( "service",
          Obj
            (("programs", Obs.Json.Int total)
             :: timing_json "cold" t_cold
            @ timing_json "warm" t_warm
            @ [ ("store_hits_warm", Int hits) ]) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Replay debugger (docs/REPLAY.md): record a switch-heavy execution
   into a temp store, reload it, and sweep every position.  Checked
   invariants: the reconstructed state equals the recorder's at every
   step, no single jump replays >= K steps (the keyframe cost model),
   and ddmin strictly reduces the switch count while preserving the
   output sequence.  Record, load and a full backward sweep are then
   timed. *)

let replay () =
  with_temp_dir "psopt-bench-replay" @@ fun dir ->
  let config = bench_config () in
  let prog = lit "lb" in
  let kf = 4 in
  let path = Filename.concat dir "lb.trace" in
  let outs = [ 1; 1 ] in
  let record () =
    match
      Replay.Record.record_witness ~config ~eager_switch:true ~outs ~path prog
    with
    | Ok n -> n
    | Error m -> failwith ("bench replay: record: " ^ m)
  in
  let load () =
    match Replay.Session.load ~keyframe_every:kf path with
    | Ok s -> s
    | Error e -> failwith (Replay.Store.error_to_string e)
  in
  let steps = record () in
  let session = load () in
  (* reference states straight from the stepper *)
  let states =
    match Explore.Witness.find_trail ~config ~eager_switch:true ~outs prog with
    | Some (st0, trail) -> Array.of_list (Explore.Stepper.trail_states st0 trail)
    | None -> failwith "bench replay: witness vanished"
  in
  let max_jump_cost = ref 0 in
  let equal_everywhere = ref true in
  ignore (Replay.Session.jump session steps);
  for n = steps - 1 downto 0 do
    let before = Replay.Session.replayed_steps session in
    ignore (Replay.Session.jump session n);
    max_jump_cost :=
      max !max_jump_cost (Replay.Session.replayed_steps session - before);
    if not (Explore.Stepper.equal_state states.(n) (Replay.Session.state session))
    then equal_everywhere := false
  done;
  let w =
    List.filter_map
      (fun n ->
        match Replay.Session.record_at session n with
        | Some { Replay.Trace.event = Some e; tid; _ } ->
            Some { Explore.Witness.tid; event = e }
        | _ -> None)
      (List.init steps Fun.id)
  in
  let sw_before, sw_after =
    match Replay.Shrink.schedule ~config prog w with
    | Ok res -> (res.Replay.Shrink.switches_before, res.Replay.Shrink.switches_after)
    | Error m -> failwith ("bench replay: shrink: " ^ m)
  in
  let sweep () =
    ignore (Replay.Session.jump session steps);
    for n = steps - 1 downto 0 do
      ignore (Replay.Session.jump session n)
    done
  in
  let ts =
    median_time
      [| (fun () -> ignore (record ())); (fun () -> ignore (load ())); sweep |]
  in
  let ok = !equal_everywhere && !max_jump_cost < kf && sw_after < sw_before in
  {
    checks = [ ("lb eager", ok) ];
    lines =
      [
        Printf.sprintf
          "lb eager %d steps: states %s, max jump %d < K=%d, switches %d -> %d  %s"
          steps
          (if !equal_everywhere then "exact" else "DIFFER")
          !max_jump_cost kf sw_before sw_after (status ok);
        Printf.sprintf "record %s   load %s   backward sweep %s" (pp_timing ts.(0))
          (pp_timing ts.(1)) (pp_timing ts.(2));
      ];
    json =
      [
        ( "replay",
          Obj
            ([ ("steps", Obs.Json.Int steps); ("keyframe_every", Int kf);
               ("max_jump_cost", Int !max_jump_cost);
               ("switches_before", Int sw_before); ("switches_after", Int sw_after);
               ("ok", Bool ok) ]
            @ timing_json "record" ts.(0) @ timing_json "load" ts.(1)
            @ timing_json "sweep" ts.(2)) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Fleet load generation (docs/SERVICE.md "Load generation
   methodology"): a real in-process daemon on a temp socket, driven
   over the wire by the loadgen — a closed-loop client sweep plus one
   open-loop offered rate.  The mix is 100% prewarmed litmus corpus,
   so every measured request is a warm store hit and the quantiles are
   a property of the service path, not of exploration variance.

   Checks: zero transport errors on every row; the warm p99 stays
   under a generous ceiling; the saturation knee is at least the first
   offered rate; and throughput is monotone up to the knee — growing
   the closed-loop fleet must never cost more than the tolerance
   factor, since warm hits bypass the admission queue entirely. *)

let loadgen_p99_ceiling_ms = 500.0
let loadgen_monotone_tolerance = 0.6

let loadgen () =
  with_temp_dir "psopt-bench-lg" @@ fun dir ->
  let socket = Filename.concat dir "lg.sock" in
  let m = Mutex.create () in
  let c = Condition.create () in
  let ready = ref false in
  let server_result = ref (Ok ()) in
  let server =
    Thread.create
      (fun () ->
        server_result :=
          Service.Server.run
            ~on_ready:(fun () ->
              Mutex.lock m;
              ready := true;
              Condition.signal c;
              Mutex.unlock m)
            {
              (Service.Server.default ~socket) with
              store_dir = Some (Filename.concat dir "store");
              capacity = 64;
              quiet = true;
            })
      ()
  in
  Mutex.lock m;
  while not !ready do
    Condition.wait c m
  done;
  Mutex.unlock m;
  let base =
    {
      (Service.Loadgen.default ~socket) with
      high_pct = 100;
      warmup_s = 0.3;
      duration_s = 1.5;
      prewarm = true;
      retries = 0;
    }
  in
  let closed_thr = ref [] in
  let row (label, cfg) =
    match Service.Loadgen.run cfg with
    | Error e -> ((label, false), Printf.sprintf "%-12s FAIL (%s)" label e, [])
    | Ok r ->
        let all = r.Service.Loadgen.all in
        let ms ns = float_of_int ns /. 1e6 in
        let q = all.Service.Loadgen.latency in
        let p99_ms = ms q.Service.Loadgen.Quantiles.p99_ns in
        let ok =
          r.Service.Loadgen.transport_errors = 0
          && p99_ms <= loadgen_p99_ceiling_ms
          && all.Service.Loadgen.sent
             = all.Service.Loadgen.ok + all.Service.Loadgen.shed
               + all.Service.Loadgen.busy + all.Service.Loadgen.errors
        in
        let rate_hz =
          match cfg.Service.Loadgen.mode with
          | Service.Loadgen.Closed ->
              closed_thr := r.Service.Loadgen.throughput_rps :: !closed_thr;
              0.0
          | Service.Loadgen.Open { rate_hz; _ } -> rate_hz
        in
        ( (label, ok),
          Printf.sprintf
            "%-12s %3d clients  %8.1f req/s  p50 %6.2fms  p99 %6.2fms  transport \
             errors %d  %s"
            label cfg.Service.Loadgen.clients r.Service.Loadgen.throughput_rps
            (ms q.Service.Loadgen.Quantiles.p50_ns)
            p99_ms r.Service.Loadgen.transport_errors (status ok),
          [
            Obs.Json.Obj
              [ ("row", String label); ("clients", Int cfg.Service.Loadgen.clients);
                ("rate_hz", Float rate_hz);
                ("throughput_rps", Float r.Service.Loadgen.throughput_rps);
                ("p50_ms", Float (ms q.Service.Loadgen.Quantiles.p50_ns));
                ("p99_ms", Float p99_ms);
                ("p999_ms", Float (ms q.Service.Loadgen.Quantiles.p999_ns));
                ("sent", Int all.Service.Loadgen.sent);
                ("shed", Int (all.Service.Loadgen.shed + all.Service.Loadgen.busy));
                ("retries", Int r.Service.Loadgen.retries);
                ("errors", Int all.Service.Loadgen.errors);
                ("transport_errors", Int r.Service.Loadgen.transport_errors);
                ("ok", Bool ok) ];
          ] )
  in
  let rs =
    List.map row
      [
        ("closed_j2", { base with clients = 2 });
        ("closed_j4", { base with clients = 4; prewarm = false });
        ("closed_j8", { base with clients = 8; prewarm = false });
        ( "open_300hz",
          {
            base with
            clients = 8;
            prewarm = false;
            mode =
              Service.Loadgen.Open
                { rate_hz = 300.0; arrivals = Service.Loadgen.Poisson };
          } );
      ]
  in
  (* stepped saturation search: open-loop at rising offered rates
     until the SLO breaks; the knee is the last passing rate.  The
     first step is far under this host's warm-hit capacity, so the
     knee must be at least that. *)
  let sat_rates = [ 200.0; 2000.0 ] in
  let slo =
    {
      Service.Loadgen.slo_p99_ms = Some loadgen_p99_ceiling_ms;
      slo_shed_pct = Some 10.0;
    }
  in
  let knee_ok, knee_line, knee_json =
    match
      Service.Loadgen.saturation
        { base with clients = 8; prewarm = false }
        ~slo ~rates:sat_rates
    with
    | Error e -> (false, "loadgen saturation: FAIL (" ^ e ^ ")", Obs.Json.Null)
    | Ok sat ->
        let knee = sat.Service.Loadgen.knee_hz in
        let ok = match knee with Some k -> k >= List.hd sat_rates | None -> false in
        let step (s : Service.Loadgen.sat_step) =
          Obs.Json.Obj
            [ ("rate_hz", Float s.Service.Loadgen.rate_hz);
              ("passed", Bool s.Service.Loadgen.passed) ]
        in
        ( ok,
          Printf.sprintf "loadgen saturation knee: %s (first offered rate %s)"
            (match knee with
            | Some k -> Printf.sprintf "%g req/s" k
            | None -> "below the first step")
            (if ok then "sustained  ok" else "NOT sustained  FAIL"),
          Obj
            [ ("steps", List (List.map step sat.Service.Loadgen.steps));
              ("knee_hz", match knee with Some k -> Float k | None -> Null) ] )
  in
  (* monotone to the knee: each closed-loop step must keep at least
     the tolerance factor of the previous step's throughput *)
  let rec monotone = function
    | a :: (b :: _ as rest) -> b >= loadgen_monotone_tolerance *. a && monotone rest
    | _ -> true
  in
  let mono_ok = monotone (List.rev !closed_thr) in
  let gate_ok = List.for_all (fun ((_, ok), _, _) -> ok) rs && knee_ok && mono_ok in
  let shutdown =
    match Service.Client.shutdown ~socket with
    | Ok () -> []
    | Error e -> [ "loadgen: shutdown failed: " ^ e ]
  in
  Thread.join server;
  let server_exit =
    match !server_result with
    | Ok () -> []
    | Error e -> [ "loadgen: server exit: " ^ e ]
  in
  {
    checks =
      List.map (fun (check, _, _) -> check) rs
      @ [ ("saturation knee", knee_ok); ("throughput monotone", mono_ok) ];
    lines =
      List.map (fun (_, l, _) -> l) rs
      @ [
          knee_line;
          Printf.sprintf
            "loadgen gate (zero transport errors, p99 <= %.0fms, throughput \
             monotone within %.1fx): %s"
            loadgen_p99_ceiling_ms loadgen_monotone_tolerance (status gate_ok);
        ]
      @ shutdown @ server_exit;
    json =
      [
        ("loadgen", List (List.concat_map (fun (_, _, j) -> j) rs));
        ("loadgen_saturation", knee_json);
        ( "loadgen_gate",
          Obj
            [ ("ok", Bool gate_ok); ("p99_ceiling_ms", Float loadgen_p99_ceiling_ms);
              ("monotone_tolerance", Float loadgen_monotone_tolerance) ] );
      ];
  }

(* ------------------------------------------------------------------ *)
(* Ablation timings: the mechanisms DESIGN.md ablates, and the
   optimizer passes on a synthesized 120-block CFG, each as a median
   per call.  The paper's own workloads (the E/X explorations,
   refinements, races and simulations) are timed end to end by
   bench/e2e's paper_verify and explore_large. *)

let synth_cfg ~blocks =
  let open Lang.Ast in
  let label i = Printf.sprintf "B%d" i in
  let mk i =
    let instrs =
      [
        Assign (Printf.sprintf "r%d" (i mod 7), Val i);
        Load (Printf.sprintf "s%d" (i mod 5), Printf.sprintf "v%d" (i mod 4), Lang.Modes.Na);
        Store
          ( Printf.sprintf "v%d" (i mod 4),
            Bin (Add, Reg (Printf.sprintf "r%d" (i mod 7)), Val 1),
            Lang.Modes.WNa );
        Assign
          ( Printf.sprintf "t%d" (i mod 3),
            Bin (Mul, Reg (Printf.sprintf "r%d" (i mod 7)), Val 3) );
      ]
    in
    let term =
      if i = blocks - 1 then Return
      else if i mod 3 = 0 then
        Be (Reg (Printf.sprintf "r%d" (i mod 7)), label (i + 1), label ((i + 2) mod blocks))
      else Jmp (label (i + 1))
    in
    (label i, block instrs term)
  in
  program ~code:[ ("t", codeheap ~entry:"B0" (List.init blocks mk)) ] [ "t" ]

let ablation_timings () =
  let explore ?(config = bench_config ()) disc prog () =
    ignore (Explore.Enum.behaviors_exn ~config disc prog)
  in
  let lbp = lit "lb" in
  (* an LB-style thread with one pending promise, for certification
     cost measurements *)
  let code_c, ts_c, mem_c =
    let code = lbp.Lang.Ast.code in
    let ts = Option.get (Ps.Thread.init code "t1") in
    let mem =
      Ps.Memory.init (Lang.Ast.VarSet.elements (Lang.Cfg.vars_of_program lbp))
    in
    let p =
      List.hd
        (Ps.Thread.promise_steps ~candidates:[ ("y", 1) ]
           ~atomics:lbp.Lang.Ast.atomics ts mem)
    in
    (code, p.Ps.Thread.ts, p.Ps.Thread.mem)
  in
  let big = synth_cfg ~blocks:120 in
  let heavy = cert_heavy ~pad:20 ~noise:8 in
  let cfg = bench_config () in
  let il = Explore.Enum.Interleaving and np = Explore.Enum.Non_preemptive in
  let wa, wb = Litmus.interleaved_worlds () in
  (* each group is timed by one [median_time] call: the settings it
     compares alternate *)
  let groups =
    [
      [ ("e9_np_equiv", fun () ->
            ignore (Explore.Refine.equivalent_disciplines ~config:cfg (lit "sb"))) ];
      [ ("e16_states_il", explore il (lit "fig1_foo"));
        ("e16_states_np", explore np (lit "fig1_foo")) ];
      [ ("e17_np_lb", explore np lbp) ];
      [ ("e10_race_equiv", fun () -> ignore (Race.ww_nprf ~config:cfg (lit "ww_racy"))) ];
      [ ("x6_witness_lb", fun () ->
            ignore (Explore.Witness.find ~config:cfg ~outs:[ 1; 1 ] lbp)) ];
      [ ("abl_cert_capped", fun () -> ignore (Ps.Cert.consistent ~code:code_c ts_c mem_c));
        ("abl_cert_uncapped", fun () ->
            ignore (Ps.Cert.consistent ~cap:false ~code:code_c ts_c mem_c)) ];
      [ ("abl_explore_memo", explore ~config:{ cfg with memoize = true } il (lit "mp_rlx"));
        ("abl_explore_nomemo", explore ~config:{ cfg with memoize = false } il (lit "mp_rlx")) ];
      [ ("abl_promise_semantic", explore ~config:{ cfg with promise_mode = Semantic } il lbp);
        ("abl_promise_syntactic", explore ~config:{ cfg with promise_mode = Syntactic } il lbp);
        ("abl_promise_none", explore ~config:{ Explore.Config.quick with domains = bench_j } il lbp) ];
      [ ("abl_cert_cache_on", explore ~config:{ cfg with cert_cache = true } il heavy);
        ("abl_cert_cache_off", explore ~config:{ cfg with cert_cache = false } il heavy) ];
      [ ("opt_dce_120blocks", fun () -> ignore (Opt.Pass.apply Opt.Dce.pass big));
        ("opt_licm_120blocks", fun () -> ignore (Opt.Pass.apply Opt.Licm.pass big));
        ("opt_liveness_120blocks", fun () ->
            ignore (Analysis.Liveness.analyze (Lang.Ast.FnameMap.find "t" big.Lang.Ast.code))) ];
      [ ("e8_licm_pipeline", fun () -> ignore (Opt.Pass.apply Opt.Licm.pass (lit "fig5_src"))) ];
      [ ("e14_constprop", fun () -> ignore (Opt.Pass.apply Opt.Constprop.pass_fix big)) ];
      [ ("e15_cse", fun () -> ignore (Opt.Pass.apply Opt.Cse.pass_fix big)) ];
      [ ("random_run_sb", fun () -> ignore (Explore.Random_run.run_exn ~seed:7 (lit "sb"))) ];
      [ ("ps_machine_hash", fun () -> ignore (Ps.Machine.hash wa));
        ("ps_machine_equal", fun () -> ignore (Ps.Machine.equal wa wb)) ];
    ]
  in
  let rs =
    List.concat_map
      (fun group ->
        let ts = median_time (Array.of_list (List.map snd group)) in
        List.mapi (fun i (name, _) -> (name, ts.(i))) group)
      groups
  in
  {
    checks = [];
    lines =
      Printf.sprintf "%-24s %12s %12s" "row" "median" "iqr"
      :: List.map
           (fun (name, t) ->
             Printf.sprintf "%-24s %12s %12s" name (pp_dur t.median) (pp_dur t.iqr))
           rs;
    json =
      [
        ( "ablation_timings",
          List
            (List.map
               (fun (name, t) ->
                 Obs.Json.Obj
                   [ ("row", String name); ("median_s", Float t.median);
                     ("iqr_s", Float t.iqr) ])
               rs) );
      ];
  }

(* ------------------------------------------------------------------ *)

let tables =
  [
    { id = "reproduction"; title = "experiment reproduction (DESIGN.md index)";
      in_check = true; run = reproduction };
    { id = "cert_cache";
      title = "ablation: certification cache on certification-bound workloads";
      in_check = true; run = cert_cache };
    { id = "reduction"; title = "ablation: state-space reduction (por + symmetry) on vs off";
      in_check = true; run = reduction };
    { id = "trace_ablation"; title = "ablation: span tracing off vs on";
      in_check = true; run = trace_ablation };
    { id = "truncation"; title = "truncation pressure under tight budgets";
      in_check = true; run = truncation };
    { id = "scaling"; title = "scaling: domain-parallel exploration at j=1/2/4";
      in_check = true; run = scaling };
    { id = "service"; title = "service store: cold vs warm over the litmus corpus";
      in_check = true; run = service };
    { id = "replay"; title = "replay: record, O(K) navigation, shrink";
      in_check = true; run = replay };
    { id = "loadgen"; title = "loadgen: closed-loop sweep + one open-loop rate";
      in_check = true; run = loadgen };
    { id = "state_space";
      title = "E16 series: states explored, interleaving vs non-preemptive";
      in_check = false; run = state_space };
    { id = "fig1_sweep"; title = "E5 series: Fig. 1 violation across loop bounds";
      in_check = false; run = fig1_sweep };
    { id = "ablation_timings"; title = "ablation timings (median per call)";
      in_check = false; run = ablation_timings };
  ]

(* The histogram families the harness itself populates: certification
   runs and pool tasks during the exploration tables, store lookups
   and request service times during the service tables
   ([psopt_service_request_duration_ns] records inside
   [Server.serve_work], which the service table drives directly). *)
let histogram_json name =
  let s =
    match Obs.Metrics.find_histogram name with
    | Some h -> Obs.Metrics.summary h
    | None ->
        { Obs.Metrics.count = 0; sum_ns = 0; p50_ns = 0.; p90_ns = 0.;
          p99_ns = 0.; p999_ns = 0. }
  in
  Obs.Json.Obj
    [ ("name", String name); ("count", Int s.Obs.Metrics.count);
      ("sum_ns", Int s.Obs.Metrics.sum_ns); ("p50_ns", Float s.Obs.Metrics.p50_ns);
      ("p90_ns", Float s.Obs.Metrics.p90_ns); ("p99_ns", Float s.Obs.Metrics.p99_ns);
      ("p999_ns", Float s.Obs.Metrics.p999_ns) ]

let histograms () =
  List.map histogram_json
    [
      "psopt_explore_cert_run_duration_ns";
      "psopt_pool_task_duration_ns";
      "psopt_store_lookup_duration_ns";
      "psopt_service_request_duration_ns";
      "psopt_client_request_duration_ns";
    ]

(* The revision the numbers belong to; "unknown" outside a checkout. *)
let git_rev () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some rev when String.trim rev <> "" -> String.trim rev
      | _ -> "unknown")

let () =
  Printf.printf "domains: j=%d (recommended %d, cap %d)\n\n%!" bench_j
    (Domain.recommended_domain_count ())
    Explore.Pool.domain_cap;
  let run t =
    Printf.printf "== %s ==\n%!" t.title;
    let t0 = Unix.gettimeofday () in
    let r = t.run () in
    List.iter print_endline r.lines;
    Printf.printf "(%s: %.1fs)\n\n%!" t.id (Unix.gettimeofday () -. t0);
    { r with checks = List.map (fun (n, ok) -> (t.id ^ ": " ^ n, ok)) r.checks }
  in
  let results = List.map run (List.filter (fun t -> t.in_check || not check_only) tables) in
  let checks = List.concat_map (fun r -> r.checks) results in
  let failed = List.filter (fun (_, ok) -> not ok) checks in
  let passed = List.length checks - List.length failed in
  List.iter (fun (name, _) -> Printf.printf "FAILED: %s\n" name) failed;
  Printf.printf "experiments: %d ok, %d failed\n%!" passed (List.length failed);
  Option.iter
    (fun file ->
      let check (name, ok) = Obs.Json.Obj [ ("name", String name); ("ok", Bool ok) ] in
      let fingerprint = Explore.Config.fingerprint (bench_config ()) in
      Out_channel.with_open_text file (fun oc ->
          Obs.Json.output oc
            (Obj
               ([ ("schema", Obs.Json.String "psopt-bench/7"); ("schema_version", Int 7);
                  ("config_fingerprint", String fingerprint); ("jobs", Int bench_j);
                  ("domains_recommended", Int (Domain.recommended_domain_count ()));
                  ("domain_cap", Int Explore.Pool.domain_cap);
                  ("git_rev", String (git_rev ())); ("passed", Int passed);
                  ("failed", Int (List.length failed));
                  ("checks", List (List.map check checks)) ]
               @ List.concat_map (fun r -> r.json) results
               @ [ ("histograms", List (histograms ())) ])));
      Printf.printf "json summary written to %s\n" file)
    json_file;
  if failed <> [] then exit 1
