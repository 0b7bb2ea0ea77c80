(* The benchmark and experiment harness.

   Two phases:

   1. Reproduction rows: every experiment of DESIGN.md's index
      (E1–E17, mapping to the paper's figures and named examples)
      re-runs its checker and prints the claim and verdict — the
      qualitative "tables and figures" of this paper (a verification
      paper: its evaluation artifacts are example programs,
      counterexamples and theorems, not performance numbers).

   2. Bechamel timings: one Test.make per experiment measuring the
      underlying computation, plus the DESIGN.md ablations (capped vs
      uncapped certification, memoized vs plain exploration, promise
      candidate modes, interleaving vs non-preemptive state spaces)
      and optimizer-throughput rows on synthesized CFGs. *)

open Bechamel
open Toolkit

let lit n = (Litmus.find n).Litmus.prog

(* ------------------------------------------------------------------ *)
(* CLI: [-j N] sets the domain pool width the reproduction rows run
   under (default: $PSOPT_J, else 1 — rows must verdict identically at
   every width); [--json FILE] dumps the machine-readable summary;
   [--check] keeps only the deterministic pass/fail phases. *)

let bench_j = ref Explore.Config.default.Explore.Config.domains
let json_file : string option ref = ref None
let check_only = ref false

let parse_argv () =
  let argv = Sys.argv in
  let i = ref 1 in
  while !i < Array.length argv do
    (match argv.(!i) with
    | "--check" -> check_only := true
    | ("-j" | "--jobs") when !i + 1 < Array.length argv ->
        incr i;
        bench_j := max 1 (int_of_string argv.(!i))
    | "--json" when !i + 1 < Array.length argv ->
        incr i;
        json_file := Some argv.(!i)
    | a ->
        Printf.eprintf
          "bench: unknown argument %s (expected --check, -j N, --json FILE)\n"
          a;
        exit 2);
    incr i
  done

(* [Config.default] is evaluated at module init, so an explicit [-j]
   cannot go through $PSOPT_J: every helper threads this config. *)
let bench_config () =
  { Explore.Config.default with Explore.Config.domains = !bench_j }

(* Node-count comparisons must run single-domain: splitting the
   frontier re-expands subtrees shared across tasks, so parallel
   [nodes] counters over-approximate the sequential state count. *)
let seq_config () =
  { Explore.Config.default with Explore.Config.domains = 1 }

(* ------------------------------------------------------------------ *)
(* Phase 1: reproduction rows *)

let passed = ref 0
let failed = ref 0

(* Collected for [--json]. *)
let json_rows : (string * string * bool) list ref = ref []

(* workload, t1, t2, t4, deterministic, gate floor applied to this
   row, whether the row cleared it *)
let json_scaling :
    (string * float * float * float * bool * float * bool) list ref =
  ref []

let row id claim ok =
  incr (if ok then passed else failed);
  json_rows := (id, claim, ok) :: !json_rows;
  Format.printf "%-4s %-62s %s@." id claim (if ok then "ok" else "FAIL")

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
  o.Explore.Enum.stats.Explore.Stats.nodes

let reproduce () =
  Format.printf "== experiment reproduction (DESIGN.md index) ==@.";
  row "E1" "SB: r1=r2=0 observable under relaxed accesses (Sec. 2.1)"
    (observable (lit "sb") [ 0; 0 ]);
  row "E2" "LB: r1=r2=1 observable via a certified promise (Sec. 2.1)"
    (observable (lit "lb") [ 1; 1 ]);
  row "E2b" "LB: r1=r2=1 NOT observable when promising is disabled"
    (not
       (List.mem [ 1; 1 ]
          (outcomes ~config:Explore.Config.quick (lit "lb"))));
  row "E3" "LB-dep: out-of-thin-air 1/1 forbidden by certification"
    (not (observable (lit "lb_oota") [ 1; 1 ]));
  row "E4" "CAS exclusivity: two CAS from one write cannot both succeed"
    (not (observable (lit "cas_exclusive") [ 1; 1 ]));
  row "E5" "Fig. 1: hoisting across an acquire read violates refinement"
    (violates (lit "fig1_foo_opt") (lit "fig1_foo"));
  row "E5b" "Fig. 1: with a relaxed flag the hoisting refines"
    (refines (lit "fig1_foo_opt_rlx") (lit "fig1_foo_rlx"));
  row "E5c" "Fig. 1: LICM itself refuses the acquire loop, hoists the relaxed"
    (Lang.Ast.equal_program
       (Opt.Pass.apply Opt.Licm.pass (lit "fig1_foo"))
       (lit "fig1_foo")
    && not
         (Lang.Ast.equal_program
            (Opt.Pass.apply Opt.Licm.pass (lit "fig1_foo_rlx"))
            (lit "fig1_foo_rlx")));
  row "E6" "(Reorder): target and source equivalent, racy context included"
    (refines (lit "reorder_tgt") (lit "reorder_src")
    && refines (lit "reorder_src") (lit "reorder_tgt"));
  row "E7" "Fig. 4: no ww-race (races checked only when promises certify)"
    (ww_free (lit "fig4"));
  row "E7b" "plain ww-race is detected (ww_racy)" (not (ww_free (lit "ww_racy")));
  row "E8" "Fig. 5: LInv introduces an rw race yet refines"
    (refines (lit "fig5_tgt") (lit "fig5_src")
    &&
    match Race.rw_races (lit "fig5_tgt") with
    | Ok (_ :: _) -> ( match Race.rw_races (lit "fig5_src") with Ok [] -> true | _ -> false)
    | _ -> false);
  row "E9" "Thm 4.1: interleaving = non-preemptive behaviours (whole corpus)"
    (List.for_all
       (fun (t : Litmus.t) ->
         Explore.Refine.equivalent_disciplines ~config:(bench_config ())
           t.Litmus.prog)
       Litmus.all);
  row "E10" "Lm 5.1: ww-RF = ww-NPRF (whole corpus)"
    (List.for_all
       (fun (t : Litmus.t) ->
         let a = ww_free t.Litmus.prog in
         let b =
           match Race.ww_nprf ~config:(bench_config ()) t.Litmus.prog with
           | Ok Race.Free -> true
           | _ -> false
         in
         a = b)
       Litmus.all);
  row "E11" "Fig. 14(d): reorder simulated with Iid + delayed write set"
    (sim_holds Sim.Invariant.iid (lit "reorder_tgt") (lit "reorder_src"));
  row "E12" "Fig. 15: DCE across a release write violates refinement"
    (violates (lit "fig15_bad_tgt") (lit "fig15_src"));
  row "E12b" "Fig. 15: the DCE implementation keeps the write (release kill)"
    (Lang.Ast.equal_program
       (Opt.Pass.apply Opt.Dce.pass (lit "fig15_src"))
       (lit "fig15_src"));
  row "E13" "Fig. 16: DCE simulated with Idce (unused-interval invariant)"
    (sim_holds Sim.Invariant.idce
       (Opt.Pass.apply Opt.Dce.pass (lit "fig16_src"))
       (lit "fig16_src"));
  row "E13b" "Fig. 16: Iid is too strong for DCE (lockstep needs Idce)"
    (sim_fails_on "t1" Sim.Invariant.iid
       (Opt.Pass.apply Opt.Dce.pass (lit "fig16_src"))
       (lit "fig16_src"));
  row "E13c" "Fig. 15: bad DCE rejected by the simulation (AT diagram)"
    (sim_fails_on "t1" Sim.Invariant.idce (lit "fig15_bad_tgt")
       (lit "fig15_src"));
  row "E14" "ConstProp refines and is simulated with Iid (corpus programs)"
    (let p = lit "sb" in
     let t = Opt.Pass.apply Opt.Constprop.pass p in
     refines t p && sim_holds Sim.Invariant.iid t p);
  row "E15" "CSE refines and is simulated with Iid (fig5 pipeline)"
    (let p = lit "fig5_tgt" in
     let t = Opt.Pass.apply Opt.Cse.pass p in
     refines t p && sim_holds Sim.Invariant.iid t p);
  row "E16" "non-preemptive machine explores no more states (corpus)"
    (List.for_all
       (fun (t : Litmus.t) ->
         nodes Explore.Enum.Non_preemptive t.Litmus.prog
         <= nodes Explore.Enum.Interleaving t.Litmus.prog)
       Litmus.all);
  row "E17" "np semantics keeps promise-visible writes (lb still 1/1)"
    (let cfg = bench_config () in
     let o = Explore.Enum.behaviors_exn ~config:cfg Explore.Enum.Non_preemptive (lit "lb") in
     List.mem [ 1; 1 ]
       (Explore.Traceset.done_outs o.Explore.Enum.traces |> List.map sorted));
  (* Extras beyond the paper's figures: classic shapes + the witness
     reconstruction of Sec. 2.1's annotated executions. *)
  row "X1" "spinlock: mutual exclusion (reads 0 then 1; 0/0 forbidden)"
    (observable (lit "spinlock") [ 0; 1 ]
    && not (observable (lit "spinlock") [ 0; 0 ]));
  row "X2" "spinlock counter is ww-race-free under lock synchronization"
    (ww_free (lit "spinlock"));
  row "X3" "IRIW rel/acq: the split outcome 10/10 is observable in PS"
    (observable (lit "iriw") [ 10; 10 ]);
  row "X4" "WRC: release/acquire chains are cumulative (0 forbidden)"
    (not (observable (lit "wrc") [ 0 ]));
  row "X5" "fence MP: rel fence + rlx write synchronizes (0 forbidden)"
    (not (observable (lit "mp_fences") [ 0 ]));
  row "X6" "witness: LB's annotated execution contains a promise step"
    (match
       Explore.Witness.find ~config:(bench_config ()) ~outs:[ 1; 1 ] (lit "lb")
     with
    | Some w ->
        List.exists
          (fun (s : Explore.Witness.step) ->
            s.Explore.Witness.event = Ps.Event.Prm)
          w
    | None -> false);
  row "X7" "witness: oota outcome refuted bounded-exhaustively"
    (Explore.Witness.forbidden ~config:(bench_config ()) ~outs:[ 1; 1 ]
       (lit "lb_oota"));
  row "X11" "read-own-write coherence: the writer cannot read back 0"
    (not (observable (lit "corw") [ 0 ]));
  row "X12" "control-dependent LB: guarded write cannot be promised (oota)"
    (not (observable (lit "lb_ctrl_dep") [ 1; 1 ]));
  row "X13" "inverted guard: the promise certifies, 0/1 observable, 1/1 not"
    (observable (lit "lb_ctrl_indep") [ 0; 1 ]
    && not (observable (lit "lb_ctrl_indep") [ 1; 1 ]));
  row "X9" "release sequence: rlx write after rel write synchronizes"
    (not (observable (lit "release_seq") [ 0 ]));
  row "X10" "release sequence extends through a relaxed RMW"
    (not (observable (lit "release_seq_rmw") [ 0 ]));
  row "X8" "Verif pipeline (Fig. 6) verifies dce/cse/licm on their examples"
    (List.for_all
       (fun (pass, prog) ->
         Sim.Verif.check
           ~explore_config:(bench_config ())
           (Option.get (Sim.Verif.find pass))
           (lit prog)
         = Sim.Verif.Verified)
       [ ("dce", "fig16_src"); ("cse", "fig5_tgt"); ("licm", "fig1_foo_rlx") ]);
  Format.printf "@."

let state_space_table () =
  Format.printf "== E16 series: states explored, interleaving vs non-preemptive ==@.";
  Format.printf "%-18s %12s %12s %9s@." "litmus" "interleaving"
    "non-preempt" "ratio";
  List.iter
    (fun (t : Litmus.t) ->
      let il = nodes Explore.Enum.Interleaving t.Litmus.prog in
      let np = nodes Explore.Enum.Non_preemptive t.Litmus.prog in
      Format.printf "%-18s %12d %12d %8.2fx@." t.Litmus.name il np
        (float_of_int il /. float_of_int (max 1 np)))
    Litmus.all;
  Format.printf "@."

(* Fig. 1 loop-bound sweep: the claim is bound-independent; the series
   shows the violation persists as the loop grows. *)
let fig1_sweep () =
  Format.printf "== E5 series: Fig. 1 violation across loop bounds ==@.";
  Format.printf "%-6s %-10s %-10s@." "bound" "acq" "rlx";
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
  List.iter
    (fun bound ->
      let verdict flag =
        if
          violates
            (make ~bound ~flag_mode:flag ~hoisted:true)
            (make ~bound ~flag_mode:flag ~hoisted:false)
        then "violates"
        else "refines"
      in
      Format.printf "%-6d %-10s %-10s@." bound
        (verdict Lang.Modes.Acq) (verdict Lang.Modes.Rlx))
    [ 1; 2; 3 ];
  Format.printf "(expected: acq violates at every bound, rlx always refines)@.@."

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

   The behaviour sets must be identical with the cache on and off —
   the cache only skips re-deriving results that are pure functions of
   the (thread-state, memory) configuration; CI runs this equivalence
   check via [--check]. *)
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

let cert_cache_table ~timings =
  Format.printf
    "== ablation: certification cache on certification-bound workloads ==@.";
  if timings then
    Format.printf "%-22s %9s %12s %12s %9s@." "workload" "nodes"
      "cached n/s" "uncached n/s" "speedup";
  let time f =
    let t0 = Sys.time () in
    let r = f () in
    (r, Sys.time () -. t0)
  in
  let geo = ref 1.0 and count = ref 0 in
  List.iter
    (fun (pad, noise) ->
      let name = Printf.sprintf "cert_heavy %d/%d" pad noise in
      let prog = cert_heavy ~pad ~noise in
      let run cache =
        let config = { (bench_config ()) with Explore.Config.cert_cache = cache } in
        time (fun () ->
            Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving prog)
      in
      let cached, t_on = run true in
      let uncached, t_off = run false in
      if
        not
          (Explore.Traceset.equal cached.Explore.Enum.traces
             uncached.Explore.Enum.traces)
      then (
        Format.printf "%-22s traceset MISMATCH between ablations@." name;
        incr failed)
      else begin
        incr passed;
        if timings then begin
          let n =
            float_of_int
              cached.Explore.Enum.stats.Explore.Stats.nodes
          in
          let speedup = t_off /. t_on in
          geo := !geo *. speedup;
          incr count;
          Format.printf "%-22s %9.0f %12.0f %12.0f %8.2fx@." name n
            (n /. t_on) (n /. t_off) speedup
        end
        else
          Format.printf "%-22s tracesets identical across ablation  ok@." name
      end)
    [ (60, 16); (80, 20); (100, 24) ];
  if timings then begin
    let g = !geo ** (1.0 /. float_of_int (max 1 !count)) in
    Format.printf "geometric-mean speedup: %.2fx@." g
  end;
  Format.printf "@."

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

   Three invariants count toward [--check]:
   - behaviour equality: reduced and unreduced explorations must agree
     on [Traceset.equal_behaviour] and completeness, over these rows
     AND the whole litmus corpus;
   - the reduction gate: the headline rows (cert_heavy 100/24,
     iriw_sym) must shrink the node count by >= 10x, the supporting
     rows by their listed floors — this is the PR-facing perf claim;
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

let json_reduction :
    (string * int * int * float * int * int * int * bool * bool * float * bool)
    list
    ref =
  ref []

let json_reduction_gate : (bool * bool) option ref = ref None

let reduction_table ~timings () =
  Format.printf
    "== ablation: state-space reduction (por + symmetry) on vs off ==@.";
  if timings then
    Format.printf "%-22s %10s %10s %8s %7s %7s %7s@." "workload" "unreduced"
      "reduced" "factor" "sleep" "pers" "symfold";
  let rows =
    [
      ("cert_heavy 60/16", cert_heavy ~pad:60 ~noise:16, seq_config (), 5.0);
      ("cert_heavy 100/24", cert_heavy ~pad:100 ~noise:24, seq_config (), 10.0);
      ("iriw_sym 2r", iriw_sym, seq_config (), 10.0);
      ( "sym_writers 3",
        sym_writers 3,
        { (seq_config ()) with Explore.Config.max_promises = 0 },
        3.0 );
    ]
  in
  let gate_ok = ref true in
  List.iter
    (fun (name, prog, config, floor) ->
      let base =
        Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving prog
      in
      let red =
        Explore.Enum.behaviors_exn
          ~config:
            { config with Explore.Config.reduction = Explore.Config.full_reduction }
          Explore.Enum.Interleaving prog
      in
      let rs = red.Explore.Enum.stats in
      let nb = base.Explore.Enum.stats.Explore.Stats.nodes in
      let nr = rs.Explore.Stats.nodes in
      let sleep = rs.Explore.Stats.sleep_prunes in
      let pers = rs.Explore.Stats.persistent_prunes in
      let folds = rs.Explore.Stats.symmetry_folds in
      let equal =
        Explore.Traceset.equal_behaviour base.Explore.Enum.traces
          red.Explore.Enum.traces
        && base.Explore.Enum.completeness = red.Explore.Enum.completeness
      in
      let counters_ok = nb - nr >= sleep + folds in
      let factor = float_of_int nb /. float_of_int (max 1 nr) in
      let row_ok = factor >= floor in
      if equal && counters_ok then incr passed
      else begin
        incr failed;
        Format.printf "%-22s reduction MISMATCH (equal %b, counters %b)@."
          name equal counters_ok
      end;
      if not row_ok then begin
        gate_ok := false;
        Format.printf "%-22s reduction gate FAIL: %.2fx < %.2fx@." name factor
          floor
      end;
      json_reduction :=
        (name, nb, nr, factor, sleep, pers, folds, equal, counters_ok, floor,
         row_ok)
        :: !json_reduction;
      if timings then
        Format.printf "%-22s %10d %10d %7.2fx %7d %7d %7d (floor %.1f %s)@."
          name nb nr factor sleep pers folds floor
          (if row_ok then "ok" else "FAIL")
      else
        Format.printf
          "%-22s %.2fx fewer nodes, behaviours identical  %s@." name factor
          (if equal && counters_ok && row_ok then "ok" else "FAIL"))
    rows;
  (* the whole litmus corpus must be behaviour-invariant under full
     reduction (completeness included) *)
  let corpus_ok =
    List.for_all
      (fun (t : Litmus.t) ->
        let config = bench_config () in
        let base =
          Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving
            t.Litmus.prog
        in
        let red =
          Explore.Enum.behaviors_exn
            ~config:
              {
                config with
                Explore.Config.reduction = Explore.Config.full_reduction;
              }
            Explore.Enum.Interleaving t.Litmus.prog
        in
        Explore.Traceset.equal_behaviour base.Explore.Enum.traces
          red.Explore.Enum.traces
        && base.Explore.Enum.completeness = red.Explore.Enum.completeness)
      Litmus.all
  in
  if corpus_ok then begin
    incr passed;
    Format.printf "litmus corpus: reduced ≡ unreduced behaviours  ok@."
  end
  else begin
    incr failed;
    Format.printf "litmus corpus: reduced behaviours MISMATCH@."
  end;
  if !gate_ok then begin
    incr passed;
    Format.printf "reduction gate: node-count floors met on every row  ok@."
  end
  else begin
    incr failed;
    Format.printf "reduction gate: FAIL@."
  end;
  json_reduction_gate := Some (!gate_ok, corpus_ok);
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Trace ablation: node throughput of the same certification-bound
   exploration with span tracing off (the default) vs on.  The checked
   invariant is twofold: tracesets must be identical (tracing is pure
   observation), and the traced run must actually record spans.  The
   throughput ratio is the headline number for docs/OBSERVABILITY.md's
   "~zero cost disabled" claim — [--check] verifies only the
   equivalences, CI being too noisy for a timing assert. *)

let json_trace_ablation :
    (string * float * float * float * int * bool) option ref =
  ref None

let trace_ablation_table ~timings () =
  Format.printf "== ablation: span tracing off vs on ==@.";
  let name = "cert_heavy 60/16" in
  let prog = cert_heavy ~pad:60 ~noise:16 in
  let config = bench_config () in
  let run () =
    let t0 = Unix.gettimeofday () in
    let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving prog in
    (o, Unix.gettimeofday () -. t0)
  in
  (* warm-up: fault the code paths and the cert cache's allocator out
     of the measurement (both runs below start from the same state —
     the per-run caches live inside [behaviors_exn]). *)
  ignore (run ());
  let untraced, t_off = run () in
  Obs.Trace.start ();
  let traced, t_on = run () in
  Obs.Trace.stop ();
  let n_spans = List.length (Obs.Trace.events ()) in
  let equal =
    Explore.Traceset.equal untraced.Explore.Enum.traces
      traced.Explore.Enum.traces
  in
  if equal && n_spans > 0 then begin
    incr passed;
    if not timings then
      Format.printf
        "%-22s tracesets identical, %d spans recorded  ok@." name n_spans
  end
  else begin
    incr failed;
    Format.printf "%-22s trace ablation MISMATCH (equal %b, spans %d)@." name
      equal n_spans
  end;
  let nodes =
    float_of_int untraced.Explore.Enum.stats.Explore.Stats.nodes
  in
  let off_rate = nodes /. Float.max 1e-9 t_off in
  let on_rate = nodes /. Float.max 1e-9 t_on in
  let overhead = (t_on -. t_off) /. Float.max 1e-9 t_off *. 100. in
  json_trace_ablation :=
    Some (name, off_rate, on_rate, overhead, n_spans, equal);
  if timings then begin
    Format.printf "%-22s %9s %14s %14s %9s %7s@." "workload" "nodes"
      "untraced n/s" "traced n/s" "overhead" "spans";
    Format.printf "%-22s %9.0f %14.0f %14.0f %8.1f%% %7d@." name nodes
      off_rate on_rate overhead n_spans
  end;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Truncation pressure: the resource-budget counters under tight
   budgets, so perf PRs can see at a glance how much of a search each
   budget is eating.  The completeness column is also a checked
   invariant (pass/fail): a tight budget must report Truncated and the
   default config must stay Exhaustive. *)

let truncation_pressure_table () =
  Format.printf "== truncation pressure under tight budgets ==@.";
  Format.printf "%-24s %8s %6s %9s %9s %7s %7s  %s@." "config" "nodes" "cuts"
    "deadline" "node_bgt" "oom" "faults" "completeness";
  let prog = lit "spinlock" in
  let row name config ~expect_truncated =
    let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving prog in
    let st = o.Explore.Enum.stats in
    Format.printf "%-24s %8d %6d %9d %9d %7d %7d  %a@." name
      st.Explore.Stats.nodes st.Explore.Stats.cuts
      st.Explore.Stats.deadline_hits st.Explore.Stats.node_budget_hits
      st.Explore.Stats.oom_hits st.Explore.Stats.faults_injected
      Explore.Enum.pp_completeness o.Explore.Enum.completeness;
    let truncated = o.Explore.Enum.completeness <> Explore.Enum.Exhaustive in
    if truncated = expect_truncated then incr passed
    else begin
      Format.printf "%-24s completeness MISMATCH@." name;
      incr failed
    end
  in
  let dflt = bench_config () in
  row "default" dflt ~expect_truncated:false;
  row "max_steps=12"
    { dflt with Explore.Config.max_steps = 12 }
    ~expect_truncated:true;
  row "max_nodes=50"
    { dflt with Explore.Config.max_nodes = Some 50 }
    ~expect_truncated:true;
  row "deadline_ms=0"
    { dflt with Explore.Config.deadline_ms = Some 0; max_steps = 100_000 }
    ~expect_truncated:true;
  row "fault seed=42 rate=5%"
    {
      dflt with
      Explore.Config.fault =
        Some { Explore.Config.fault_seed = 42; fault_rate = 0.05 };
    }
    ~expect_truncated:true;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Domain-parallel scaling: the certification-bound workloads (where
   the shared cert cache lets extra domains pay off) plus two wide
   litmus shapes, explored at j=1/2/4 under the shipped scheduling
   policy (requested width clamped to the cores — oversubscription off
   regardless of $PSOPT_J, because this table measures what a user
   gets).  Each timing is the min of two reps to shave scheduler
   noise.

   Two invariants are checked (they count toward [--check]):

   - determinism: identical tracesets and completeness at every width;
   - the scaling gate, hardware-aware because a 4-wide speedup is
     physically unattainable on fewer than 4 cores:
       * "full" mode (>= 4 cores): speedup_j4 >= 2.0 on the
         cert-heavy workloads and >= 1.0 on every workload — parallel
         exploration must pay, never cost;
       * "clamped" mode (< 4 cores): speedup_j4 >= 0.9 on every
         workload — the width request is clamped to the hardware, so
         asking for more domains than cores must be a no-op, not the
         2–10x slowdown this gate was added to catch. *)

type gate_mode = Full | Clamped

let gate_mode () =
  if Explore.Pool.recommended () >= 4 then Full else Clamped

let gate_thresholds = function
  | Full -> (2.0, 1.0)  (* cert-heavy floor, all-workloads floor *)
  | Clamped -> (0.9, 0.9)

let json_gate : (string * int * float * float * bool) option ref = ref None

let scaling_table ~timings () =
  Format.printf "== scaling: domain-parallel exploration at j=1/2/4 ==@.";
  if timings then
    Format.printf "%-22s %10s %10s %10s %8s@." "workload" "t(j=1)" "t(j=2)"
      "t(j=4)" "x(j=4)";
  let workloads =
    [
      ("cert_heavy 80/20", cert_heavy ~pad:80 ~noise:20);
      ("cert_heavy 100/24", cert_heavy ~pad:100 ~noise:24);
      ("iriw", lit "iriw");
      ("spinlock", lit "spinlock");
    ]
  in
  let mode = gate_mode () in
  let cert_floor, all_floor = gate_thresholds mode in
  let gate_ok = ref true in
  List.iter
    (fun (name, prog) ->
      let run_once j =
        let config =
          {
            Explore.Config.default with
            Explore.Config.domains = j;
            oversubscribe = false;
          }
        in
        (* the ablation tables before this one leave a large, fragmented
           major heap behind (million-node memo tables); without a
           compaction the later reps of a row pay unrelated GC debt and
           the clamped-mode floor flakes on identical work *)
        Gc.compact ();
        let t0 = Unix.gettimeofday () in
        let o =
          Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving prog
        in
        (o, Unix.gettimeofday () -. t0)
      in
      (* min of two reps; the determinism check covers every rep *)
      let run j =
        let oa, ta = run_once j in
        let ob, tb = run_once j in
        (oa, ob, Float.min ta tb)
      in
      let o1, o1b, t1 = run 1 in
      let o2, o2b, t2 = run 2 in
      let o4, o4b, t4 = run 4 in
      let same (o : Explore.Enum.outcome) =
        Explore.Traceset.equal o1.Explore.Enum.traces o.Explore.Enum.traces
        && o1.Explore.Enum.completeness = o.Explore.Enum.completeness
      in
      let ok = List.for_all same [ o1b; o2; o2b; o4; o4b ] in
      if ok then incr passed
      else begin
        Format.printf "%-22s parallel/sequential MISMATCH@." name;
        incr failed
      end;
      let s4 = t1 /. Float.max 1e-9 t4 in
      let is_cert_heavy =
        String.length name >= 10 && String.sub name 0 10 = "cert_heavy"
      in
      let floor =
        match mode with
        | Full when is_cert_heavy -> cert_floor
        | Full | Clamped -> all_floor
      in
      let row_gate_ok = s4 >= floor in
      if not row_gate_ok then begin
        gate_ok := false;
        Format.printf
          "%-22s scaling gate FAIL: speedup_j4 %.2f < %.2f (%s mode)@." name
          s4 floor
          (match mode with Full -> "full" | Clamped -> "clamped")
      end;
      json_scaling :=
        (name, t1, t2, t4, ok, floor, row_gate_ok) :: !json_scaling;
      if timings then
        Format.printf "%-22s %9.3fs %9.3fs %9.3fs %7.2fx (floor %.2f %s)@."
          name t1 t2 t4 s4 floor
          (if row_gate_ok then "ok" else "FAIL")
      else if ok then
        Format.printf
          "%-22s identical traces+completeness at j=1/2/4  ok (gate floor \
           %.2f %s)@."
          name floor
          (if row_gate_ok then "ok" else "FAIL"))
    workloads;
  let mode_s = match mode with Full -> "full" | Clamped -> "clamped" in
  json_gate :=
    Some (mode_s, Explore.Pool.recommended (), cert_floor, all_floor, !gate_ok);
  if !gate_ok then begin
    incr passed;
    Format.printf
      "scaling gate (%s mode, %d cores): speedups within thresholds  ok@."
      mode_s
      (Explore.Pool.recommended ())
  end
  else begin
    incr failed;
    Format.printf "scaling gate (%s mode): FAIL@." mode_s
  end;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Verification service: the content-addressed result store's cold vs
   warm cost over the litmus corpus (docs/SERVICE.md), through the
   same [Server.serve_work] path the daemon uses.  The checked
   invariant — also under [--check] — is the cache contract: a cold
   pass misses everywhere, a warm pass hits on every request, and the
   two return byte-identical reports and exit codes.  The timings show
   what the store buys a repeated batch. *)

let json_service : (float * float * int * int) option ref = ref None

let service_store_table ~timings () =
  Format.printf "== service store: cold vs warm over the litmus corpus ==@.";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psopt-bench-store-%d" (Unix.getpid ()))
  in
  let store = Service.Store.open_ dir in
  let stats = Explore.Stats.Service.create () in
  let config = bench_config () in
  let pass () =
    let t0 = Unix.gettimeofday () in
    let replies =
      List.map
        (fun (t : Litmus.t) ->
          match
            Service.Server.serve_work ~store ~stats
              (Service.Proto.Litmus t.Litmus.name)
              config
          with
          | Service.Proto.Reply r -> r
          | _ -> failwith ("service refused litmus " ^ t.Litmus.name))
        Litmus.all
    in
    (replies, Unix.gettimeofday () -. t0)
  in
  let cold, t_cold = pass () in
  let warm, t_warm = pass () in
  let total = List.length warm in
  let hits =
    List.length (List.filter (fun r -> r.Service.Proto.cached) warm)
  in
  let cold_misses =
    List.for_all (fun r -> not r.Service.Proto.cached) cold
  in
  let identical =
    List.for_all2
      (fun (a : Service.Proto.reply) (b : Service.Proto.reply) ->
        a.Service.Proto.output = b.Service.Proto.output
        && a.Service.Proto.exit_code = b.Service.Proto.exit_code)
      cold warm
  in
  if cold_misses && hits = total && identical then begin
    incr passed;
    Format.printf
      "%d programs: cold all misses, warm %d/%d hits, replies identical  ok@."
      total hits total
  end
  else begin
    incr failed;
    Format.printf
      "service store MISMATCH (cold misses %b, warm hits %d/%d, identical %b)@."
      cold_misses hits total identical
  end;
  json_service := Some (t_cold, t_warm, hits, total);
  if timings then
    Format.printf "cold %.3fs   warm %.3fs   speedup %.1fx@." t_cold t_warm
      (t_cold /. Float.max 1e-9 t_warm);
  (try
     Array.iter
       (fun shard ->
         let sd = Filename.concat dir shard in
         if Sys.is_directory sd then begin
           Array.iter
             (fun f -> Sys.remove (Filename.concat sd f))
             (Sys.readdir sd);
           Unix.rmdir sd
         end)
       (Sys.readdir dir);
     Unix.rmdir dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* Replay debugger (docs/REPLAY.md): record a switch-heavy execution
   into a temp store, reload it, and sweep every position.  Checked
   invariants: the reconstructed state equals the recorder's at every
   step, no single jump replays >= K steps (the keyframe cost model),
   and ddmin strictly reduces the switch count while preserving the
   output sequence.  Timings (record / load / full backward sweep)
   print outside [--check]. *)

let json_replay : (int * int * int * int * int * bool) option ref = ref None

let replay_table ~timings () =
  Format.printf "== replay: record, O(K) navigation, shrink ==@.";
  let config = bench_config () in
  let prog = lit "lb" in
  let kf = 4 in
  let path = Filename.temp_file "psopt-bench-replay" ".trace" in
  let outs = [ 1; 1 ] in
  let t0 = Unix.gettimeofday () in
  let steps =
    match
      Replay.Record.record_witness ~config ~eager_switch:true ~outs ~path prog
    with
    | Ok n -> n
    | Error m -> failwith ("bench replay: record: " ^ m)
  in
  let t_record = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let session =
    match Replay.Store.open_ path with
    | Error e -> failwith (Replay.Store.error_to_string e)
    | Ok r ->
        let s = Replay.Session.load ~keyframe_every:kf r in
        Replay.Store.close_reader r;
        (match s with
        | Ok s -> s
        | Error e -> failwith (Replay.Store.error_to_string e))
  in
  let t_load = Unix.gettimeofday () -. t0 in
  (* reference states straight from the stepper *)
  let states =
    match
      Explore.Witness.find_trail ~config ~eager_switch:true ~outs prog
    with
    | Some (st0, trail) ->
        Array.of_list (Explore.Stepper.trail_states st0 trail)
    | None -> failwith "bench replay: witness vanished"
  in
  let max_jump_cost = ref 0 in
  let equal_everywhere = ref true in
  ignore (Replay.Session.jump session steps);
  let t0 = Unix.gettimeofday () in
  for n = steps - 1 downto 0 do
    let before = Replay.Session.replayed_steps session in
    ignore (Replay.Session.jump session n);
    max_jump_cost :=
      max !max_jump_cost (Replay.Session.replayed_steps session - before);
    if
      not
        (Explore.Stepper.equal_state states.(n)
           (Replay.Session.state session))
    then equal_everywhere := false
  done;
  let t_sweep = Unix.gettimeofday () -. t0 in
  let w =
    List.filter_map
      (fun n ->
        match Replay.Session.record_at session n with
        | Some r -> (
            match r.Replay.Trace.event with
            | Some e ->
                Some { Explore.Witness.tid = r.Replay.Trace.tid; event = e }
            | None -> None)
        | None -> None)
      (List.init steps Fun.id)
  in
  let sw_before, sw_after =
    match Replay.Shrink.schedule ~config prog w with
    | Ok res ->
        (res.Replay.Shrink.switches_before, res.Replay.Shrink.switches_after)
    | Error m -> failwith ("bench replay: shrink: " ^ m)
  in
  (try Sys.remove path with Sys_error _ -> ());
  (try Sys.remove (path ^ ".idx") with Sys_error _ -> ());
  let ok = !equal_everywhere && !max_jump_cost < kf && sw_after < sw_before in
  if ok then begin
    incr passed;
    if not timings then
      Format.printf
        "lb eager %d steps: states exact, max jump %d < K=%d, switches %d \
         -> %d  ok@."
        steps !max_jump_cost kf sw_before sw_after
  end
  else begin
    incr failed;
    Format.printf
      "lb eager replay FAILED (equal %b, max jump %d, K %d, switches %d -> \
       %d)@."
      !equal_everywhere !max_jump_cost kf sw_before sw_after
  end;
  json_replay := Some (steps, kf, !max_jump_cost, sw_before, sw_after, ok);
  if timings then
    Format.printf
      "lb eager: %d steps  record %.1fms  load %.1fms  backward sweep \
       %.2fms  max jump %d  switches %d -> %d@."
      steps (t_record *. 1e3) (t_load *. 1e3) (t_sweep *. 1e3) !max_jump_cost
      sw_before sw_after;
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* ------------------------------------------------------------------ *)
(* Fleet load generation (docs/SERVICE.md "Load generation
   methodology"): a real in-process daemon on a temp socket, driven
   over the wire by the loadgen — a closed-loop client sweep plus one
   open-loop offered rate.  The mix is 100% prewarmed litmus corpus,
   so every measured request is a warm store hit and the quantiles are
   a property of the service path, not of exploration variance.

   Checked gates (also under [--check]): zero transport errors on
   every row; the warm p99 stays under a generous ceiling; and
   throughput is monotone up to the knee — growing the closed-loop
   fleet must never cost more than the tolerance factor, since warm
   hits bypass the admission queue entirely. *)

let loadgen_p99_ceiling_ms = 500.0
let loadgen_monotone_tolerance = 0.6

let json_loadgen :
    (string
    * int
    * float
    * float
    * float
    * float
    * float
    * int
    * int
    * int
    * int
    * int
    * bool)
    list
    ref =
  ref []

let json_loadgen_gate : bool option ref = ref None

let json_loadgen_sat : ((float * bool) list * float option) option ref =
  ref None

let loadgen_table ~timings () =
  Format.printf "== loadgen: closed-loop sweep + one open-loop rate ==@.";
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psopt-bench-lg-%d.sock" (Unix.getpid ()))
  in
  let store_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psopt-bench-lg-store-%d" (Unix.getpid ()))
  in
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
              store_dir = Some store_dir;
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
  let gate_ok = ref true in
  let run_row label cfg =
    match Service.Loadgen.run cfg with
    | Error e ->
        incr failed;
        gate_ok := false;
        Format.printf "loadgen %s: FAIL (%s)@." label e
    | Ok r ->
        let q = r.Service.Loadgen.all.Service.Loadgen.latency in
        let p50_ms =
          float_of_int q.Service.Loadgen.Quantiles.p50_ns /. 1e6
        in
        let p99_ms =
          float_of_int q.Service.Loadgen.Quantiles.p99_ns /. 1e6
        in
        let p999_ms =
          float_of_int q.Service.Loadgen.Quantiles.p999_ns /. 1e6
        in
        let rate_hz =
          match cfg.Service.Loadgen.mode with
          | Service.Loadgen.Closed -> 0.0
          | Service.Loadgen.Open { rate_hz; _ } -> rate_hz
        in
        let row_ok =
          r.Service.Loadgen.transport_errors = 0
          && p99_ms <= loadgen_p99_ceiling_ms
          && r.Service.Loadgen.all.Service.Loadgen.sent
             = r.Service.Loadgen.all.Service.Loadgen.ok
               + r.Service.Loadgen.all.Service.Loadgen.shed
               + r.Service.Loadgen.all.Service.Loadgen.busy
               + r.Service.Loadgen.all.Service.Loadgen.errors
        in
        if row_ok then incr passed
        else begin
          incr failed;
          gate_ok := false
        end;
        if timings then
          Format.printf
            "%-12s %3d clients  %8.1f req/s  p50 %6.2fms  p99 %6.2fms  \
             transport errors %d  %s@."
            label cfg.Service.Loadgen.clients
            r.Service.Loadgen.throughput_rps p50_ms p99_ms
            r.Service.Loadgen.transport_errors
            (if row_ok then "ok" else "FAIL")
        else
          Format.printf "loadgen %s: %s@." label
            (if row_ok then "ok" else "FAIL");
        json_loadgen :=
          ( label,
            cfg.Service.Loadgen.clients,
            rate_hz,
            r.Service.Loadgen.throughput_rps,
            p50_ms,
            p99_ms,
            p999_ms,
            r.Service.Loadgen.all.Service.Loadgen.sent,
            r.Service.Loadgen.all.Service.Loadgen.shed
            + r.Service.Loadgen.all.Service.Loadgen.busy,
            r.Service.Loadgen.retries,
            r.Service.Loadgen.all.Service.Loadgen.errors,
            r.Service.Loadgen.transport_errors,
            row_ok )
          :: !json_loadgen
  in
  run_row "closed_j2" { base with clients = 2 };
  run_row "closed_j4" { base with clients = 4; prewarm = false };
  run_row "closed_j8" { base with clients = 8; prewarm = false };
  run_row "open_300hz"
    {
      base with
      clients = 8;
      prewarm = false;
      mode =
        Service.Loadgen.Open
          { rate_hz = 300.0; arrivals = Service.Loadgen.Poisson };
    };
  (* stepped saturation search: open-loop at rising offered rates
     until the SLO breaks; the knee is the last passing rate.  The
     first step is far under this host's warm-hit capacity, so the
     knee must be at least that — checked as part of the gate. *)
  let sat_rates = [ 200.0; 2000.0 ] in
  let slo =
    {
      Service.Loadgen.slo_p99_ms = Some loadgen_p99_ceiling_ms;
      slo_shed_pct = Some 10.0;
    }
  in
  (match
     Service.Loadgen.saturation
       { base with clients = 8; prewarm = false }
       ~slo ~rates:sat_rates
   with
  | Error e ->
      incr failed;
      gate_ok := false;
      Format.printf "loadgen saturation: FAIL (%s)@." e
  | Ok sat ->
      let steps =
        List.map
          (fun (s : Service.Loadgen.sat_step) ->
            (s.Service.Loadgen.rate_hz, s.Service.Loadgen.passed))
          sat.Service.Loadgen.steps
      in
      json_loadgen_sat := Some (steps, sat.Service.Loadgen.knee_hz);
      let knee_ok =
        match sat.Service.Loadgen.knee_hz with
        | Some k -> k >= List.hd sat_rates
        | None -> false
      in
      if knee_ok then incr passed
      else begin
        incr failed;
        gate_ok := false
      end;
      Format.printf "loadgen saturation knee: %s (first offered rate %s)@."
        (match sat.Service.Loadgen.knee_hz with
        | Some k -> Printf.sprintf "%g req/s" k
        | None -> "below the first step")
        (if knee_ok then "sustained  ok" else "NOT sustained  FAIL"));
  (* monotone-to-the-knee: each closed-loop step must keep at least
     the tolerance factor of the previous step's throughput *)
  let closed_thr =
    List.filter_map
      (fun (label, _, _, thr, _, _, _, _, _, _, _, _, _) ->
        if String.length label >= 6 && String.sub label 0 6 = "closed" then
          Some thr
        else None)
      (List.rev !json_loadgen)
  in
  let rec monotone = function
    | a :: (b :: _ as rest) ->
        b >= loadgen_monotone_tolerance *. a && monotone rest
    | _ -> true
  in
  let mono_ok = monotone closed_thr in
  if mono_ok then incr passed
  else begin
    incr failed;
    gate_ok := false
  end;
  Format.printf "loadgen gate (zero transport errors, p99 <= %.0fms, \
                 throughput monotone within %.1fx): %s@."
    loadgen_p99_ceiling_ms loadgen_monotone_tolerance
    (if !gate_ok && mono_ok then "ok" else "FAIL");
  json_loadgen_gate := Some (!gate_ok && mono_ok);
  (match Service.Client.shutdown ~socket with
  | Ok () -> ()
  | Error e -> Format.printf "loadgen: shutdown failed: %s@." e);
  Thread.join server;
  (match !server_result with
  | Ok () -> ()
  | Error e -> Format.printf "loadgen: server exit: %s@." e);
  (try
     Array.iter
       (fun shard ->
         let sd = Filename.concat store_dir shard in
         if Sys.is_directory sd then begin
           Array.iter
             (fun f -> Sys.remove (Filename.concat sd f))
             (Sys.readdir sd);
           Unix.rmdir sd
         end)
       (Sys.readdir store_dir);
     Unix.rmdir store_dir
   with Sys_error _ | Unix.Unix_error _ -> ());
  Format.printf "@."

(* ------------------------------------------------------------------ *)
(* [--json FILE]: a stable, hand-rolled summary for CI artifacts. *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The histogram families the harness itself populates: certification
   runs and pool tasks during the exploration phases, store lookups
   and request service times during the service phase
   ([psopt_service_request_duration_ns] records inside
   [Server.serve_work], which the service table drives directly). *)
let json_histograms = [
  "psopt_explore_cert_run_duration_ns";
  "psopt_pool_task_duration_ns";
  "psopt_store_lookup_duration_ns";
  "psopt_service_request_duration_ns";
  "psopt_client_request_duration_ns";
]

let write_json file =
  let oc = open_out file in
  let pf fmt = Printf.fprintf oc fmt in
  pf "{\n";
  pf "  \"schema\": \"psopt-bench/6\",\n";
  pf "  \"schema_version\": 6,\n";
  pf "  \"config_fingerprint\": \"%s\",\n"
    (json_escape (Explore.Config.fingerprint (bench_config ())));
  pf "  \"jobs\": %d,\n" !bench_j;
  pf "  \"domains_recommended\": %d,\n" (Domain.recommended_domain_count ());
  pf "  \"domain_cap\": %d,\n" Explore.Pool.domain_cap;
  pf "  \"passed\": %d,\n" !passed;
  pf "  \"failed\": %d,\n" !failed;
  pf "  \"rows\": [\n";
  let rows = List.rev !json_rows in
  List.iteri
    (fun i (id, claim, ok) ->
      pf "    {\"id\": \"%s\", \"claim\": \"%s\", \"ok\": %b}%s\n"
        (json_escape id) (json_escape claim) ok
        (if i = List.length rows - 1 then "" else ","))
    rows;
  pf "  ],\n";
  pf "  \"scaling\": [\n";
  let sc = List.rev !json_scaling in
  List.iteri
    (fun i (name, t1, t2, t4, ok, floor, row_gate_ok) ->
      pf
        "    {\"workload\": \"%s\", \"t1_s\": %.6f, \"t2_s\": %.6f, \"t4_s\": \
         %.6f, \"speedup_j4\": %.3f, \"equivalent\": %b, \"gate_floor\": \
         %.2f, \"gate_ok\": %b}%s\n"
        (json_escape name) t1 t2 t4
        (t1 /. Float.max 1e-9 t4)
        ok floor row_gate_ok
        (if i = List.length sc - 1 then "" else ","))
    sc;
  pf "  ],\n";
  (match !json_gate with
  | Some (mode, cores, cert_floor, all_floor, ok) ->
      pf
        "  \"scaling_gate\": {\"mode\": \"%s\", \"cores\": %d, \
         \"cert_heavy_floor\": %.2f, \"all_floor\": %.2f, \"ok\": %b},\n"
        (json_escape mode) cores cert_floor all_floor ok
  | None -> pf "  \"scaling_gate\": null,\n");
  pf "  \"reduction\": [\n";
  let red = List.rev !json_reduction in
  List.iteri
    (fun i
         (name, nb, nr, factor, sleep, pers, folds, equal, counters_ok, floor,
          row_ok) ->
      pf
        "    {\"workload\": \"%s\", \"nodes_unreduced\": %d, \
         \"nodes_reduced\": %d, \"factor\": %.3f, \"sleep_prunes\": %d, \
         \"persistent_prunes\": %d, \"symmetry_folds\": %d, \"equivalent\": \
         %b, \"counters_ok\": %b, \"gate_floor\": %.2f, \"gate_ok\": %b}%s\n"
        (json_escape name) nb nr factor sleep pers folds equal counters_ok
        floor row_ok
        (if i = List.length red - 1 then "" else ","))
    red;
  pf "  ],\n";
  (match !json_reduction_gate with
  | Some (gate_ok, corpus_ok) ->
      pf
        "  \"reduction_gate\": {\"ok\": %b, \"corpus_equivalent\": %b},\n"
        gate_ok corpus_ok
  | None -> pf "  \"reduction_gate\": null,\n");
  (match !json_service with
  | Some (cold_s, warm_s, hits, programs) ->
      pf
        "  \"service\": {\"programs\": %d, \"cold_s\": %.6f, \"warm_s\": \
         %.6f, \"store_hits_warm\": %d},\n"
        programs cold_s warm_s hits
  | None -> pf "  \"service\": null,\n");
  (match !json_trace_ablation with
  | Some (name, off_rate, on_rate, overhead, spans, equal) ->
      pf
        "  \"trace_ablation\": {\"workload\": \"%s\", \"untraced_nodes_per_s\": \
         %.0f, \"traced_nodes_per_s\": %.0f, \"overhead_pct\": %.2f, \
         \"spans\": %d, \"equivalent\": %b},\n"
        (json_escape name) off_rate on_rate overhead spans equal
  | None -> pf "  \"trace_ablation\": null,\n");
  (match !json_replay with
  | Some (steps, kf, max_jump, sw_before, sw_after, ok) ->
      pf
        "  \"replay\": {\"steps\": %d, \"keyframe_every\": %d, \
         \"max_jump_cost\": %d, \"switches_before\": %d, \
         \"switches_after\": %d, \"ok\": %b},\n"
        steps kf max_jump sw_before sw_after ok
  | None -> pf "  \"replay\": null,\n");
  pf "  \"loadgen\": [\n";
  let lg = List.rev !json_loadgen in
  List.iteri
    (fun i
         (label, clients, rate_hz, thr, p50, p99, p999, sent, shed, retries,
          errors, terrs, ok) ->
      pf
        "    {\"row\": \"%s\", \"clients\": %d, \"rate_hz\": %g, \
         \"throughput_rps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, \
         \"p999_ms\": %.3f, \"sent\": %d, \"shed\": %d, \"retries\": %d, \
         \"errors\": %d, \"transport_errors\": %d, \"ok\": %b}%s\n"
        (json_escape label) clients rate_hz thr p50 p99 p999 sent shed
        retries errors terrs ok
        (if i = List.length lg - 1 then "" else ","))
    lg;
  pf "  ],\n";
  (match !json_loadgen_sat with
  | Some (steps, knee) ->
      pf "  \"loadgen_saturation\": {\"steps\": [%s], \"knee_hz\": %s},\n"
        (String.concat ", "
           (List.map
              (fun (rate, passed) ->
                Printf.sprintf "{\"rate_hz\": %g, \"passed\": %b}" rate passed)
              steps))
        (match knee with Some k -> Printf.sprintf "%g" k | None -> "null")
  | None -> pf "  \"loadgen_saturation\": null,\n");
  (match !json_loadgen_gate with
  | Some ok ->
      pf
        "  \"loadgen_gate\": {\"ok\": %b, \"p99_ceiling_ms\": %.0f, \
         \"monotone_tolerance\": %.2f},\n"
        ok loadgen_p99_ceiling_ms loadgen_monotone_tolerance
  | None -> pf "  \"loadgen_gate\": null,\n");
  pf "  \"histograms\": [\n";
  List.iteri
    (fun i name ->
      let s =
        match Obs.Metrics.find_histogram name with
        | Some h -> Obs.Metrics.summary h
        | None ->
            { Obs.Metrics.count = 0; sum_ns = 0; p50_ns = 0.; p90_ns = 0.;
              p99_ns = 0.; p999_ns = 0. }
      in
      pf
        "    {\"name\": \"%s\", \"count\": %d, \"sum_ns\": %d, \"p50_ns\": \
         %.0f, \"p90_ns\": %.0f, \"p99_ns\": %.0f, \"p999_ns\": %.0f}%s\n"
        (json_escape name) s.Obs.Metrics.count s.Obs.Metrics.sum_ns
        s.Obs.Metrics.p50_ns s.Obs.Metrics.p90_ns s.Obs.Metrics.p99_ns
        s.Obs.Metrics.p999_ns
        (if i = List.length json_histograms - 1 then "" else ","))
    json_histograms;
  pf "  ]\n";
  pf "}\n";
  close_out oc;
  Format.printf "json summary written to %s@." file

(* ------------------------------------------------------------------ *)
(* Synthetic workload generator for optimizer throughput *)

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

(* ------------------------------------------------------------------ *)
(* Phase 2: bechamel timings *)

let explore_bench ?config disc prog () =
  ignore (Explore.Enum.behaviors_exn ?config disc prog)

let tests =
  let t name f = Test.make ~name (Staged.stage f) in
  let lbp = lit "lb" in
  let cert_state =
    (* an LB-style thread with one pending promise, for certification
       cost measurements *)
    let code = lbp.Lang.Ast.code in
    let ts = Option.get (Ps.Thread.init code "t1") in
    let mem =
      Ps.Memory.init
        (Lang.Ast.VarSet.elements (Lang.Cfg.vars_of_program lbp))
    in
    let p =
      List.hd
        (Ps.Thread.promise_steps ~candidates:[ ("y", 1) ]
           ~atomics:lbp.Lang.Ast.atomics ts mem)
    in
    (code, p.Ps.Thread.ts, p.Ps.Thread.mem)
  in
  let code_c, ts_c, mem_c = cert_state in
  let big = synth_cfg ~blocks:120 in
  [
    (* per-experiment exploration cost *)
    t "e1_sb" (explore_bench Explore.Enum.Interleaving (lit "sb"));
    t "e2_lb" (explore_bench Explore.Enum.Interleaving lbp);
    t "e3_oota" (explore_bench Explore.Enum.Interleaving (lit "lb_oota"));
    t "e4_cas" (explore_bench Explore.Enum.Interleaving (lit "cas_exclusive"));
    t "e5_licm_acq" (fun () ->
        ignore (refines (lit "fig1_foo_opt") (lit "fig1_foo")));
    t "e6_reorder" (fun () ->
        ignore (refines (lit "reorder_tgt") (lit "reorder_src")));
    t "e7_ww_subtle" (fun () -> ignore (Race.ww_rf (lit "fig4")));
    t "e8_licm_pipeline" (fun () ->
        ignore (Opt.Pass.apply Opt.Licm.pass (lit "fig5_src")));
    t "e9_np_equiv" (fun () ->
        ignore (Explore.Refine.equivalent_disciplines (lit "sb")));
    t "e10_race_equiv" (fun () -> ignore (Race.ww_nprf (lit "ww_racy")));
    t "e11_sim_reorder" (fun () ->
        ignore
          (Sim.Simcheck.check_program ~inv:Sim.Invariant.iid
             ~target:(lit "reorder_tgt") ~source:(lit "reorder_src") ()));
    t "e12_dce_rel" (fun () ->
        ignore (violates (lit "fig15_bad_tgt") (lit "fig15_src")));
    t "e13_dce_sim" (fun () ->
        ignore
          (Sim.Simcheck.check_program ~inv:Sim.Invariant.idce
             ~target:(lit "fig16_tgt") ~source:(lit "fig16_src") ()));
    t "e14_constprop" (fun () ->
        ignore (Opt.Pass.apply Opt.Constprop.pass_fix big));
    t "e15_cse" (fun () -> ignore (Opt.Pass.apply Opt.Cse.pass_fix big));
    t "e16_states_il"
      (explore_bench Explore.Enum.Interleaving (lit "fig1_foo"));
    t "e16_states_np"
      (explore_bench Explore.Enum.Non_preemptive (lit "fig1_foo"));
    t "e17_np_lb" (explore_bench Explore.Enum.Non_preemptive lbp);
    (* ablations (DESIGN.md) *)
    t "abl_cert_capped" (fun () ->
        ignore (Ps.Cert.consistent ~code:code_c ts_c mem_c));
    t "abl_cert_uncapped" (fun () ->
        ignore (Ps.Cert.consistent ~cap:false ~code:code_c ts_c mem_c));
    t "abl_explore_memo"
      (explore_bench
         ~config:{ Explore.Config.default with memoize = true }
         Explore.Enum.Interleaving (lit "mp_rlx"));
    t "abl_explore_nomemo"
      (explore_bench
         ~config:{ Explore.Config.default with memoize = false }
         Explore.Enum.Interleaving (lit "mp_rlx"));
    t "abl_promise_semantic"
      (explore_bench
         ~config:{ Explore.Config.default with promise_mode = Explore.Config.Semantic }
         Explore.Enum.Interleaving lbp);
    t "abl_promise_syntactic"
      (explore_bench
         ~config:{ Explore.Config.default with promise_mode = Explore.Config.Syntactic }
         Explore.Enum.Interleaving lbp);
    t "abl_promise_none"
      (explore_bench ~config:Explore.Config.quick Explore.Enum.Interleaving lbp);
    t "abl_cert_cache_on"
      (explore_bench
         ~config:{ Explore.Config.default with cert_cache = true }
         Explore.Enum.Interleaving (cert_heavy ~pad:20 ~noise:8));
    t "abl_cert_cache_off"
      (explore_bench
         ~config:{ Explore.Config.default with cert_cache = false }
         Explore.Enum.Interleaving (cert_heavy ~pad:20 ~noise:8));
    (* optimizer throughput on the synthetic CFG *)
    t "opt_dce_120blocks" (fun () -> ignore (Opt.Pass.apply Opt.Dce.pass big));
    t "opt_licm_120blocks" (fun () -> ignore (Opt.Pass.apply Opt.Licm.pass big));
    t "opt_liveness_120blocks" (fun () ->
        ignore
          (Analysis.Liveness.analyze
             (Lang.Ast.FnameMap.find "t" big.Lang.Ast.code)));
    t "random_run_sb" (fun () ->
        ignore (Explore.Random_run.run_exn ~seed:7 (lit "sb")));
    (* extras *)
    t "x1_spinlock" (explore_bench Explore.Enum.Interleaving (lit "spinlock"));
    t "x3_iriw" (explore_bench Explore.Enum.Interleaving (lit "iriw"));
    t "x4_wrc" (explore_bench Explore.Enum.Interleaving (lit "wrc"));
    t "x6_witness_lb" (fun () ->
        ignore (Explore.Witness.find ~outs:[ 1; 1 ] lbp));
    t "x8_verif_dce" (fun () ->
        ignore
          (Sim.Verif.check
             (Option.get (Sim.Verif.find "dce"))
             (lit "fig16_src")));
  ]

let run_benchmarks () =
  Format.printf "== bechamel timings (ns/run, linear-regression estimate) ==@.";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let instances = [ Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| "run" |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let anl = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let est =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> Printf.sprintf "%12.0f" e
            | _ -> "           ?"
          in
          Format.printf "%-28s %s ns/run@." name est)
        anl)
    tests

let () =
  (* [--check]: reproduction rows, the cert-cache equivalence and the
     parallel-scaling equivalence only — the deterministic pass/fail
     half of the harness, suitable for CI.  Without it, the timing
     phases run too. *)
  parse_argv ();
  let check_only = !check_only in
  Format.printf "domains: j=%d (recommended %d, cap %d)@.@." !bench_j
    (Domain.recommended_domain_count ())
    Explore.Pool.domain_cap;
  reproduce ();
  cert_cache_table ~timings:(not check_only);
  reduction_table ~timings:(not check_only) ();
  trace_ablation_table ~timings:(not check_only) ();
  truncation_pressure_table ();
  scaling_table ~timings:(not check_only) ();
  service_store_table ~timings:(not check_only) ();
  replay_table ~timings:(not check_only) ();
  loadgen_table ~timings:(not check_only) ();
  if not check_only then begin
    state_space_table ();
    fig1_sweep ();
    run_benchmarks ()
  end;
  Format.printf "@.experiments: %d ok, %d failed@." !passed !failed;
  Option.iter write_json !json_file;
  if !failed > 0 then exit 1
