(* The non-preemptive machine's switch-bit rules (Fig. 10) and event
   classification, unit level. *)

open Ps.Event

let te_na_read = Rd (Lang.Modes.Na, "x", 0)
let te_na_write = Wr (Lang.Modes.WNa, "x", 1)
let te_rlx_read = Rd (Lang.Modes.Rlx, "x", 0)
let te_acq_read = Rd (Lang.Modes.Acq, "x", 0)
let te_rlx_write = Wr (Lang.Modes.WRlx, "x", 1)
let te_rel_write = Wr (Lang.Modes.WRel, "x", 1)
let te_upd = Upd (Lang.Modes.Rlx, Lang.Modes.WRlx, "x", 0, 1)

let test_classification () =
  let check te cls name =
    Alcotest.(check bool) name true (classify te = cls)
  in
  check Tau NA "tau is NA";
  check te_na_read NA "na read is NA";
  check te_na_write NA "na write is NA";
  check te_rlx_read AT "rlx read is AT";
  check te_acq_read AT "acq read is AT";
  check te_rlx_write AT "rlx write is AT";
  check te_rel_write AT "rel write is AT";
  check te_upd AT "update is AT";
  check (Out 3) AT "output is AT";
  check (Fnc Lang.Modes.FAcq) AT "fence is AT";
  check Prm PRC "promise is PRC";
  check Rsv PRC "reserve is PRC";
  check Ccl PRC "cancel is PRC"

let test_bit_rules () =
  let bit te before = Npsem.bit_after te ~before in
  (* NA steps turn the bit off, from either state *)
  Alcotest.(check (option bool)) "na from on" (Some false) (bit te_na_read true);
  Alcotest.(check (option bool)) "na from off" (Some false) (bit te_na_write false);
  Alcotest.(check (option bool)) "tau from on" (Some false) (bit Tau true);
  (* AT steps turn it on *)
  Alcotest.(check (option bool)) "at from off" (Some true) (bit te_rel_write false);
  Alcotest.(check (option bool)) "at from on" (Some true) (bit te_acq_read true);
  Alcotest.(check (option bool)) "out from off" (Some true) (bit (Out 1) false);
  (* promise/reserve need the bit on, keep it on *)
  Alcotest.(check (option bool)) "prm needs on" None (bit Prm false);
  Alcotest.(check (option bool)) "prm keeps on" (Some true) (bit Prm true);
  Alcotest.(check (option bool)) "rsv needs on" None (bit Rsv false);
  (* cancel allowed anywhere, preserves the bit *)
  Alcotest.(check (option bool)) "ccl off" (Some false) (bit Ccl false);
  Alcotest.(check (option bool)) "ccl on" (Some true) (bit Ccl true)

let test_init_and_switch () =
  match Npsem.init Litmus.sb.Litmus.prog with
  | Error e -> Alcotest.fail e
  | Ok t ->
      Alcotest.(check bool) "starts switchable" true (Npsem.may_switch t);
      let t' = { t with Npsem.switchable = false } in
      Alcotest.(check bool) "bit off blocks" false (Npsem.may_switch t');
      Alcotest.(check bool) "compare distinguishes the bit" true
        (Npsem.compare t t' <> 0);
      Alcotest.(check bool) "equal reflexive" true (Npsem.equal t t)

(* A thread ending in a block of non-atomic accesses: under the
   non-preemptive machine the block runs uninterrupted, but the
   behaviours still match the interleaving machine (the E17
   mechanisms: promises before the block + free read choices). *)
let test_na_block_uninterrupted_yet_equivalent () =
  let p = Litmus.fig16_src.Litmus.prog in
  Alcotest.(check bool) "equivalent" true
    (Explore.Refine.equivalent_disciplines p = Explore.Refine.Refines)

let () =
  Alcotest.run "npsem"
    [
      ( "rules",
        [
          Alcotest.test_case "classification" `Quick test_classification;
          Alcotest.test_case "switch-bit transitions" `Quick test_bit_rules;
          Alcotest.test_case "init/switch" `Quick test_init_and_switch;
          Alcotest.test_case "na block equivalence" `Quick
            test_na_block_uninterrupted_yet_equivalent;
        ] );
    ]
