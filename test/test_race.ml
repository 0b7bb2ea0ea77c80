(* Rank [n] on the canonical timestamp grid. *)
let t n = n * Ps.Time.grid

(* Write-write race freedom (Sec. 5, Fig. 11) and read-write race
   reporting (Sec. 2.5). *)

let is_free = function Ok Race.Free -> true | _ -> false
let is_racy = function Ok (Race.Racy _) -> true | _ -> false

let test_ww_racy_detected () =
  let v = Race.ww_rf Litmus.ww_racy.Litmus.prog in
  Alcotest.(check bool) "racy" true (is_racy v);
  match v with
  | Ok (Race.Racy r) ->
      Alcotest.(check string) "on x" "x" r.Race.var;
      Alcotest.(check bool) "kind ww" true (r.Race.kind = Race.WW)
  | _ -> Alcotest.fail "expected race"

let test_ww_sync_free () =
  Alcotest.(check bool) "release/acquire ordering removes the race" true
    (is_free (Race.ww_rf Litmus.ww_sync.Litmus.prog))

let test_fig4_subtlety () =
  (* The heart of Sec. 2.4: the branch where t1 would race on z is
     only reachable past an unfulfillable promise, i.e. never at a
     certified (committed) state. *)
  Alcotest.(check bool) "fig4 has no ww-race" true
    (is_free (Race.ww_rf Litmus.fig4.Litmus.prog))

let test_fig4_uncapped_ablation () =
  (* With certification against the plain memory (the ablation of
     Sec. 2.4), t1 can promise x := 1 and then read y = 1: the race
     state becomes reachable and the ww-race appears — certification
     at the capped memory is essential to Fig. 4. *)
  let cfg = { Explore.Config.default with cap_certification = false } in
  ignore cfg;
  (* NB: for fig4 the uncapped run is identical (no CAS involved); the
     point exercised here is that the verdict is stable across the
     flag, documenting that fig4's subtlety is about *when* races are
     checked, not about capping. *)
  Alcotest.(check bool) "fig4 free regardless of capping" true
    (is_free (Race.ww_rf ~config:cfg Litmus.fig4.Litmus.prog))

let test_corpus_ww_rf () =
  List.iter
    (fun (t : Litmus.t) ->
      let expect_free = t.Litmus.name <> "ww_racy" in
      Alcotest.(check bool)
        (t.Litmus.name ^ if expect_free then " ww-free" else " ww-racy")
        expect_free
        (is_free (Race.ww_rf t.Litmus.prog)))
    Litmus.all

let test_lemma51_corpus () =
  (* Lemma 5.1: ww-RF iff ww-NPRF. *)
  List.iter
    (fun (t : Litmus.t) ->
      let a = is_free (Race.ww_rf t.Litmus.prog) in
      let b = is_free (Race.ww_nprf t.Litmus.prog) in
      Alcotest.(check bool) (t.Litmus.name ^ " lemma 5.1") a b)
    Litmus.all

let test_rw_races () =
  (* fig5: the LInv target has an rw race on x, the source does not *)
  (match Race.rw_races Litmus.fig5_src.Litmus.prog with
  | Ok [] -> ()
  | Ok rs ->
      Alcotest.failf "unexpected rw race in fig5_src: %a" Race.pp_race
        (List.hd rs)
  | Error e -> Alcotest.fail e);
  match Race.rw_races Litmus.fig5_tgt.Litmus.prog with
  | Ok (r :: _) ->
      Alcotest.(check string) "rw race on x" "x" r.Race.var;
      Alcotest.(check bool) "kind rw" true (r.Race.kind = Race.RW)
  | Ok [] -> Alcotest.fail "expected an rw race in fig5_tgt"
  | Error e -> Alcotest.fail e

let test_rw_race_mp () =
  (* relaxed message passing races on the payload; release/acquire
     does not *)
  (match Race.rw_races Litmus.mp_rlx.Litmus.prog with
  | Ok (_ :: _) -> ()
  | Ok [] -> Alcotest.fail "mp_rlx should have an rw race on y"
  | Error e -> Alcotest.fail e);
  match Race.rw_races Litmus.mp_rel_acq.Litmus.prog with
  | Ok [] -> ()
  | Ok (r :: _) ->
      Alcotest.failf "mp_rel_acq should be rw-race-free, got %a" Race.pp_race r
  | Error e -> Alcotest.fail e

let test_race_at_state () =
  (* unit-level check of the Fig. 11 predicate *)
  match Ps.Machine.init Litmus.ww_racy.Litmus.prog with
  | Error e -> Alcotest.fail e
  | Ok w ->
      (* t1's next op is W(na, x, 1); initially nothing is unobserved
         (only the init message, to = 0 = view) *)
      Alcotest.(check bool) "no race at init" true (Race.race_at Race.WW w = None);
      (* put an unobserved concrete write in memory *)
      let mem =
        Ps.Memory.add_exn
          (Ps.Message.msg ~var:"x" ~value:9 ~from_:(t 1)
             ~to_:(t 2) ~view:Ps.View.bot)
          w.Ps.Machine.mem
      in
      let w' = { w with Ps.Machine.mem } in
      (match Race.race_at Race.WW w' with
      | Some r -> Alcotest.(check string) "race on x" "x" r.Race.var
      | None -> Alcotest.fail "expected a race at this state");
      (* a thread that has observed the message does not race *)
      let ts = Ps.Machine.cur_ts w' in
      let ts' =
        {
          ts with
          Ps.Thread.view = Ps.View.observe_write "x" (t 2) ts.Ps.Thread.view;
        }
      in
      let w'' = fst (Ps.Machine.install w' ts' mem) in
      (* the OTHER thread (t2) still has a stale view and its next op
         is also a na write to x -> still a race, but blamed on t2 *)
      (match Race.race_at Race.WW w'' with
      | Some r -> Alcotest.(check int) "blamed thread" 1 r.Race.tid
      | None -> Alcotest.fail "t2 should still race");
      (* a promise of the current thread is not "another thread's
         write": put the message into t1's promise set *)
      let msg = Option.get (Ps.Memory.find "x" (t 2) mem) in
      let ts_promised = { ts with Ps.Thread.prm = [ msg ] } in
      let w3 = fst (Ps.Machine.install w' ts_promised mem) in
      (match Race.race_at Race.WW w3 with
      | Some r ->
          (* t1's own promise cannot race with t1; any remaining race
             must be t2's *)
          Alcotest.(check int) "own promises excluded" 1 r.Race.tid
      | None -> Alcotest.fail "t2 should race")

(* ------------------------------------------------------------------ *)
(* One walk, several verdicts *)

let show = function
  | Ok v -> Format.asprintf "%a" Race.pp_verdict v
  | Error e -> "error: " ^ e

let show_races = List.map (Format.asprintf "%a" Race.pp_race)

let programs () =
  List.map (fun t -> (t.Litmus.name, t.Litmus.prog)) Litmus.all
  @ List.init 108 (fun seed ->
        (Printf.sprintf "seed %d" seed, Explore.Stress.generate ~seed))

(* An rw-only scan, the reference for the shared walk's rw list: every
   distinct (thread, location) rw race point, in visit order. *)
let rw_alone p =
  let acc = ref [] in
  match
    Explore.Enum.iter_reachable Explore.Enum.Interleaving p
      ~f:(fun ~committed w ->
        if committed then
          match Race.race_at Race.RW w with
          | Some r
            when not
                   (List.exists
                      (fun r' -> r'.Race.tid = r.Race.tid && r'.Race.var = r.Race.var)
                      !acc) ->
              acc := r :: !acc
          | _ -> ())
  with
  | Ok _ -> Ok (List.rev !acc)
  | Error e -> Error e

(* [check_all] walks the interleaving machine once for ww and rw; each
   verdict, witness included, must be the one its own scan gives. *)
let test_check_all_one_walk () =
  List.iter
    (fun (name, p) ->
      let rep = Race.check_all p in
      Alcotest.(check string) (name ^ " ww") (show (Race.ww_rf p)) (show rep.Race.ww);
      Alcotest.(check string)
        (name ^ " ww_np") (show (Race.ww_nprf p)) (show rep.Race.ww_np);
      match (rw_alone p, rep.Race.rw) with
      | Ok alone, Ok (fused, c) ->
          Alcotest.(check (list string))
            (name ^ " rw") (show_races alone) (show_races fused);
          Alcotest.(check bool) (name ^ " exhaustive") true
            (c = Explore.Enum.Exhaustive)
      | _ -> Alcotest.failf "%s: rw scan failed" name)
    (programs ())

(* The behaviour walk observing the ww predicate gives the scan's
   verdict and witness, and the unobserved walk's behaviour set. *)
let test_behaviors_ww_rf () =
  List.iter
    (fun (name, p) ->
      match Race.behaviors_ww_rf p with
      | Error e -> Alcotest.fail e
      | Ok (o, v) ->
          Alcotest.(check string) (name ^ " ww") (show (Race.ww_rf p)) (show (Ok v));
          let plain = Explore.Enum.behaviors_exn Explore.Enum.Interleaving p in
          Alcotest.(check bool)
            (name ^ " traces") true
            (Explore.Traceset.equal o.Explore.Enum.traces
               plain.Explore.Enum.traces))
    (programs ())

let example name =
  Lang.Wf.check_exn
    (Lang.Parse.program_of_file
       (List.fold_left Filename.concat ".." [ "examples"; "programs"; name ^ ".rtl" ]))

(* A truncated walk found no rw race: that is not "none".  The CLI
   and the daemon render the same bytes, and the exit code is still
   the ww verdicts' (inconclusive). *)
let test_rw_truncated () =
  let config = { Explore.Config.default with Explore.Config.max_steps = 6 } in
  let p = example "fig1" in
  let out, code = Service.Render.races (Race.check_all ~config p) in
  Alcotest.(check (list string))
    "rendered"
    [
      "ww-RF:   inconclusive: no race found, but the reachability walk was \
       truncated (step-budget)";
      "ww-NPRF: inconclusive: no race found, but the reachability walk was \
       truncated (step-budget)";
      "rw:      none found (walk truncated: step-budget)";
      "";
    ]
    (String.split_on_char '\n' out);
  Alcotest.(check int) "exit code" 2 code;
  (match Service.Server.run_work (Service.Proto.Races p) config with
  | Ok (out', code') ->
      Alcotest.(check string) "daemon bytes" out out';
      Alcotest.(check int) "daemon exit code" code code'
  | Error e -> Alcotest.fail e);
  (* races found over a truncated walk are real, but may not be all *)
  let out, _ =
    Service.Render.races (Race.check_all ~config (example "deadstore"))
  in
  match List.rev (String.split_on_char '\n' out) with
  | "" :: last :: _ ->
      Alcotest.(check string) "incomplete list flagged"
        "rw:      list incomplete (walk truncated: step-budget)" last
  | _ -> Alcotest.fail out

let () =
  Alcotest.run "race"
    [
      ( "ww",
        [
          Alcotest.test_case "detects the simple race" `Quick
            test_ww_racy_detected;
          Alcotest.test_case "sync removes it" `Quick test_ww_sync_free;
          Alcotest.test_case "Fig. 4 subtlety" `Quick test_fig4_subtlety;
          Alcotest.test_case "Fig. 4 capping ablation" `Quick
            test_fig4_uncapped_ablation;
          Alcotest.test_case "corpus verdicts" `Slow test_corpus_ww_rf;
          Alcotest.test_case "Lemma 5.1 on corpus" `Slow test_lemma51_corpus;
        ] );
      ( "rw",
        [
          Alcotest.test_case "fig5 LInv race" `Quick test_rw_races;
          Alcotest.test_case "message passing" `Quick test_rw_race_mp;
        ] );
      ("predicate", [ Alcotest.test_case "race_at" `Quick test_race_at_state ]);
      ( "one walk",
        [
          Alcotest.test_case "check_all = separate scans" `Slow
            test_check_all_one_walk;
          Alcotest.test_case "observed behaviour walk = ww_rf" `Slow
            test_behaviors_ww_rf;
          Alcotest.test_case "truncated rw walk is not 'none'" `Quick
            test_rw_truncated;
        ] );
    ]
