(* Golden Fig. 6 verdicts: the exact [Sim.Verif.pp_verdict] string of
   every registered pass on every corpus program, every example
   program and the 108 stress seeds, pinned.

   [Verif.check] takes shortcuts (reflexive refinement for an
   unchanged target, the target's race scan folded into its
   refinement walk); none of them may change a verdict or its
   witness.  This suite fails on the first item whose rendering
   drifts, naming it.

   The file [verdicts.golden] holds one line per item,
   [pass<TAB>item<TAB>verdict], in the order [lines] produces them.
   Regenerate it only for a deliberate verdict change, from the
   [test] directory:
   [../_build/default/test/test_verdicts.exe print > verdicts.golden].

   [behaviours.golden] pins the behaviour set ([Traceset.pp]) and the
   completeness of every such program under both machine disciplines,
   one block per item ([== item discipline] then the rendering); it
   must not depend on the pool width ([PSOPT_J]).  Regenerate it the
   same way with [print-behaviours]. *)

let golden_file = "verdicts.golden"
let behaviours_file = "behaviours.golden"
let examples_dir = Filename.concat ".." (Filename.concat "examples" "programs")

let example name =
  Lang.Wf.check_exn
    (Lang.Parse.program_of_file (Filename.concat examples_dir (name ^ ".rtl")))

let programs () =
  let corpus =
    List.map (fun t -> ("litmus:" ^ t.Litmus.name, t.Litmus.prog)) Litmus.all
  in
  let rtl =
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter_map (Filename.chop_suffix_opt ~suffix:".rtl")
    |> List.sort compare
    |> List.map (fun name -> ("rtl:" ^ name, example name))
  in
  let seeds =
    List.init 108 (fun seed ->
        (Printf.sprintf "seed:%d" seed, Explore.Stress.generate ~seed))
  in
  corpus @ rtl @ seeds

(* One line per item; a rendering that breaks lines is escaped so the
   file stays line-per-item. *)
let line pass (name, prog) =
  let v = Format.asprintf "%a" Sim.Verif.pp_verdict (Sim.Verif.check pass prog) in
  let v = String.concat "\\n" (String.split_on_char '\n' v) in
  Printf.sprintf "%s\t%s\t%s" pass.Sim.Verif.name name v

let lines () =
  let progs = programs () in
  List.concat_map (fun pass -> List.map (line pass) progs) Sim.Verif.registry

let read_golden file =
  In_channel.with_open_bin file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let item_of l =
  match String.split_on_char '\t' l with
  | pass :: name :: _ -> pass ^ " on " ^ name
  | _ -> l

let test_golden () =
  let expected = read_golden golden_file in
  let actual = lines () in
  Alcotest.(check int) "item count" (List.length expected) (List.length actual);
  List.iter2
    (fun e a ->
      if not (String.equal e a) then
        Alcotest.failf "verdict of %s drifted:@\nexpected %s@\n     got %s"
          (item_of e) e a)
    expected actual

(* ------------------------------------------------------------------ *)
(* Behaviour sets under both disciplines. *)

let behaviour_lines () =
  let progs = programs () in
  List.concat_map
    (fun disc ->
      List.concat_map
        (fun (name, prog) ->
          let o = Explore.Enum.behaviors_exn disc prog in
          let header =
            Format.asprintf "== %s %a %a" name Explore.Enum.pp_discipline disc
              Explore.Enum.pp_completeness o.Explore.Enum.completeness
          in
          header
          :: String.split_on_char '\n'
               (Format.asprintf "%a" Explore.Traceset.pp o.Explore.Enum.traces))
        progs)
    [ Explore.Enum.Interleaving; Explore.Enum.Non_preemptive ]
  |> List.filter (fun l -> l <> "")

let test_behaviours () =
  let expected = read_golden behaviours_file in
  let actual = behaviour_lines () in
  let item = ref "" in
  List.iteri
    (fun i a ->
      if String.starts_with ~prefix:"== " a then item := a;
      match List.nth_opt expected i with
      | Some e when String.equal e a -> ()
      | e ->
          Alcotest.failf "behaviours of %s drifted at line %d:@\nexpected %s@\n     got %s"
            !item (i + 1) (Option.value ~default:"<end of file>" e) a)
    actual;
  Alcotest.(check int) "line count" (List.length expected) (List.length actual)

(* ------------------------------------------------------------------ *)
(* Walks per check: every finished exploration bumps this counter. *)

let searches = Obs.Metrics.counter "psopt_explore_searches_total"

let walks f =
  let before = Obs.Metrics.value searches in
  let r = f () in
  (Obs.Metrics.value searches - before, r)

let pass name = Option.get (Sim.Verif.find name)

let check_walks name ?explore_config pass_name prog ~changed ~want () =
  let r = pass pass_name in
  Alcotest.(check bool)
    (name ^ ": target changed") changed
    (not (Lang.Ast.equal_program (r.Sim.Verif.transform prog) prog));
  let n, v = walks (fun () -> Sim.Verif.check ?explore_config r prog) in
  Alcotest.(check string) (name ^ ": verdict") "verified"
    (Format.asprintf "%a" Sim.Verif.pp_verdict v);
  Alcotest.(check int) (name ^ ": walks") want n

let test_walks_unchanged =
  check_walks "cse on lb" "cse" Litmus.lb.Litmus.prog ~changed:false ~want:1

let test_walks_changed () =
  check_walks "dce on deadstore" "dce" (example "deadstore") ~changed:true
    ~want:3 ()

let test_walks_reduced () =
  check_walks "dce on deadstore, reduced"
    ~explore_config:
      (Explore.Config.with_reduction Explore.Config.full_reduction
         Explore.Config.default)
    "dce" (example "deadstore") ~changed:true ~want:4 ()

let test_walks_races () =
  Alcotest.(check int) "check_all on lb" 2
    (fst (walks (fun () -> Race.check_all Litmus.lb.Litmus.prog)))

(* ------------------------------------------------------------------ *)
(* Simulation games per check: only the functions a pass changed play
   one (docs/SEMANTICS.md, "Unchanged functions"). *)

let games = Obs.Metrics.counter ~labels:[ ("answer", "game") ] "psopt_sim_functions_total"

let check_games name pass_name prog ~want () =
  let r = pass pass_name in
  let tgt = r.Sim.Verif.transform prog in
  let changed =
    List.filter
      (fun f ->
        not
          (Lang.Ast.equal_codeheap
             (Lang.Ast.FnameMap.find f tgt.Lang.Ast.code)
             (Lang.Ast.FnameMap.find f prog.Lang.Ast.code)))
      (List.sort_uniq String.compare prog.Lang.Ast.threads)
  in
  Alcotest.(check (list string)) (name ^ ": changed functions") want changed;
  let before = Obs.Metrics.value games in
  let v = Sim.Verif.check r prog in
  Alcotest.(check string) (name ^ ": verdict") "verified"
    (Format.asprintf "%a" Sim.Verif.pp_verdict v);
  Alcotest.(check int) (name ^ ": games") (List.length want)
    (Obs.Metrics.value games - before)

let test_games_unchanged =
  check_games "cse on lb" "cse" Litmus.lb.Litmus.prog ~want:[]

let test_games_changed () =
  check_games "dce on deadstore" "dce" (example "deadstore") ~want:[ "t1" ] ()

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "print" then
    List.iter print_endline (lines ())
  else if Array.length Sys.argv > 1 && Sys.argv.(1) = "print-behaviours" then
    List.iter print_endline (behaviour_lines ())
  else
    Alcotest.run "verdicts"
      [
        ( "fig6",
          [
            Alcotest.test_case "golden verdicts (7 passes x 146 programs)"
              `Slow test_golden;
            Alcotest.test_case "golden behaviours (2 disciplines x 146 programs)"
              `Slow test_behaviours;
          ] );
        ( "walks",
          [
            Alcotest.test_case "unchanged target: 1" `Quick test_walks_unchanged;
            Alcotest.test_case "changed target: 3" `Quick test_walks_changed;
            Alcotest.test_case "reduction on: 4" `Quick test_walks_reduced;
            Alcotest.test_case "Race.check_all: 2" `Quick test_walks_races;
          ] );
        ( "games",
          [
            Alcotest.test_case "unchanged target: 0" `Quick test_games_unchanged;
            Alcotest.test_case "dce on deadstore: its changed functions" `Quick
              test_games_changed;
          ] );
      ]
