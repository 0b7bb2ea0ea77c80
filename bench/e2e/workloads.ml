(* The four workloads: their inputs, a pure function of the seed, and
   the known answers every output is checked against.

   Known answers come from the paper and from the semantics, never
   from a previous run of the explorer:
   - every registered pass is correct (Thm. 6.5), so a registered pass
     may only be refuted at the source's ww-RF premise;
   - the corpus states which of its programs race ([ww_racy] is the
     only write-write racy one) and which outcomes each litmus test
     must and must not show;
   - the E-rows of DESIGN.md carry the paper's verdict for each
     known-good and known-bad pair;
   - the explore programs' outcome sets are worked out by hand below;
   - fuzz cases have no paper answer, so a decided verdict must equal
     the unreduced default-config verdict of the same case (computed
     in a separate, untimed process). *)

(* ------------------------------------------------------------------ *)
(* Verdict classes *)

(* The four ways a [Verif.check] can end.  [Late_refutation] is a
   refutation past the source's ww-RF stage: for a registered pass it
   is always a wrong verdict. *)
type cls = Verified | Source_race | Late_refutation | Inconclusive

let cls_of_verdict = function
  | Sim.Verif.Verified -> Verified
  | Sim.Verif.Fail (Sim.Verif.Source_ww_rf, _) -> Source_race
  | Sim.Verif.Fail _ -> Late_refutation
  | Sim.Verif.Inconclusive _ -> Inconclusive

let char_of_cls = function
  | Verified -> 'V'
  | Source_race -> 'R'
  | Late_refutation -> 'F'
  | Inconclusive -> 'I'

let cls_of_char = function
  | 'V' -> Verified
  | 'R' -> Source_race
  | 'F' -> Late_refutation
  | 'I' -> Inconclusive
  | c -> invalid_arg (Printf.sprintf "verdict class %C" c)

let decided c = c = Verified || c = Source_race

(* ------------------------------------------------------------------ *)
(* Items *)

type verify = {
  label : string;
  pass : Sim.Verif.registered;
  prog : Lang.Ast.program;
  config : Explore.Config.t;
  case_seed : int option;  (** fuzz cases: key of the reference verdict *)
  expect : cls option;  (** the stated answer, where there is one *)
}

type explore = {
  name : string;
  program : Lang.Ast.program;
  econfig : Explore.Config.t;
  outcomes : int list list;
      (** exactly the completed output lists, in print order: order
          matters for [sym_writers], whose reader prints twice *)
}

type item =
  | Verify of verify
  | Litmus of Litmus.t
  | Refine_row of {
      id : string;
      target : Lang.Ast.program;
      source : Lang.Ast.program;
      refines : bool;
    }
  | Sim_row of {
      id : string;
      inv : Sim.Invariant.t;
      target : Lang.Ast.program;
      source : Lang.Ast.program;
      fails_on : string option;  (** [None]: every thread must hold *)
    }
  | Explore of explore

let item_label = function
  | Verify v -> v.label
  | Litmus t -> "litmus/" ^ t.Litmus.name
  | Refine_row { id; _ } | Sim_row { id; _ } -> id
  | Explore e -> "explore/" ^ e.name

let shuffle ~seed l =
  let a = Array.of_list l in
  let rng = Random.State.make [| 0xe2e; seed |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* paper_verify: the paper's own traffic *)

let lit n = (Litmus.find n).Litmus.prog
let dce = Opt.Pass.apply Opt.Dce.pass

let rtl_programs () =
  let dir = Filename.concat "examples" "programs" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".rtl")
  |> List.sort compare
  |> List.map (fun f ->
         ( "rtl:" ^ Filename.chop_suffix f ".rtl",
           Lang.Wf.check_exn (Lang.Parse.program_of_file (Filename.concat dir f)) ))

(* Pairs the paper names as verified (bench row X8, and the fig1.rtl
   header: licm is a no-op there). *)
let stated_verified =
  [ ("dce", "fig16_src"); ("cse", "fig5_tgt"); ("licm", "fig1_foo_rlx"); ("licm", "rtl:fig1") ]

let paper_expect ~pass name =
  if name = "ww_racy" then Some Source_race
  else if List.mem (pass, name) stated_verified then Some Verified
  else None

let e_rows =
  [
    Refine_row
      { id = "E5"; target = lit "fig1_foo_opt"; source = lit "fig1_foo"; refines = false };
    Refine_row
      {
        id = "E5b";
        target = lit "fig1_foo_opt_rlx";
        source = lit "fig1_foo_rlx";
        refines = true;
      };
    Refine_row
      { id = "E6"; target = lit "reorder_tgt"; source = lit "reorder_src"; refines = true };
    Refine_row
      { id = "E6r"; target = lit "reorder_src"; source = lit "reorder_tgt"; refines = true };
    Refine_row
      { id = "E12"; target = lit "fig15_bad_tgt"; source = lit "fig15_src"; refines = false };
    Sim_row
      {
        id = "E13";
        inv = Sim.Invariant.idce;
        target = dce (lit "fig16_src");
        source = lit "fig16_src";
        fails_on = None;
      };
    Sim_row
      {
        id = "E13b";
        inv = Sim.Invariant.iid;
        target = dce (lit "fig16_src");
        source = lit "fig16_src";
        fails_on = Some "t1";
      };
    Sim_row
      {
        id = "E13c";
        inv = Sim.Invariant.idce;
        target = lit "fig15_bad_tgt";
        source = lit "fig15_src";
        fails_on = Some "t1";
      };
  ]

(* The smoke run's corpus: cheap programs that still carry a stated
   answer each (promises, Fig. 4's race subtlety, the racy program, a
   program DCE changes). *)
let smoke_corpus = [ "lb"; "fig4"; "ww_racy"; "fig16_src"; "mp_rel_acq" ]

let paper ~smoke ~seed =
  let corpus = if smoke then List.map Litmus.find smoke_corpus else Litmus.all in
  let programs =
    List.map (fun (t : Litmus.t) -> (t.Litmus.name, t.Litmus.prog)) corpus
    @ if smoke then [] else rtl_programs ()
  in
  let verifies =
    List.concat_map
      (fun (name, prog) ->
        List.map
          (fun (pass : Sim.Verif.registered) ->
            Verify
              {
                label = pass.Sim.Verif.name ^ "/" ^ name;
                pass;
                prog;
                config = Explore.Config.default;
                case_seed = None;
                expect = paper_expect ~pass:pass.Sim.Verif.name name;
              })
          Sim.Verif.registry)
      programs
  in
  shuffle ~seed (verifies @ List.map (fun t -> Litmus t) corpus @ e_rows)

(* ------------------------------------------------------------------ *)
(* fuzz_verify: generated programs the pass actually changes *)

let registry = Array.of_list Sim.Verif.registry

(* Cases with three or more stores to the flag are skipped: they are
   2.6% of generated cases but 30% of the verification time, and
   their cost varies so much that a run's total would depend on how
   many of them the seed happened to draw. *)
let max_flag_stores = 2

let flag_stores (p : Lang.Ast.program) =
  Lang.Ast.FnameMap.fold
    (fun _ (ch : Lang.Ast.codeheap) acc ->
      Lang.Ast.LabelMap.fold
        (fun _ (b : Lang.Ast.block) acc ->
          List.fold_left
            (fun acc -> function
              | Lang.Ast.Store (x, _, _) when Lang.Ast.VarSet.mem x p.Lang.Ast.atomics ->
                  acc + 1
              | _ -> acc)
            acc b.Lang.Ast.instrs)
        ch.Lang.Ast.blocks acc)
    p.Lang.Ast.code 0

(* A case that trips the deadline is inconclusive, never wrong. *)
let fuzz_deadline_ms = 2000

(* [n] kept cases from the stress-seed range [base, base + 100_000):
   a pass is drawn per seed, the reduction mode is the stress
   runner's, and a case is kept only when the pass changes the
   program (otherwise it tests nothing but the pipeline's fixed
   costs). *)
let fuzz_cases ~base n =
  let rec go k acc count =
    if count = n then List.rev acc
    else if k >= 100_000 then failwith "fuzz_cases: seed range exhausted"
    else
      let case_seed = base + k in
      let prog = Explore.Stress.generate ~seed:case_seed in
      let pass =
        registry.(Random.State.int
                    (Random.State.make [| case_seed |])
                    (Array.length registry))
      in
      if
        Lang.Ast.equal_program (pass.Sim.Verif.transform prog) prog
        || flag_stores prog > max_flag_stores
      then go (k + 1) acc count
      else
        let config =
          Explore.Config.with_deadline_ms fuzz_deadline_ms
            (Explore.Config.with_reduction
               (Explore.Stress.reduction_of_seed case_seed)
               Explore.Config.default)
        in
        let v =
          {
            label = Printf.sprintf "%s/case-%d" pass.Sim.Verif.name case_seed;
            pass;
            prog;
            config;
            case_seed = Some case_seed;
            expect = None;
          }
        in
        go (k + 1) (v :: acc) (count + 1)
  in
  go 0 [] 0

(* Disjoint stress-seed ranges per (seed, use, rep), so every rep of a
   run verifies fresh cases and two uses never share one. *)
let case_base ~seed ~rep ~use =
  assert (rep < 1000);
  ((((seed mod 1000) * 3) + use) * 1000 + rep) * 100_000

let fuzz_per_rep ~smoke = if smoke then 20 else 200

let fuzz ~smoke ~seed ~rep =
  List.map (fun v -> Verify v)
    (fuzz_cases ~base:(case_base ~seed ~rep ~use:0) (fuzz_per_rep ~smoke))

(* The unreduced answer for one case, under a deadline ten times the
   workload's, so that one pathological case cannot stall the run. *)
let reference (v : verify) =
  let config =
    Explore.Config.with_deadline_ms (10 * fuzz_deadline_ms)
      { v.config with Explore.Config.reduction = Explore.Config.no_reduction }
  in
  match Sim.Verif.check ~explore_config:config v.pass v.prog with
  | verdict -> cls_of_verdict verdict
  | exception Explore.Errors.Error (Explore.Errors.Budget_exhausted _) -> Inconclusive

(* ------------------------------------------------------------------ *)
(* explore_large: few, large state spaces *)

(* LB with padding (bench/main.ml's certification-bound family): t1
   may promise [x := 1] just before its read of [y], since the code
   from there to the store, [h2 + 2] steps, fits in the default
   [cert_fuel] of 64 for every pad used here.  So every (r1, r2) in
   {0,1}^2 is observable, printed in either order. *)
let cert_heavy ~pad ~noise =
  let h1 = pad / 2 in
  let h2 = pad - h1 in
  let open Lang.Build in
  let padding n = List.init n (fun _ -> assign "a" (r "a" + i 1)) in
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
            (List.init noise (fun _ -> load "s" "z" ~mode:Lang.Modes.Rlx)
            @ [
                load "r2" "x" ~mode:Lang.Modes.Rlx;
                store "y" ~mode:Lang.Modes.WRlx (i 1);
                print (r "r2");
              ])
            ret;
        ];
    ]
    ~threads:[ "t1"; "t2" ]

(* IRIW with relaxed accesses and two identical readers: nothing
   orders the readers' views of x and y, so each reader independently
   prints any of 0, 1, 10, 11 — all 16 ordered pairs. *)
let iriw_sym =
  let open Lang.Build in
  let pad k tag = List.init k (fun j -> assign (Printf.sprintf "%s%d" tag j) (i j)) in
  program ~atomics:[ "x"; "y" ]
    [
      proc "wx" [ blk "L0" (pad 4 "pw" @ [ store "x" ~mode:Lang.Modes.WRlx (i 1) ]) ret ];
      proc "wy" [ blk "L0" (pad 4 "pw" @ [ store "y" ~mode:Lang.Modes.WRlx (i 1) ]) ret ];
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

(* One reader reading x twice against three identical writers of 1:
   coherence forbids reading 1 and then the initial 0. *)
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

let pairs vs = List.concat_map (fun a -> List.map (fun b -> [ a; b ]) vs) vs

let cert_heavy_item ~pad ~noise =
  Explore
    {
      name = Printf.sprintf "cert_heavy %d/%d" pad noise;
      program = cert_heavy ~pad ~noise;
      econfig = Explore.Config.default;
      outcomes = pairs [ 0; 1 ];
    }

(* Six cert_heavy sizes spanning pad 70..115 and noise 16..28; the
   seed moves each pad by at most one step, so that every seed explores
   nearly the same amount of state and peak memory stays comparable. *)
let explore_large ~smoke ~seed =
  if smoke then [ cert_heavy_item ~pad:30 ~noise:8 ]
  else
    let rng = Random.State.make [| 0xe11; seed |] in
    let full = Explore.Config.with_reduction Explore.Config.full_reduction Explore.Config.default in
    shuffle ~seed
      (List.init 6 (fun k ->
           cert_heavy_item
             ~pad:(70 + (9 * k) - Random.State.int rng 2)
             ~noise:(16 + (2 * k) + Random.State.int rng 2))
      @ [
          Explore
            {
              name = "iriw_sym";
              program = iriw_sym;
              econfig = full;
              outcomes = pairs [ 0; 1; 10; 11 ];
            };
          Explore
            {
              name = "sym_writers 3";
              program = sym_writers 3;
              econfig = { full with Explore.Config.max_promises = 0 };
              outcomes = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 1 ] ];
            };
        ])

(* ------------------------------------------------------------------ *)
(* daemon_mix: a request list against a live daemon *)

type request =
  | Fresh of verify  (** a case the store has not seen *)
  | Hot of verify  (** one of the prewarmed hot cases *)
  | Named of Litmus.t  (** a prewarmed litmus name *)

let hot_set_size = 40
let hot_set ~seed = fuzz_cases ~base:(case_base ~seed ~rep:0 ~use:1) hot_set_size
let daemon_per_rep ~smoke = if smoke then 100 else 1800

(* 20% fresh verifies, 50% hot-set re-submissions, 30% litmus names;
   fresh cases come from a per-rep seed range, so no rep of a run
   re-submits another's. *)
let daemon_requests ~smoke ~seed ~rep =
  let n = daemon_per_rep ~smoke in
  let rng = Random.State.make [| 0xd43; seed; rep |] in
  let kinds = List.init n (fun _ -> Random.State.int rng 100) in
  let fresh =
    ref (fuzz_cases ~base:(case_base ~seed ~rep ~use:2)
           (List.length (List.filter (fun k -> k < 20) kinds)))
  in
  let hot = Array.of_list (hot_set ~seed) in
  let corpus = Array.of_list Litmus.all in
  List.map
    (fun k ->
      if k < 20 then (
        match !fresh with
        | v :: rest ->
            fresh := rest;
            Fresh v
        | [] -> assert false)
      else if k < 70 then Hot hot.(Random.State.int rng (Array.length hot))
      else Named corpus.(Random.State.int rng (Array.length corpus)))
    kinds

(* ------------------------------------------------------------------ *)
(* Judging an output against the known answers *)

type outcome = Decided | Undecided | Wrong of string | Failed of string

(* [refs]: reference classes by case seed. *)
let judge_cls ~refs (v : verify) c =
  let reference = Option.bind v.case_seed (Hashtbl.find_opt refs) in
  match (v.expect, reference) with
  | _ when c = Late_refutation -> Wrong "registered pass refuted past ww-RF(source)"
  | Some e, _ when decided c && c <> e ->
      Wrong (Printf.sprintf "verdict %c, stated answer %c" (char_of_cls c) (char_of_cls e))
  | _, Some r when decided c && decided r && c <> r ->
      Wrong (Printf.sprintf "verdict %c, unreduced reference %c" (char_of_cls c) (char_of_cls r))
  | _ -> if decided c then Decided else Undecided

let judge_litmus (r : Litmus.result) =
  match r.Litmus.verdict with
  | Litmus.Pass -> Decided
  | Litmus.Mismatch _ -> Wrong "litmus outcomes differ from the paper's"
  | Litmus.Inconclusive _ -> Undecided

let judge_refine ~refines = function
  | `Refines -> if refines then Decided else Wrong "refines; the paper shows a violation"
  | `Violates -> if refines then Wrong "violates; the paper shows refinement" else Decided
  | `Inconclusive -> Undecided

let judge_sim ~fails_on results =
  let fails = function Sim.Simcheck.Fails _ -> true | _ -> false in
  match fails_on with
  | None ->
      if List.for_all (fun (_, r) -> r = Sim.Simcheck.Holds) results then Decided
      else if List.exists (fun (_, r) -> fails r) results then
        Wrong "simulation fails; the paper shows it holds"
      else Undecided
  | Some f -> (
      match List.assoc_opt f results with
      | Some r when fails r -> Decided
      | Some Sim.Simcheck.Holds -> Wrong ("simulation holds on " ^ f ^ "; the paper shows it fails")
      | _ -> Undecided)

let judge_explore e (o : Explore.Enum.outcome) =
  let seen = List.sort_uniq compare (Explore.Traceset.done_outs o.Explore.Enum.traces) in
  if List.exists (fun x -> not (List.mem x e.outcomes)) seen then
    Wrong "an outcome the semantics forbids was observed"
  else
    match o.Explore.Enum.completeness with
    | Explore.Enum.Truncated _ -> Undecided
    | Explore.Enum.Exhaustive ->
        if List.length seen = List.length e.outcomes then Decided
        else Wrong "an outcome the semantics allows is missing"

(* A daemon reply, by exit code: 0 verified / claim holds, 1 refuted,
   2 inconclusive, anything else an error. *)
let judge_reply ~refs req (reply : Service.Proto.reply) =
  let code = reply.Service.Proto.exit_code in
  match req with
  | _ when code < 0 || code > 2 -> Failed (Printf.sprintf "exit code %d" code)
  | Named t -> (
      match code with
      | 0 -> Decided
      | 1 -> Wrong ("litmus/" ^ t.Litmus.name ^ " refuted")
      | _ -> Undecided)
  | Fresh v | Hot v -> (
      match (code, Option.bind v.case_seed (Hashtbl.find_opt refs)) with
      | 2, _ -> Undecided
      | 0, Some (Source_race | Late_refutation) -> Wrong "verified; unreduced reference refutes"
      | 1, Some Verified -> Wrong "refuted; unreduced reference verifies"
      | _ -> Decided)
