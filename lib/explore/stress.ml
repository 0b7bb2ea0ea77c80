(* ------------------------------------------------------------------ *)
(* Seeded random program generation.

   Same shape as the soundness property tests: two straight-line
   threads over two non-atomic locations and one atomic flag, each
   ending in a print — every access mode and the print interleavings
   are exercised while exhaustive exploration stays tractable.  The
   program is a pure function of the seed, so any quarantined case is
   reproducible from its seed alone (and from the persisted .sexp). *)

let gen_instr rng : Lang.Ast.instr =
  let open Lang.Ast in
  let reg () = Printf.sprintf "r%d" (Random.State.int rng 4) in
  let navar () = if Random.State.bool rng then "x" else "y" in
  let value () = Random.State.int rng 4 in
  let expr () =
    match Random.State.int rng 3 with
    | 0 -> Val (value ())
    | 1 -> Reg (reg ())
    | _ -> Bin (Add, Reg (reg ()), Val (value ()))
  in
  match Random.State.int rng 14 with
  | 0 | 1 | 2 -> Load (reg (), navar (), Lang.Modes.Na)
  | 3 | 4 | 5 -> Store (navar (), expr (), Lang.Modes.WNa)
  | 6 | 7 -> Assign (reg (), expr ())
  | 8 -> Load (reg (), "f", Lang.Modes.Rlx)
  | 9 -> Load (reg (), "f", Lang.Modes.Acq)
  | 10 -> Store ("f", expr (), Lang.Modes.WRlx)
  | 11 -> Store ("f", expr (), Lang.Modes.WRel)
  | 12 ->
      Fence (if Random.State.bool rng then Lang.Modes.FAcq else Lang.Modes.FRel)
  | _ -> Skip

let gen_thread rng name =
  let open Lang.Ast in
  let n = 1 + Random.State.int rng 4 in
  let instrs = List.init n (fun _ -> gen_instr rng) @ [ Print (Reg "r0") ] in
  (name, codeheap ~entry:"L" [ ("L", block instrs Return) ])

let generate ~seed =
  let rng = Random.State.make [| 0x5752; seed |] in
  Lang.Ast.program ~atomics:[ "f" ]
    ~code:[ gen_thread rng "t1"; gen_thread rng "t2" ]
    [ "t1"; "t2" ]

(* The random config matrix: each case also draws a state-space
   reduction mode, a pure function of the seed like the program
   itself, so the explorer is continuously stressed with every
   reduction config (docs/REDUCTION.md) and a quarantined case
   replays under the exact mode that broke it. *)
let reduction_of_seed seed =
  match seed mod 5 with
  | 0 -> Config.no_reduction
  | 1 -> { Config.no_reduction with Config.por = true }
  | 2 -> { Config.no_reduction with Config.symmetry = true }
  | 3 -> Config.full_reduction
  | _ ->
      {
        Config.full_reduction with
        Config.bound_promises = Some (1 + (seed / 5 mod 2));
      }

let reduction_tag (r : Config.reduction) =
  Printf.sprintf "por=%b sym=%b bound=%s" r.Config.por r.Config.symmetry
    (match r.Config.bound_promises with
    | None -> "none"
    | Some k -> string_of_int k)

(* ------------------------------------------------------------------ *)
(* The supervised optimize-then-verify cycle. *)

type case_verdict =
  | Verified
  | Refuted of string
  | Inconclusive of string
  | Quarantined of string

type case_result = {
  id : int;
  case_seed : int;
  attempts : int;
  verdict : case_verdict;
  reduction : Config.reduction;
}

type summary = {
  cases : int;
  verified : int;
  refuted : int;
  inconclusive : int;
  quarantined : int;
  results : case_result list;
}

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let ensure_dir dir = try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let case_base ~id ~case_seed = Printf.sprintf "case-%04d-seed-%d" id case_seed

let inflight_path dir = Filename.concat dir "inflight.sexp"

let quarantine ~dir ~id ~case_seed ~reduction p reason =
  ensure_dir dir;
  let base = case_base ~id ~case_seed in
  write_file
    (Filename.concat dir (base ^ ".sexp"))
    (Lang.Sexp.program_to_string p);
  write_file
    (Filename.concat dir (base ^ ".reason"))
    (Printf.sprintf "%s\nreduction: %s\n" reason (reduction_tag reduction))

(* One case: run [check] under a per-attempt deadline, escalating the
   step and wall-clock budgets (×2 per retry) while the verdict stays
   inconclusive.  Any escaped exception other than [Budget_exhausted]
   is a bug in the library — the case is quarantined with its program
   persisted as a reproducible artifact. *)
let run_case ~config ~deadline_ms ~retries ~check p =
  let rec attempt k =
    let scale = 1 lsl k in
    let cfg =
      {
        config with
        Config.max_steps = config.Config.max_steps * scale;
        deadline_ms = Some (deadline_ms * scale);
      }
    in
    let verdict =
      match check ~config:cfg p with
      | `Verified -> Verified
      | `Refuted why -> Refuted why
      | `Inconclusive why -> Inconclusive why
      | exception Errors.Error (Errors.Budget_exhausted why) ->
          Inconclusive why
      | exception exn -> Quarantined (Errors.to_string (Errors.of_exn exn))
    in
    match verdict with
    | Inconclusive _ when k < retries -> attempt (k + 1)
    | v -> (v, k + 1)
  in
  attempt 0

let run ?(config = Config.default) ?(retries = 2)
    ?(quarantine_dir = "_stress_quarantine") ?(j = 1) ?on_quarantine ~cases
    ~seed ~deadline_ms ~check () =
  (* Parallel dispatch is across whole cases, the budget split by
     [Pool.split], so a pool of [j] workers uses [j] domains, not
     [j^2].  Per-case verdicts are a pure function of the seed, so the
     summary is identical at every [j]. *)
  let j, inner = Pool.split ~j ~tasks:cases in
  let config = { config with Config.domains = inner } in
  let run_one id =
    let case_seed = seed + id in
    let p = generate ~seed:case_seed in
    let reduction = reduction_of_seed case_seed in
    let config = { config with Config.reduction } in
    (* Crash safety: the program under test is on disk before the
       check runs, so even a hard crash (segfault, OOM kill) leaves a
       reproducible artifact behind.  Removed again on a clean
       verdict.  Under parallel dispatch each case gets its own
       marker file (several are in flight at once). *)
    ensure_dir quarantine_dir;
    let inflight =
      if j <= 1 then inflight_path quarantine_dir
      else
        Filename.concat quarantine_dir
          (Printf.sprintf "inflight-%s.sexp" (case_base ~id ~case_seed))
    in
    write_file inflight
      (Printf.sprintf ";; %s\n;; reduction: %s\n%s"
         (case_base ~id ~case_seed)
         (reduction_tag reduction)
         (Lang.Sexp.program_to_string p));
    let verdict, attempts =
      Obs.Trace.span ~cat:"stress" "stress.case" (fun () ->
          run_case ~config ~deadline_ms ~retries ~check p)
    in
    (match verdict with
    | Quarantined reason ->
        Obs.Log.warn ~src:"stress" "case quarantined"
          ~fields:
            [
              ("case", case_base ~id ~case_seed);
              ("reason", reason);
              ("reduction", reduction_tag reduction);
              ("dir", quarantine_dir);
            ];
        quarantine ~dir:quarantine_dir ~id ~case_seed ~reduction p reason;
        Option.iter
          (fun f ->
            try
              f ~dir:quarantine_dir
                ~base:(case_base ~id ~case_seed)
                ~config p
            with _ ->
              (* artifact enrichment must never fail the run *)
              ())
          on_quarantine
    | Verified | Refuted _ | Inconclusive _ -> ());
    (try Sys.remove inflight with Sys_error _ -> ());
    { id; case_seed; attempts; verdict; reduction }
  in
  let results = Pool.map ~j run_one (List.init cases Fun.id) in
  let count f = List.length (List.filter f results) in
  {
    cases;
    verified = count (fun r -> r.verdict = Verified);
    refuted = count (fun r -> match r.verdict with Refuted _ -> true | _ -> false);
    inconclusive =
      count (fun r -> match r.verdict with Inconclusive _ -> true | _ -> false);
    quarantined =
      count (fun r -> match r.verdict with Quarantined _ -> true | _ -> false);
    results;
  }

let pp_case_verdict ppf = function
  | Verified -> Format.pp_print_string ppf "verified"
  | Refuted why -> Format.fprintf ppf "refuted: %s" why
  | Inconclusive why -> Format.fprintf ppf "inconclusive: %s" why
  | Quarantined why -> Format.fprintf ppf "QUARANTINED: %s" why

let pp_summary ppf s =
  List.iter
    (fun r ->
      Format.fprintf ppf "%-22s (attempts %d) [%s] %a@."
        (case_base ~id:r.id ~case_seed:r.case_seed)
        r.attempts (reduction_tag r.reduction) pp_case_verdict r.verdict)
    s.results;
  Format.fprintf ppf
    "total %d: verified=%d refuted=%d inconclusive=%d quarantined=%d" s.cases
    s.verified s.refuted s.inconclusive s.quarantined
