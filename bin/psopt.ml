(* psopt — the command-line front end of the promising-semantics
   optimization-verification library.

   Subcommands mirror the library's layers: parse/print, run, explore
   (behaviour sets under either machine), optimize, refine (trace-set
   inclusion), races (ww-RF / rw report), sim (the thread-local
   simulation game), litmus (the paper's corpus), stress (the
   crash-safe batch runner), and the verification service — serve
   (the daemon), ping, submit and batch (its clients;
   docs/SERVICE.md).

   Exit codes are script-friendly and uniform across subcommands:
   0 verified / claim holds, 1 refuted / violation / race found,
   2 inconclusive (truncated exploration or unknown simulation),
   3 usage, parse or well-formedness error. *)

open Cmdliner

let exit_ok = Service.Render.exit_ok
let exit_fail = Service.Render.exit_fail
let exit_inconclusive = Service.Render.exit_inconclusive
let exit_error = Service.Render.exit_error

let read_program path =
  try Ok (Lang.Wf.check_exn (Lang.Parse.program_of_file path)) with
  | Lang.Parse.Error e ->
      Error (path ^ ":" ^ Lang.Parse.error_message e)
  | Lang.Wf.Ill_formed errs ->
      Error (path ^ ": ill-formed: " ^ Lang.Wf.errors_message errs)
  | Sys_error e -> Error e

(* Run [f] on the parsed program; parse/well-formedness problems go to
   stderr (never an OCaml backtrace) with the usage/parse exit code. *)
let with_program path f =
  match read_program path with
  | Ok p -> f p
  | Error msg ->
      Printf.eprintf "psopt: %s\n" msg;
      exit_error

let program_arg idx name =
  let doc = "CSimpRTL program file." in
  Arg.(required & pos idx (some file) None & info [] ~docv:name ~doc)

let discipline_term =
  let doc = "Explore with the non-preemptive machine (Fig. 10)." in
  Term.(
    const (fun np ->
        if np then Explore.Enum.Non_preemptive else Explore.Enum.Interleaving)
    $ Arg.(value & flag & info [ "np"; "non-preemptive" ] ~doc))

(* Default domain-pool width: a valid PSOPT_J wins (the CI matrix
   pins it), otherwise whatever this machine recommends. *)
let default_j =
  match Explore.Config.env_jobs with
  | Some j -> j
  | None -> Explore.Pool.recommended ()

let jobs_term =
  let doc =
    "Domain pool width for parallel exploration (default: the machine's \
     recommended domain count, or a positive \\$PSOPT_J).  Results are \
     identical for every width."
  in
  Arg.(value & opt int default_j & info [ "j"; "jobs" ] ~doc ~docv:"N")

let config_term =
  let promises =
    let doc = "Promise steps allowed per thread (0 disables promising)." in
    Arg.(value & opt int 1 & info [ "promises" ] ~doc)
  in
  let steps =
    let doc = "Exploration depth budget." in
    Arg.(value & opt int 400 & info [ "max-steps" ] ~doc)
  in
  let no_cap =
    let doc = "Certify promises against the plain (uncapped) memory." in
    Arg.(value & flag & info [ "no-cap" ] ~doc)
  in
  let deadline =
    let doc = "Wall-clock budget in milliseconds (0 = none)." in
    Arg.(value & opt int 0 & info [ "deadline-ms" ] ~doc)
  in
  let nodes =
    let doc = "Budget on distinct explored states (0 = none)." in
    Arg.(value & opt int 0 & info [ "max-nodes" ] ~doc)
  in
  let por =
    let doc =
      "Certification-aware partial-order reduction: prune redundant \
       interleavings of thread-local steps and symmetric switch siblings \
       (behaviour-preserving; see docs/REDUCTION.md)."
    in
    Arg.(value & flag & info [ "por" ] ~doc)
  in
  let symmetry =
    let doc =
      "Symmetry reduction: canonicalize states under permutation of \
       identical-program threads, so N replicated threads cost one orbit \
       (traceset-preserving; see docs/REDUCTION.md)."
    in
    Arg.(value & flag & info [ "symmetry" ] ~doc)
  in
  let reduce =
    let doc = "Enable every sound reduction (same as --por --symmetry)." in
    Arg.(value & flag & info [ "reduce" ] ~doc)
  in
  let max_promises =
    let doc =
      "Bounded-promise mode: explore exhaustively within a budget of \
       $(docv) promise steps per thread and report honest truncation \
       above it (overrides --promises; implies strict accounting)."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "max-promises" ] ~doc ~docv:"K")
  in
  Term.(
    const (fun promises max_steps no_cap deadline nodes por symmetry reduce
               bound j ->
        let reduction =
          {
            Explore.Config.por = por || reduce;
            symmetry = symmetry || reduce;
            bound_promises = bound;
          }
        in
        Explore.Config.with_promises promises
          {
            Explore.Config.default with
            max_steps;
            cap_certification = not no_cap;
            deadline_ms = (if deadline > 0 then Some deadline else None);
            max_nodes = (if nodes > 0 then Some nodes else None);
            domains = max 1 j;
            reduction;
          })
    $ promises $ steps $ no_cap $ deadline $ nodes $ por $ symmetry $ reduce
    $ max_promises $ jobs_term)

(* ------------------------------------------------------------------ *)
(* Observability switches shared by the instrumented subcommands
   (docs/OBSERVABILITY.md): --log-level feeds the structured stderr
   logger, --trace records a span trace of the whole run and writes it
   as Chrome trace_event JSON. *)

let log_level_term =
  let doc =
    "Minimum stderr log level: $(b,debug), $(b,info), $(b,warn), \
     $(b,error) or $(b,quiet) (overrides \\$PSOPT_LOG)."
  in
  let levels =
    [
      ("debug", Obs.Log.Debug);
      ("info", Obs.Log.Info);
      ("warn", Obs.Log.Warn);
      ("error", Obs.Log.Error);
      ("quiet", Obs.Log.Quiet);
    ]
  in
  Arg.(
    value
    & opt (some (enum levels)) None
    & info [ "log-level" ] ~doc ~docv:"LEVEL")

let trace_term =
  let doc =
    "Record a span trace of this run and write it to $(docv) as Chrome \
     trace_event JSON (open in Perfetto or chrome://tracing; check with \
     `psopt trace-check`)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

(* Evaluated before the command body runs: set the logger threshold,
   pass the trace destination through. *)
let obs_term =
  Term.(
    const (fun level trace ->
        Option.iter Obs.Log.set_level level;
        trace)
    $ log_level_term $ trace_term)

(* Run a command body inside a recording session when --trace was
   given.  The trace is written even when the body raises (a truncated
   run is exactly when the trace is interesting). *)
let with_obs trace f =
  match trace with
  | None -> f ()
  | Some path ->
      Obs.Trace.start ();
      let dump () =
        Obs.Trace.stop ();
        match Obs.Trace.write_file path with
        | Ok n ->
            Obs.Log.info ~src:"trace" "trace written"
              ~fields:
                [
                  ("file", path);
                  ("events", string_of_int n);
                  ("dropped", string_of_int (Obs.Trace.dropped ()));
                ];
            None
        | Error msg ->
            Printf.eprintf "psopt: cannot write trace %s: %s\n" path msg;
            Some exit_error
      in
      (match f () with
      | code -> ( match dump () with None -> code | Some err -> max code err)
      | exception e ->
          ignore (dump ());
          raise e)

(* One fresh trace context per submitted request, but only when this
   process is recording: a context-free Work encodes in the pre-trace
   wire shape, so untraced clients stay compatible with old daemons. *)
let work_req w cfg =
  let tctx = if Obs.Trace.on () then Some (Obs.Trace.new_ctx ()) else None in
  Service.Proto.Work (w, cfg, tctx)

(* ------------------------------------------------------------------ *)

let parse_cmd =
  let sexp_flag =
    Arg.(
      value & flag
      & info [ "sexp" ]
          ~doc:"Emit the machine-readable s-expression form instead.")
  in
  let run file sexp =
    with_program file (fun p ->
        if sexp then print_endline (Lang.Sexp.program_to_string p)
        else print_string (Lang.Pp.program_to_string p);
        exit_ok)
  in
  let term = Term.(const run $ program_arg 0 "FILE" $ sexp_flag) in
  Cmd.v
    (Cmd.info "parse"
       ~doc:
         "Parse, check well-formedness and print (human syntax, or \
          s-expressions with --sexp).")
    term

let run_cmd =
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Scheduler seed.")
  in
  let run file seed =
    with_program file (fun p ->
        let r = Explore.Random_run.run_exn ~seed p in
        Format.printf "trace: %a (%d steps)@." Ps.Event.pp_trace
          r.Explore.Random_run.trace r.Explore.Random_run.steps;
        exit_ok)
  in
  let term = Term.(const run $ program_arg 0 "FILE" $ seed) in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Execute once with a pseudo-random scheduler (promise-free).")
    term

let sample_cmd =
  let runs =
    Arg.(value & opt int 1000 & info [ "runs" ] ~doc:"Number of executions.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Base seed.") in
  let run file runs seed =
    with_program file (fun p ->
        let freqs = Explore.Random_run.sample ~seed ~runs p in
        let total = List.fold_left (fun a (_, n) -> a + n) 0 freqs in
        Format.printf "%d completed runs, %d distinct outcomes@." total
          (List.length freqs);
        List.iter
          (fun (outs, n) ->
            Format.printf "%8d  [%s]@." n
              (String.concat ";" (List.map string_of_int outs)))
          freqs;
        Format.printf
          "(sampling under-approximates: promise-dependent outcomes never \
           appear; compare with `explore`)@.";
        exit_ok)
  in
  let term = Term.(const run $ program_arg 0 "FILE" $ runs $ seed) in
  Cmd.v
    (Cmd.info "sample"
       ~doc:
         "litmus7-style outcome histogram from random-scheduler runs \
          (promise-free; contrast with the exhaustive `explore`).")
    term

let explore_cmd =
  let run file disc cfg trace =
    with_obs trace @@ fun () ->
    with_program file (fun p ->
        let o = Explore.Enum.behaviors_exn ~config:cfg disc p in
        Format.printf "discipline: %a@.config: %a@." Explore.Enum.pp_discipline
          disc Explore.Config.pp cfg;
        Format.printf "behaviours (%a):@.%a@." Explore.Enum.pp_completeness
          o.Explore.Enum.completeness Explore.Traceset.pp
          o.Explore.Enum.traces;
        Format.printf "stats: %a@." Explore.Stats.pp o.Explore.Enum.stats;
        match o.Explore.Enum.completeness with
        | Explore.Enum.Exhaustive -> exit_ok
        | Explore.Enum.Truncated _ -> exit_inconclusive)
  in
  let term =
    Term.(
      const run $ program_arg 0 "FILE" $ discipline_term $ config_term
      $ obs_term)
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Enumerate the full behaviour set (bounded-exhaustive, promises \
          included).  Exits 2 when the exploration was truncated.")
    term

let passes_assoc =
  [
    ("constprop", Opt.Constprop.pass);
    ("dce", Opt.Dce.pass);
    ("cse", Opt.Cse.pass);
    ("copyprop", Opt.Copyprop.pass);
    ("linv", Opt.Linv.pass);
    ("licm", Opt.Licm.pass);
    ("cleanup", Opt.Cleanup.pass);
  ]

let opt_cmd =
  let passes =
    let doc =
      "Comma-separated passes: constprop, dce, cse, copyprop, linv, licm, cleanup."
    in
    Arg.(value & opt string "constprop,cse,dce,cleanup" & info [ "passes" ] ~doc)
  in
  let run file passes =
    with_program file (fun p ->
        let names = String.split_on_char ',' passes in
        let rec build = function
          | [] -> Ok []
          | n :: rest -> (
              match List.assoc_opt (String.trim n) passes_assoc with
              | Some pass -> Result.map (fun l -> pass :: l) (build rest)
              | None -> Error ("unknown pass: " ^ n))
        in
        match build names with
        | Error msg ->
            Printf.eprintf "psopt: %s\n" msg;
            exit_error
        | Ok ps ->
            let out =
              List.fold_left (fun p pass -> Opt.Pass.apply pass p) p ps
            in
            print_string (Lang.Pp.program_to_string out);
            exit_ok)
  in
  let term = Term.(const run $ program_arg 0 "FILE" $ passes) in
  Cmd.v (Cmd.info "opt" ~doc:"Apply optimization passes and print the result.")
    term

let refine_cmd =
  let target =
    Arg.(
      required
      & opt (some file) None
      & info [ "target" ] ~doc:"Optimized program.")
  in
  let source =
    Arg.(
      required
      & opt (some file) None
      & info [ "source" ] ~doc:"Original program.")
  in
  let run tfile sfile disc cfg trace =
    with_obs trace @@ fun () ->
    with_program tfile (fun t ->
        with_program sfile (fun s ->
            let rep =
              Explore.Refine.check ~config:cfg ~discipline:disc ~target:t
                ~source:s ()
            in
            Format.printf "%a@." Explore.Refine.pp_verdict
              rep.Explore.Refine.verdict;
            match rep.Explore.Refine.verdict with
            | Explore.Refine.Refines -> exit_ok
            | Explore.Refine.Violates _ -> exit_fail
            | Explore.Refine.Inconclusive _ -> exit_inconclusive))
  in
  let term =
    Term.(
      const run $ target $ source $ discipline_term $ config_term $ obs_term)
  in
  Cmd.v
    (Cmd.info "refine"
       ~doc:"Check event-trace refinement: target ⊆ source (Sec. 2.2).")
    term

let races_cmd =
  let run file cfg trace =
    with_obs trace @@ fun () ->
    with_program file (fun p ->
        (* rendering shared with the service daemon, so `psopt submit`
           replies are byte-identical to this output *)
        let out, code = Service.Render.races (Race.check_all ~config:cfg p) in
        print_string out;
        code)
  in
  let term =
    Term.(const run $ program_arg 0 "FILE" $ config_term $ obs_term)
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:
         "Check write-write race freedom (Fig. 11) under both machines and \
          report read-write races.  Exits 1 on a race, 2 when truncation \
          prevents a freedom claim.")
    term

let sim_cmd =
  let target =
    Arg.(
      required & opt (some file) None & info [ "target" ] ~doc:"Optimized program.")
  in
  let source =
    Arg.(
      required & opt (some file) None & info [ "source" ] ~doc:"Original program.")
  in
  let inv =
    let doc = "Invariant instance: iid or idce." in
    Arg.(value & opt (enum [ ("iid", `Iid); ("idce", `Idce) ]) `Iid & info [ "inv" ] ~doc)
  in
  let run tfile sfile inv =
    with_program tfile (fun t ->
        with_program sfile (fun s ->
            let inv =
              match inv with
              | `Iid -> Sim.Invariant.iid
              | `Idce -> Sim.Invariant.idce
            in
            let rs = Sim.Simcheck.check_program ~inv ~target:t ~source:s () in
            let worst = ref exit_ok in
            List.iter
              (fun (f, v) ->
                (match v with
                | Sim.Simcheck.Holds -> ()
                | Sim.Simcheck.Fails _ -> worst := max !worst exit_fail
                | Sim.Simcheck.Unknown _ ->
                    worst := max !worst exit_inconclusive);
                Format.printf "%s: %a@." f Sim.Simcheck.pp_verdict v)
              rs;
            !worst))
  in
  let term = Term.(const run $ target $ source $ inv) in
  Cmd.v
    (Cmd.info "sim"
       ~doc:
         "Check the thread-local simulation (Sec. 6) between target and \
          source, per thread function.")
    term

let verify_cmd =
  let pass_arg =
    let doc = "Optimizer to verify (constprop, dce, cse, copyprop, linv, licm, cleanup)." in
    Arg.(value & opt string "dce" & info [ "pass" ] ~doc)
  in
  let record_arg =
    let doc =
      "On a refinement failure, record a replayable trace of one \
       refuting execution of the optimized program to $(docv) (step \
       through it with `psopt replay`, reduce it with `psopt shrink`; \
       docs/REPLAY.md)."
    in
    Arg.(value & opt (some string) None & info [ "record" ] ~doc ~docv:"FILE")
  in
  (* A refutation is a target trace the source cannot produce; find it
     again and persist a replayable witness of the optimized program
     running it. *)
  let record_refutation ~cfg ~pass r p path =
    let target = r.Sim.Verif.transform p in
    let rep = Explore.Refine.check ~config:cfg ~target ~source:p () in
    match rep.Explore.Refine.verdict with
    | Explore.Refine.Violates (tr :: _) -> (
        let outs = tr.Ps.Event.outs in
        let note =
          Printf.sprintf "refutation of %s: target-only outs [%s]" pass
            (String.concat ";" (List.map string_of_int outs))
        in
        match
          Replay.Record.record_witness ~config:cfg ~note ~outs ~path target
        with
        | Ok n ->
            Printf.printf "recorded refuting execution: %d steps to %s\n" n
              path
        | Error msg ->
            Printf.eprintf "psopt verify: cannot record refutation: %s\n" msg)
    | _ ->
        Printf.eprintf
          "psopt verify: no refinement counterexample to record (the \
           failure was in another stage)\n"
  in
  let run file pass record cfg trace =
    with_obs trace @@ fun () ->
    with_program file (fun p ->
        match Sim.Verif.find pass with
        | None ->
            Printf.eprintf "psopt: unknown optimizer: %s\n" pass;
            exit_error
        | Some r -> (
            let v = Sim.Verif.check ~explore_config:cfg r p in
            Format.printf "%s on %s: %a@." pass file Sim.Verif.pp_verdict v;
            match v with
            | Sim.Verif.Verified -> exit_ok
            | Sim.Verif.Fail _ ->
                Option.iter (record_refutation ~cfg ~pass r p) record;
                exit_fail
            | Sim.Verif.Inconclusive _ -> exit_inconclusive))
  in
  let term =
    Term.(
      const run $ program_arg 0 "FILE" $ pass_arg $ record_arg $ config_term
      $ obs_term)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Run the full Fig. 6 pipeline for one optimizer on one program: \
          ww-RF of the source, the thread-local simulation with the pass's \
          invariant, whole-program refinement, ww-RF preservation.  Exits 0 \
          verified, 1 failed, 2 inconclusive.")
    term

let parse_outs s =
  if String.trim s = "" then Ok []
  else
    try
      Ok
        (List.map
           (fun x -> int_of_string (String.trim x))
           (String.split_on_char ',' s))
    with Failure _ -> Error ("invalid --outs: " ^ s)

let outs_term =
  let doc = "Comma-separated expected outputs, e.g. --outs 1,1." in
  Arg.(value & opt string "" & info [ "outs" ] ~doc)

(* A witness schedule as a synthetic Chrome trace_event timeline: one
   900ns span per step at 1us intervals, one track per thread — the
   schedule shape at a glance in Perfetto. *)
let write_witness_trace path (w : Explore.Witness.t) =
  let events =
    List.mapi
      (fun i (s : Explore.Witness.step) ->
        {
          Obs.Trace.name = Format.asprintf "%a" Ps.Event.pp_te s.event;
          cat = "witness";
          ts_ns = i * 1000;
          dur_ns = 900;
          tid = s.tid;
          args = [];
        })
      w
  in
  match open_out path with
  | exception Sys_error m -> Error m
  | oc ->
      let n = Obs.Trace.write_events oc events in
      close_out oc;
      Ok n

let witness_cmd =
  let full =
    Arg.(value & flag & info [ "full" ] ~doc:"Show silent steps too.")
  in
  let trace_out =
    let doc =
      "Also export the witness schedule to $(docv) as a Chrome \
       trace_event timeline (one track per thread; open in Perfetto, \
       check with `psopt trace-check`)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let run file outs full trace_out disc cfg level =
    Option.iter Obs.Log.set_level level;
    with_program file (fun p ->
        match parse_outs outs with
        | Error msg ->
            Printf.eprintf "psopt: %s\n" msg;
            exit_error
        | Ok outs -> (
            match
              Explore.Witness.find ~config:cfg ~discipline:disc ~outs p
            with
            | Some w -> (
                (match Explore.Witness.annotate ~config:cfg ~discipline:disc p w with
                | Some ann when not full ->
                    Format.printf "witness:@.%a@." Explore.Witness.pp_annotated
                      ann
                | _ ->
                    Format.printf "witness:@.%a@."
                      (if full then Explore.Witness.pp_full
                       else Explore.Witness.pp)
                      w);
                match trace_out with
                | None -> exit_ok
                | Some path -> (
                    match write_witness_trace path w with
                    | Ok n ->
                        Printf.printf "witness trace: %d events to %s\n" n path;
                        exit_ok
                    | Error msg ->
                        Printf.eprintf "psopt witness: cannot write %s: %s\n"
                          path msg;
                        exit_error))
            | None ->
                let o = Explore.Enum.behaviors_exn ~config:cfg disc p in
                if o.Explore.Enum.exact then (
                  Format.printf
                    "no witness: the outcome is unobservable \
                     (bounded-exhaustive)@.";
                  exit_fail)
                else (
                  Format.printf
                    "no witness within bounds, and the exploration was \
                     truncated (%a): inconclusive@."
                    Explore.Enum.pp_completeness o.Explore.Enum.completeness;
                  exit_inconclusive)))
  in
  let term =
    Term.(
      const run $ program_arg 0 "FILE" $ outs_term $ full $ trace_out
      $ discipline_term $ config_term $ log_level_term)
  in
  Cmd.v
    (Cmd.info "witness"
       ~doc:
         "Find an annotated execution (schedule) producing the given \
          outputs, in the style of the paper's Sec. 2.1 executions — \
          steps numbered, promises cross-referenced with the writes that \
          fulfill them.  Exits 1 when the outcome is provably \
          unobservable, 2 when the search was truncated.")
    term

let litmus_cmd =
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Litmus name.")
  in
  let run name j trace =
    with_obs trace @@ fun () ->
    let report (t : Litmus.t) (r : Litmus.result) =
      (* rendering shared with the service daemon: `psopt batch
         --litmus` output is byte-identical to this *)
      let out, code = Service.Render.litmus t r in
      print_string out;
      code
    in
    match name with
    | None ->
        List.fold_left
          (fun acc (t, r) -> max acc (report t r))
          exit_ok
          (Litmus.check_all ~j ())
    | Some n -> (
        match List.find_opt (fun t -> t.Litmus.name = n) Litmus.all with
        | Some t -> report t (Litmus.check t)
        | None ->
            Printf.eprintf "psopt: unknown litmus test: %s\n" n;
            exit_error)
  in
  let term = Term.(const run $ name_arg $ jobs_term $ obs_term) in
  Cmd.v
    (Cmd.info "litmus"
       ~doc:"Run the paper's litmus corpus against the explorer.")
    term

let stress_cmd =
  let cases =
    Arg.(value & opt int 50 & info [ "cases" ] ~doc:"Number of random cases.")
  in
  let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Base seed.") in
  let deadline =
    Arg.(
      value & opt int 2000
      & info [ "deadline-ms" ] ~doc:"Per-attempt wall-clock budget.")
  in
  let retries =
    Arg.(
      value & opt int 2
      & info [ "retries" ]
          ~doc:"Extra attempts with doubled budgets while inconclusive.")
  in
  let qdir =
    Arg.(
      value
      & opt string "_stress_quarantine"
      & info [ "quarantine-dir" ] ~doc:"Where crashed cases are persisted.")
  in
  let pass_arg =
    let doc =
      "Optimizer to stress (constprop, dce, cse, copyprop, linv, licm, \
       cleanup); by default each case picks one deterministically from its \
       program."
    in
    Arg.(value & opt (some string) None & info [ "pass" ] ~doc)
  in
  let registry_of = function
    | Some name -> (
        match Sim.Verif.find name with
        | Some r -> Ok (fun _ -> r)
        | None -> Error ("unknown optimizer: " ^ name))
    | None ->
        let all =
          List.filter_map (fun (n, _) -> Sim.Verif.find n)
            [ ("constprop", ()); ("dce", ()); ("cse", ()); ("copyprop", ());
              ("linv", ()); ("licm", ()); ("cleanup", ()) ]
        in
        (* Deterministic per program (stable across retries), varied
           across cases. *)
        Ok (fun p -> List.nth all (Hashtbl.hash p mod List.length all))
  in
  let run cases seed deadline_ms retries qdir pass j trace =
    with_obs trace @@ fun () ->
    match registry_of pass with
    | Error msg ->
        Printf.eprintf "psopt: %s\n" msg;
        exit_error
    | Ok pick ->
        let check ~config p =
          match Sim.Verif.check ~explore_config:config (pick p) p with
          | Sim.Verif.Verified -> `Verified
          | Sim.Verif.Fail (st, why) ->
              `Refuted (Format.asprintf "%a: %s" Sim.Verif.pp_stage st why)
          | Sim.Verif.Inconclusive why -> `Inconclusive why
        in
        (* Quarantined cases also get a replayable [.trace] next to
           their [.sexp]: one recorded execution of the program under
           the exact config (reduction override included) the case ran
           with, so `psopt replay` can step straight into the crash's
           state space (docs/REPLAY.md). *)
        let on_quarantine ~dir ~base ~config p =
          let config =
            { config with Explore.Config.deadline_ms = Some 2_000 }
          in
          let o =
            Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving p
          in
          match Explore.Traceset.done_outs o.Explore.Enum.traces with
          | [] -> ()
          | outs :: _ ->
              ignore
                (Replay.Record.record_witness ~config
                   ~note:("stress quarantine " ^ base)
                   ~outs
                   ~path:(Filename.concat dir (base ^ ".trace"))
                   p)
        in
        let s =
          Explore.Stress.run ~j ~retries ~quarantine_dir:qdir ~on_quarantine
            ~cases ~seed ~deadline_ms ~check ()
        in
        Format.printf "%a@." Explore.Stress.pp_summary s;
        if s.Explore.Stress.quarantined > 0 then begin
          Obs.Log.err ~src:"stress"
            "cases quarantined — each .sexp is a reproducible bug report"
            ~fields:
              [
                ("quarantined", string_of_int s.Explore.Stress.quarantined);
                ("dir", qdir);
              ];
          exit_fail
        end
        else exit_ok
  in
  let term =
    Term.(
      const run $ cases $ seed $ deadline $ retries $ qdir $ pass_arg
      $ jobs_term $ obs_term)
  in
  Cmd.v
    (Cmd.info "stress"
       ~doc:
         "Crash-safe batch stress: seeded random programs through the full \
          optimize-then-verify pipeline under per-case deadlines, with \
          budget-escalating retries and an internal-error quarantine.  \
          Exits 1 if any case was quarantined.")
    term

(* ------------------------------------------------------------------ *)
(* Time-travel replay: record / replay / shrink (docs/REPLAY.md). *)

let store_output_term =
  let doc = "Replay store to write." in
  Arg.(
    required & opt (some string) None & info [ "o"; "output" ] ~doc ~docv:"TRACE")

let count_instrs (p : Lang.Ast.program) =
  Lang.Ast.FnameMap.fold
    (fun _ (ch : Lang.Ast.codeheap) acc ->
      Lang.Ast.LabelMap.fold
        (fun _ (b : Lang.Ast.block) acc -> acc + List.length b.Lang.Ast.instrs)
        ch.Lang.Ast.blocks acc)
    p.Lang.Ast.code 0

let record_cmd =
  let eager =
    let doc =
      "Search with context switches first, recording a deliberately \
       switch-heavy schedule (good shrinker input; the default search \
       runs each thread as long as possible)."
    in
    Arg.(value & flag & info [ "eager-switch" ] ~doc)
  in
  let note =
    Arg.(
      value
      & opt string "recorded witness"
      & info [ "note" ] ~doc:"Free-form provenance note stored in the header.")
  in
  let run file outs out eager note disc cfg =
    with_program file (fun p ->
        match parse_outs outs with
        | Error msg ->
            Printf.eprintf "psopt: %s\n" msg;
            exit_error
        | Ok outs -> (
            match
              Replay.Record.record_witness ~config:cfg ~discipline:disc
                ~eager_switch:eager ~note ~outs ~path:out p
            with
            | Ok n ->
                Printf.printf "recorded %d steps to %s\n" n out;
                exit_ok
            | Error msg ->
                Printf.eprintf "psopt record: %s\n" msg;
                exit_fail))
  in
  let term =
    Term.(
      const run $ program_arg 0 "FILE" $ outs_term $ store_output_term $ eager
      $ note $ discipline_term $ config_term)
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Find an execution producing the given outputs and record its \
          full machine-step trace — events, memory and view deltas, \
          certification effort, promise bookkeeping — into an indexed \
          replay store for `psopt replay` and `psopt shrink` \
          (docs/REPLAY.md).  Exits 1 when no witness exists within \
          bounds.")
    term

let replay_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Replay store written by `psopt record`.")
  in
  let keyframe =
    let doc =
      "Snapshot the machine state every $(docv) steps; any jump replays \
       at most $(docv) steps from a snapshot."
    in
    Arg.(value & opt int 16 & info [ "keyframe-every" ] ~doc ~docv:"K")
  in
  let command =
    let doc =
      "Run one command non-interactively and exit (repeatable, in \
       order); without it, read commands from stdin."
    in
    Arg.(value & opt_all string [] & info [ "c"; "command" ] ~doc ~docv:"CMD")
  in
  let run file keyframe commands =
    match Replay.Store.open_ file with
    | Error e ->
        Printf.eprintf "psopt replay: %s: %s\n" file
          (Replay.Store.error_to_string e);
        exit_error
    | Ok r -> (
        if Replay.Store.index_rebuilt r then
          Obs.Log.warn ~src:"replay" "sidecar index was stale or damaged; rebuilt by scan"
            ~fields:[ ("file", file) ];
        let session = Replay.Session.load ~keyframe_every:keyframe r in
        Replay.Store.close_reader r;
        match session with
        | Error e ->
            Printf.eprintf "psopt replay: %s: %s\n" file
              (Replay.Store.error_to_string e);
            exit_error
        | Ok s ->
            let interactive = commands = [] in
            let eval line =
              match Replay.Proto.parse_command line with
              | Error msg ->
                  print_endline msg;
                  `Continue
              | Ok req -> (
                  match Replay.Proto.handle s req with
                  | Replay.Proto.Bye -> `Quit
                  | Replay.Proto.Err m ->
                      Printf.printf "error: %s\n" m;
                      `Continue
                  | Replay.Proto.Ok { text; _ } ->
                      print_endline text;
                      `Continue)
            in
            if interactive then begin
              (match Replay.Proto.handle s Replay.Proto.Info with
              | Replay.Proto.Ok { text; _ } -> print_endline text
              | _ -> ());
              print_endline "(h for help)";
              let rec loop () =
                print_string "(psopt) ";
                flush stdout;
                match In_channel.input_line stdin with
                | None -> exit_ok
                | Some line ->
                    if String.trim line = "" then loop ()
                    else
                      match eval line with
                      | `Quit -> exit_ok
                      | `Continue -> loop ()
              in
              loop ()
            end
            else begin
              let rec go = function
                | [] -> exit_ok
                | c :: rest -> (
                    match eval c with `Quit -> exit_ok | `Continue -> go rest)
              in
              go commands
            end)
  in
  let term = Term.(const run $ file $ keyframe $ command) in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Step through a recorded trace in either direction: s/b/j move, \
          mem and views render the machine state at any step, why/next \
          follow a location, prm jumps to the next promise \
          (docs/REPLAY.md).  Jumps replay O(K) steps from the nearest \
          keyframe, never the whole trace.")
    term

let shrink_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"TRACE" ~doc:"Replay store written by `psopt record`.")
  in
  let do_program =
    let doc =
      "Also shrink the program itself (drop threads and instructions, \
       collapse branches, shrink constants) while the recorded output \
       sequence stays observable, then record a fresh witness of the \
       reduced program."
    in
    Arg.(value & flag & info [ "program" ] ~doc)
  in
  let run file out do_program =
    match Replay.Store.open_ file with
    | Error e ->
        Printf.eprintf "psopt shrink: %s: %s\n" file
          (Replay.Store.error_to_string e);
        exit_error
    | Ok r -> (
        let records = Replay.Store.read_all r in
        let h = Replay.Store.header r in
        Replay.Store.close_reader r;
        match records with
        | Error e ->
            Printf.eprintf "psopt shrink: %s: %s\n" file
              (Replay.Store.error_to_string e);
            exit_error
        | Ok records -> (
            let config = h.Replay.Trace.config in
            let discipline = h.Replay.Trace.discipline in
            let outs = h.Replay.Trace.outs in
            let program = h.Replay.Trace.program in
            let w =
              List.filter_map
                (fun (r : Replay.Trace.record) ->
                  match r.Replay.Trace.event with
                  | Some e ->
                      Some { Explore.Witness.tid = r.Replay.Trace.tid; event = e }
                  | None -> None)
                records
            in
            match Replay.Shrink.schedule ~config ~discipline program w with
            | Error msg ->
                Printf.eprintf "psopt shrink: %s\n" msg;
                exit_error
            | Ok res -> (
                Printf.printf "switch points: %d -> %d (%d candidates tried)\n"
                  res.Replay.Shrink.switches_before
                  res.Replay.Shrink.switches_after
                  res.Replay.Shrink.candidates_tried;
                let note =
                  Printf.sprintf "shrunk from %s: %s" (Filename.basename file)
                    h.Replay.Trace.note
                in
                let finish result =
                  match result with
                  | Ok n ->
                      Printf.printf "recorded %d steps to %s\n" n out;
                      exit_ok
                  | Error msg ->
                      Printf.eprintf "psopt shrink: %s\n" msg;
                      exit_error
                in
                if not do_program then
                  finish
                    (Replay.Record.record_schedule ~config ~discipline ~note
                       ~outs ~path:out program res.Replay.Shrink.witness)
                else begin
                  let keep p =
                    Option.is_some
                      (Explore.Witness.find ~config ~discipline ~outs p)
                  in
                  let p', tried = Replay.Shrink.program ~keep program in
                  Printf.printf
                    "program: %d -> %d instructions, %d -> %d threads (%d \
                     candidates tried)\n"
                    (count_instrs program) (count_instrs p')
                    (List.length program.Lang.Ast.threads)
                    (List.length p'.Lang.Ast.threads)
                    tried;
                  print_string (Lang.Pp.program_to_string p');
                  (* the shrunk schedule belongs to the original
                     program; record a fresh minimal witness of the
                     reduced one *)
                  finish
                    (Replay.Record.record_witness ~config ~discipline ~note
                       ~outs ~path:out p')
                end)))
  in
  let term = Term.(const run $ file $ store_output_term $ do_program) in
  Cmd.v
    (Cmd.info "shrink"
       ~doc:
         "Minimize a recorded counterexample: ddmin over the schedule's \
          context-switch points (every candidate re-validated by \
          replaying it; the output sequence is preserved exactly), \
          optionally also shrinking the program, and write the reduced \
          trace as a new replay store (docs/REPLAY.md).")
    term

(* ------------------------------------------------------------------ *)
(* The verification service: serve / ping / submit / batch
   (docs/SERVICE.md).  The daemon and all clients default to the same
   per-user socket so `psopt serve` in one shell and `psopt submit`
   in another just work. *)

let default_socket =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "psopt-%d.sock" (Unix.getuid ()))

let socket_term =
  let doc = "Unix-domain socket the daemon serves on." in
  Arg.(value & opt string default_socket & info [ "socket" ] ~doc ~docv:"PATH")

(* Client-side mid-frame stall bound.  Only bounds bytes *within* a
   frame — waiting for a slow reply's first byte stays unbounded, so
   long explorations are unaffected; a torn or corrupted frame cannot
   park the client for the daemon's whole idle timeout. *)
let client_io_timeout_term =
  let doc =
    "Client I/O timeout in seconds: give up on a frame whose next byte \
     takes longer than this to arrive (<= 0 disables)."
  in
  Arg.(value & opt float 30.0 & info [ "io-timeout" ] ~doc ~docv:"SECONDS")

let io_timeout_opt s = if s <= 0.0 then None else Some s

let version_cmd =
  let run () =
    print_endline Service.Version.version;
    exit_ok
  in
  Cmd.v
    (Cmd.info "version"
       ~doc:
         "Print the version (substituted at build time from the \
          dune-project version), so deployed daemons and clients can be \
          matched.")
    Term.(const run $ const ())

let serve_cmd =
  let store =
    let doc = "Result-store directory (content-addressed cache)." in
    Arg.(value & opt string "_psopt_store" & info [ "store" ] ~doc ~docv:"DIR")
  in
  let no_store =
    Arg.(value & flag & info [ "no-store" ] ~doc:"Disable the result store.")
  in
  let queue =
    let doc =
      "Admission-queue bound: work requests beyond the one executing and \
       this many waiting are answered Busy."
    in
    Arg.(
      value
      & opt int Service.Server.default_capacity
      & info [ "queue" ] ~doc ~docv:"N")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet" ] ~doc:"No log lines on stderr.")
  in
  let io_timeout =
    let doc =
      "Mid-frame I/O deadline per connection in seconds: a peer that \
       stalls inside a frame (slowloris) or stops draining its reply is \
       evicted."
    in
    Arg.(value & opt float 10.0 & info [ "io-timeout" ] ~doc ~docv:"SECONDS")
  in
  let idle_timeout =
    let doc =
      "Between-frames deadline in seconds: how long a keep-alive \
       connection may sit idle before eviction."
    in
    Arg.(
      value & opt float 600.0 & info [ "idle-timeout" ] ~doc ~docv:"SECONDS")
  in
  let request_deadline =
    let doc =
      "Server-side cap on each work request's wall clock in milliseconds; \
       the effective deadline is the minimum of this and the client's \
       --deadline-ms.  Overruns surface as the honest inconclusive \
       verdict."
    in
    Arg.(
      value
      & opt (some int) None
      & info [ "request-deadline-ms" ] ~doc ~docv:"MS")
  in
  let queue_ttl =
    let doc =
      "How long a work request may wait in the admission queue in \
       milliseconds before it is answered Shed (0 disables the TTL)."
    in
    Arg.(value & opt int 60_000 & info [ "queue-ttl-ms" ] ~doc ~docv:"MS")
  in
  let run socket store no_store queue quiet io_timeout idle_timeout
      request_deadline queue_ttl trace =
    with_obs trace @@ fun () ->
    match
      Service.Server.run
        {
          Service.Server.socket;
          store_dir = (if no_store then None else Some store);
          capacity = queue;
          quiet;
          io_timeout_s = io_timeout;
          idle_timeout_s = idle_timeout;
          request_deadline_ms = request_deadline;
          queue_ttl_ms = (if queue_ttl <= 0 then None else Some queue_ttl);
        }
    with
    | Ok () -> exit_ok
    | Error msg ->
        Printf.eprintf "psopt serve: %s\n" msg;
        exit_error
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the verification daemon: accept clients on a Unix-domain \
          socket, serve explore/verify/races/litmus requests out of a \
          content-addressed result store, answer Busy beyond the admission \
          queue, shed expired or preempted queue entries, evict wedged \
          connections, and shut down gracefully on SIGINT/SIGTERM.")
    Term.(
      const run $ socket_term $ store $ no_store $ queue $ quiet $ io_timeout
      $ idle_timeout $ request_deadline $ queue_ttl $ obs_term)

let ping_cmd =
  let run socket =
    match Service.Client.ping ~socket with
    | Ok server_version ->
        Printf.printf "pong: psopt %s at %s\n" server_version socket;
        if server_version <> Service.Version.version then begin
          Obs.Log.warn ~src:"ping"
            "client and server versions differ (rebuild or redeploy)"
            ~fields:
              [
                ("client", Service.Version.version);
                ("server", server_version);
              ];
          exit_fail
        end
        else exit_ok
    | Error msg ->
        Printf.eprintf "psopt ping: %s\n" msg;
        exit_error
  in
  Cmd.v
    (Cmd.info "ping"
       ~doc:
         "Check the daemon is alive and that client and server versions \
          match.")
    Term.(const run $ socket_term)

(* What to ask the service for one program. *)
let service_cmd_term =
  let doc = "Query per program: explore, verify or races." in
  Arg.(
    value
    & opt (enum [ ("explore", `Explore); ("verify", `Verify); ("races", `Races) ])
        `Explore
    & info [ "cmd" ] ~doc)

let service_pass_term =
  let doc = "Optimizer for --cmd verify." in
  Arg.(value & opt string "dce" & info [ "pass" ] ~doc)

let work_of ~cmd ~pass ~disc p =
  match cmd with
  | `Explore -> Service.Proto.Explore (disc, p)
  | `Verify -> Service.Proto.Verify (pass, p)
  | `Races -> Service.Proto.Races p

(* Print a service reply the way the direct subcommand would: report
   on stdout, errors on stderr. *)
let print_reply (r : Service.Proto.reply) =
  if r.Service.Proto.exit_code = exit_error then
    prerr_string r.Service.Proto.output
  else print_string r.Service.Proto.output;
  r.Service.Proto.exit_code

(* Family filtering over exposition text: a line survives when its
   metric name starts with the prefix, and HELP/TYPE headers follow
   their family so greppable context is kept. *)
let filter_exposition prefix text =
  if prefix = "" then text
  else
    String.split_on_char '\n' text
    |> List.filter (fun line ->
           if line = "" then false
           else if String.starts_with ~prefix:"# " line then
             match String.split_on_char ' ' line with
             | "#" :: ("HELP" | "TYPE") :: name :: _ ->
                 String.starts_with ~prefix name
             | _ -> false
           else String.starts_with ~prefix line)
    |> List.map (fun l -> l ^ "\n")
    |> String.concat ""

let ansi_clear = "\027[2J\027[H"

let metrics_cmd =
  let filter =
    Arg.(
      value & opt string ""
      & info [ "filter" ] ~docv:"PREFIX"
          ~doc:"Only print metric families whose name starts with $(docv).")
  in
  let watch =
    Arg.(
      value & opt (some float) None
      & info [ "watch" ] ~docv:"SECS"
          ~doc:
            "Re-scrape every $(docv) seconds with a clear-screen between \
             scrapes (stop with Ctrl-C).")
  in
  let run socket filter watch =
    let scrape () =
      match Service.Client.metrics ~socket with
      | Ok text ->
          print_string (filter_exposition filter text);
          true
      | Error msg ->
          Printf.eprintf "psopt metrics: %s\n" msg;
          false
    in
    match watch with
    | None -> if scrape () then exit_ok else exit_error
    | Some period ->
        let period = Float.max 0.1 period in
        let ok = ref true in
        while !ok do
          print_string ansi_clear;
          ok := scrape ();
          flush stdout;
          if !ok then Unix.sleepf period
        done;
        exit_error
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Scrape a running daemon's metrics registry — counters, gauges \
          and latency histograms — in the Prometheus text exposition \
          format (docs/OBSERVABILITY.md).")
    Term.(const run $ socket_term $ filter $ watch)

let trace_check_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"Trace JSON file written by --trace.")
  in
  let min_events =
    Arg.(
      value & opt int 1
      & info [ "min-events" ] ~doc:"Require at least this many span events.")
  in
  let min_names =
    Arg.(
      value & opt int 1
      & info [ "min-names" ]
          ~doc:"Require at least this many distinct span names.")
  in
  let run file min_events min_names =
    match Obs.Trace.validate_file file with
    | Error msg ->
        Printf.eprintf "psopt trace-check: %s: %s\n" file msg;
        exit_fail
    | Ok shape ->
        let names = shape.Obs.Trace.names in
        Printf.printf "trace ok: %d events, %d distinct spans: %s\n"
          shape.Obs.Trace.n_events (List.length names)
          (String.concat " " names);
        if shape.Obs.Trace.n_events < min_events
           || List.length names < min_names
        then begin
          Printf.eprintf
            "psopt trace-check: expected at least %d events and %d distinct \
             span names\n"
            min_events min_names;
          exit_fail
        end
        else exit_ok
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a --trace output file against the Chrome trace_event \
          shape (the CI smoke check; no external tooling needed).")
    Term.(const run $ file $ min_events $ min_names)

let trace_merge_cmd =
  let inputs =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE"
          ~doc:"Trace JSON files written by --trace (client, daemon, ...).")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Merged trace destination.")
  in
  let run inputs output =
    match Obs.Trace.merge_files ~inputs ~output with
    | Ok n ->
        Printf.printf "merged %d events from %d traces into %s\n" n
          (List.length inputs) output;
        exit_ok
    | Error msg ->
        Printf.eprintf "psopt trace-merge: %s\n" msg;
        exit_error
  in
  Cmd.v
    (Cmd.info "trace-merge"
       ~doc:
         "Stitch several --trace files (e.g. a client's and the daemon's) \
          into one timeline: every input becomes its own pid track, \
          re-anchored onto a shared clock via the traces' baseNs stamps; \
          spans of one request line up by their trace_id args \
          (docs/OBSERVABILITY.md).")
    Term.(const run $ inputs $ output)

let submit_cmd =
  let files =
    let doc = "CSimpRTL program files." in
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let run socket io_timeout trace files cmd pass disc cfg =
    with_obs trace @@ fun () ->
    match
      Service.Client.connect ?io_timeout_s:(io_timeout_opt io_timeout) ~socket
        ()
    with
    | Error msg ->
        Printf.eprintf "psopt submit: %s\n" msg;
        exit_error
    | Ok client ->
        Fun.protect
          ~finally:(fun () -> Service.Client.close client)
          (fun () ->
            List.fold_left
              (fun worst file ->
                let code =
                  match read_program file with
                  | Error msg ->
                      Printf.eprintf "psopt: %s\n" msg;
                      exit_error
                  | Ok p -> (
                      let work = work_of ~cmd ~pass ~disc p in
                      match
                        Service.Client.rpc_wait client (work_req work cfg)
                      with
                      | Ok (Service.Proto.Reply r) ->
                          Printf.printf "== %s ==\n" file;
                          print_reply r
                      | Ok (Service.Proto.Busy _) ->
                          Printf.eprintf "psopt submit: %s: server busy\n" file;
                          exit_error
                      | Ok (Service.Proto.Shed { reason; _ }) ->
                          Printf.eprintf "psopt submit: %s: shed (%s)\n" file
                            (Service.Proto.shed_reason_to_string reason);
                          exit_error
                      | Ok (Service.Proto.Refused msg) ->
                          Printf.eprintf "psopt submit: %s: %s\n" file msg;
                          exit_error
                      | Ok _ ->
                          Printf.eprintf "psopt submit: %s: protocol error\n"
                            file;
                          exit_error
                      | Error msg ->
                          Printf.eprintf "psopt submit: %s: %s\n" file msg;
                          exit_error)
                in
                max worst code)
              exit_ok files)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Send programs to a running daemon (one --cmd query each) and \
          print the replies; results come from the store when cached.")
    Term.(
      const run $ socket_term $ client_io_timeout_term $ obs_term $ files
      $ service_cmd_term $ service_pass_term
      $ discipline_term $ config_term)

let batch_cmd =
  let litmus_flag =
    Arg.(
      value & flag
      & info [ "litmus" ]
          ~doc:"Stream the compiled-in litmus corpus instead of a directory.")
  in
  let dir =
    let doc = "Directory of programs (*.lit concrete syntax, *.sexp)." in
    Arg.(value & pos 0 (some dir) None & info [] ~docv:"DIR" ~doc)
  in
  let min_hit_rate =
    let doc =
      "Fail (exit 1) when the store hit rate falls below this percentage — \
       the CI warm-pass assertion."
    in
    Arg.(value & opt float 0.0 & info [ "min-hit-rate" ] ~doc ~docv:"PCT")
  in
  let run socket io_timeout trace litmus dir min_hit_rate cmd pass disc cfg =
    with_obs trace @@ fun () ->
    let targets =
      if litmus then
        Ok
          (List.map
             (fun (t : Litmus.t) ->
               (t.Litmus.name, `Work (Service.Proto.Litmus t.Litmus.name)))
             Litmus.all)
      else
        match dir with
        | None ->
            Error "psopt batch: need --litmus or a directory of programs"
        | Some d ->
            let files =
              Sys.readdir d |> Array.to_list
              |> List.filter (fun f ->
                     Filename.check_suffix f ".lit"
                     || Filename.check_suffix f ".sexp")
              |> List.sort compare
              |> List.map (fun f -> Filename.concat d f)
            in
            if files = [] then
              Error ("psopt batch: no *.lit or *.sexp programs in " ^ d)
            else
              Ok
                (List.map
                   (fun f ->
                     match
                       if Filename.check_suffix f ".sexp" then
                         match
                           Lang.Sexp.program_of_string (In_channel.with_open_bin f In_channel.input_all)
                         with
                         | Ok p -> Ok (Lang.Wf.check_exn p)
                         | Error e -> Error (f ^ ": " ^ e)
                       else read_program f
                     with
                     | Ok p -> (f, `Work (work_of ~cmd ~pass ~disc p))
                     | Error msg -> (f, `Parse_error msg))
                   files)
    in
    match targets with
    | Error msg ->
        Printf.eprintf "%s\n" msg;
        exit_error
    | Ok targets -> (
        match
          Service.Client.connect
            ?io_timeout_s:(io_timeout_opt io_timeout)
            ~socket ()
        with
        | Error msg ->
            Printf.eprintf "psopt batch: %s\n" msg;
            exit_error
        | Ok client ->
            Fun.protect
              ~finally:(fun () -> Service.Client.close client)
              (fun () ->
                let hits = ref 0 and misses = ref 0 in
                let ok = ref 0 and refuted = ref 0 in
                let inconclusive = ref 0 and errors = ref 0 in
                let count code =
                  if code = exit_ok then incr ok
                  else if code = exit_fail then incr refuted
                  else if code = exit_inconclusive then incr inconclusive
                  else incr errors
                in
                let worst =
                  List.fold_left
                    (fun worst (name, target) ->
                      let code =
                        match target with
                        | `Parse_error msg ->
                            Printf.eprintf "psopt: %s\n" msg;
                            exit_error
                        | `Work w -> (
                            match
                              Service.Client.rpc_wait client (work_req w cfg)
                            with
                            | Ok (Service.Proto.Reply r) ->
                                if r.Service.Proto.cached then incr hits
                                else incr misses;
                                print_reply r
                            | Ok (Service.Proto.Busy _) ->
                                Printf.eprintf
                                  "psopt batch: %s: server busy\n" name;
                                exit_error
                            | Ok (Service.Proto.Shed { reason; _ }) ->
                                Printf.eprintf "psopt batch: %s: shed (%s)\n"
                                  name
                                  (Service.Proto.shed_reason_to_string reason);
                                exit_error
                            | Ok (Service.Proto.Refused msg) ->
                                Printf.eprintf "psopt batch: %s: %s\n" name
                                  msg;
                                exit_error
                            | Ok _ ->
                                Printf.eprintf
                                  "psopt batch: %s: protocol error\n" name;
                                exit_error
                            | Error msg ->
                                Printf.eprintf "psopt batch: %s: %s\n" name
                                  msg;
                                exit_error)
                      in
                      count code;
                      max worst code)
                    exit_ok targets
                in
                let total = !hits + !misses in
                let rate =
                  if total = 0 then 0.0
                  else 100.0 *. float_of_int !hits /. float_of_int total
                in
                (* The daemon-side counters close the report: Busy
                   rejections are retried transparently by [rpc_wait]
                   and corruption misses are silently clean, so
                   neither is visible in the per-request loop above —
                   only the server's own accounting has them. *)
                let server_side =
                  match Service.Client.rpc client Service.Proto.Stats with
                  | Ok (Service.Proto.Stats_reply s) ->
                      Printf.sprintf
                        "; server: busy=%d shed=%d expired=%d evictions=%d \
                         corrupt-miss=%d errors=%d"
                        s.Service.Proto.busy_rejections s.Service.Proto.sheds
                        s.Service.Proto.expired s.Service.Proto.evictions
                        s.Service.Proto.store_corrupt s.Service.Proto.errors
                  | Ok _ | Error _ -> ""
                in
                (* client-side fault handling: how hard rpc_wait had
                   to work to get the answers above *)
                let client_side =
                  let cs = Service.Client.stats client in
                  if cs.Service.Client.retries = 0 then ""
                  else
                    Printf.sprintf
                      "; client: retries=%d reconnects=%d backoff=%.2fs \
                       breaker-trips=%d"
                      cs.Service.Client.retries cs.Service.Client.reconnects
                      cs.Service.Client.backoff_total_s
                      cs.Service.Client.breaker_trips
                in
                (* the summary goes to stderr so stdout stays
                   byte-identical to the direct subcommands *)
                Printf.eprintf
                  "psopt batch: %d requests — %d hits, %d misses (%.0f%% \
                   hit rate); verdicts: %d ok, %d refuted, %d inconclusive, \
                   %d errors%s%s\n"
                  total !hits !misses rate !ok !refuted !inconclusive !errors
                  server_side client_side;
                if rate < min_hit_rate then begin
                  Printf.eprintf
                    "psopt batch: hit rate %.0f%% below required %.0f%%\n"
                    rate min_hit_rate;
                  max worst exit_fail
                end
                else worst))
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Stream a directory of programs (or the litmus corpus) through a \
          running daemon and its result store; report hit/miss and verdict \
          counts on stderr, with stdout byte-identical to the direct \
          subcommands.")
    Term.(
      const run $ socket_term $ client_io_timeout_term $ obs_term $ litmus_flag
      $ dir $ min_hit_rate
      $ service_cmd_term $ service_pass_term $ discipline_term $ config_term)

let chaos_proxy_cmd =
  let listen =
    let doc = "Socket the proxy listens on (clients connect here)." in
    Arg.(
      required
      & opt (some string) None
      & info [ "listen" ] ~doc ~docv:"PATH")
  in
  let upstream =
    let doc = "The real daemon's socket the proxy forwards to." in
    Arg.(value & opt string default_socket & info [ "upstream" ] ~doc ~docv:"PATH")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ]
          ~doc:
            "Fault-schedule seed: the same seed replays the same faults \
             per connection and direction.")
  in
  let prob name what default =
    Arg.(
      value & opt float default
      & info [ name ] ~docv:"P" ~doc:("Per-chunk probability of " ^ what ^ "."))
  in
  let delay_p = prob "delay-p" "an injected delay" 0.25 in
  let tear_p = prob "tear-p" "a torn write (chunk split with a pause)" 0.3 in
  let corrupt_p = prob "corrupt-p" "flipping one byte" 0.05 in
  let disconnect_p = prob "disconnect-p" "dropping the connection" 0.04 in
  let max_delay =
    Arg.(
      value & opt float 0.02
      & info [ "max-delay" ] ~docv:"SECONDS"
          ~doc:"Injected delays are uniform in [0, max-delay].")
  in
  let duration =
    Arg.(
      value & opt float 0.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Stop after this many seconds (0 = run until SIGINT/SIGTERM).")
  in
  let run listen upstream seed delay_p max_delay_s tear_p corrupt_p
      disconnect_p duration =
    let plan =
      {
        Service.Chaos.seed;
        delay_p;
        max_delay_s;
        tear_p;
        corrupt_p;
        disconnect_p;
      }
    in
    match Service.Chaos.start ~plan ~listen ~upstream with
    | Error msg ->
        Printf.eprintf "psopt chaos-proxy: %s\n" msg;
        exit_error
    | Ok proxy ->
        let stop = ref false in
        List.iter
          (fun s ->
            try Sys.set_signal s (Sys.Signal_handle (fun _ -> stop := true))
            with Invalid_argument _ | Sys_error _ -> ())
          [ Sys.sigint; Sys.sigterm ];
        let t0 = Unix.gettimeofday () in
        while
          (not !stop)
          && (duration <= 0.0 || Unix.gettimeofday () -. t0 < duration)
        do
          Thread.delay 0.1
        done;
        Service.Chaos.stop proxy;
        let c = Service.Chaos.counts proxy in
        Printf.eprintf
          "psopt chaos-proxy: %d connections; injected %d delays, %d tears, \
           %d corruptions, %d disconnects\n"
          c.Service.Chaos.connections c.Service.Chaos.delays
          c.Service.Chaos.tears c.Service.Chaos.corruptions
          c.Service.Chaos.disconnects;
        exit_ok
  in
  Cmd.v
    (Cmd.info "chaos-proxy"
       ~doc:
         "Run the deterministic fault proxy in front of a daemon: forward \
          a listen socket to the daemon's socket while injecting seeded \
          delays, torn writes, byte corruption and disconnects — the \
          chaos-smoke harness (docs/ROBUSTNESS.md).")
    Term.(
      const run $ listen $ upstream $ seed $ delay_p $ max_delay $ tear_p
      $ corrupt_p $ disconnect_p $ duration)

(* ------------------------------------------------------------------ *)
(* Fleet load generation and the live dashboard (docs/SERVICE.md) *)

let ms_of_ns_f ns = float_of_int ns /. 1e6

let loadgen_json_of_report (r : Service.Loadgen.report) =
  let b = Buffer.create 1024 in
  let class_json (c : Service.Loadgen.class_stats) =
    let q = c.Service.Loadgen.latency in
    Printf.sprintf
      "{\"sent\": %d, \"ok\": %d, \"cached\": %d, \"shed\": %d, \"busy\": %d, \
       \"errors\": %d, \"p50_ms\": %.3f, \"p90_ms\": %.3f, \"p99_ms\": %.3f, \
       \"p999_ms\": %.3f, \"max_ms\": %.3f, \"mean_ms\": %.3f}"
      c.Service.Loadgen.sent c.Service.Loadgen.ok c.Service.Loadgen.cached
      c.Service.Loadgen.shed c.Service.Loadgen.busy c.Service.Loadgen.errors
      (ms_of_ns_f q.Service.Loadgen.Quantiles.p50_ns)
      (ms_of_ns_f q.Service.Loadgen.Quantiles.p90_ns)
      (ms_of_ns_f q.Service.Loadgen.Quantiles.p99_ns)
      (ms_of_ns_f q.Service.Loadgen.Quantiles.p999_ns)
      (ms_of_ns_f q.Service.Loadgen.Quantiles.max_ns)
      (q.Service.Loadgen.Quantiles.mean_ns /. 1e6)
  in
  let mode_json =
    match r.Service.Loadgen.mode with
    | Service.Loadgen.Closed -> "{\"kind\": \"closed\"}"
    | Service.Loadgen.Open { rate_hz; arrivals } ->
        Printf.sprintf "{\"kind\": \"open\", \"rate_hz\": %g, \"arrivals\": \"%s\"}"
          rate_hz
          (match arrivals with
          | Service.Loadgen.Poisson -> "poisson"
          | Service.Loadgen.Uniform -> "uniform")
  in
  Buffer.add_string b
    (Printf.sprintf
       "{\"mode\": %s, \"clients\": %d, \"wall_s\": %.3f, \
        \"throughput_rps\": %.1f, \"retries\": %d, \"reconnects\": %d, \
        \"transport_errors\": %d, \"late_sends\": %d, \"high\": %s, \
        \"normal\": %s, \"all\": %s}"
       mode_json r.Service.Loadgen.clients r.Service.Loadgen.wall_s
       r.Service.Loadgen.throughput_rps r.Service.Loadgen.retries
       r.Service.Loadgen.reconnects r.Service.Loadgen.transport_errors
       r.Service.Loadgen.late_sends
       (class_json r.Service.Loadgen.high)
       (class_json r.Service.Loadgen.normal)
       (class_json r.Service.Loadgen.all));
  Buffer.contents b

let print_report (r : Service.Loadgen.report) =
  let mode =
    match r.Service.Loadgen.mode with
    | Service.Loadgen.Closed -> "closed loop"
    | Service.Loadgen.Open { rate_hz; arrivals } ->
        Printf.sprintf "open loop @ %g req/s (%s)" rate_hz
          (match arrivals with
          | Service.Loadgen.Poisson -> "poisson"
          | Service.Loadgen.Uniform -> "uniform")
  in
  Printf.printf "loadgen: %s, %d clients, %.1fs measured\n" mode
    r.Service.Loadgen.clients r.Service.Loadgen.wall_s;
  Printf.printf "  %-7s %8s %8s %7s %6s %6s %5s %9s %9s %9s %9s %9s\n" "class"
    "sent" "ok" "cached" "shed" "busy" "err" "p50ms" "p90ms" "p99ms" "p99.9ms"
    "maxms";
  let row name (c : Service.Loadgen.class_stats) =
    let q = c.Service.Loadgen.latency in
    Printf.printf
      "  %-7s %8d %8d %7d %6d %6d %5d %9.2f %9.2f %9.2f %9.2f %9.2f\n" name
      c.Service.Loadgen.sent c.Service.Loadgen.ok c.Service.Loadgen.cached
      c.Service.Loadgen.shed c.Service.Loadgen.busy c.Service.Loadgen.errors
      (ms_of_ns_f q.Service.Loadgen.Quantiles.p50_ns)
      (ms_of_ns_f q.Service.Loadgen.Quantiles.p90_ns)
      (ms_of_ns_f q.Service.Loadgen.Quantiles.p99_ns)
      (ms_of_ns_f q.Service.Loadgen.Quantiles.p999_ns)
      (ms_of_ns_f q.Service.Loadgen.Quantiles.max_ns)
  in
  row "high" r.Service.Loadgen.high;
  row "normal" r.Service.Loadgen.normal;
  row "all" r.Service.Loadgen.all;
  Printf.printf
    "  throughput %.1f req/s; retries %d, reconnects %d, transport errors \
     %d, late sends %d\n"
    r.Service.Loadgen.throughput_rps r.Service.Loadgen.retries
    r.Service.Loadgen.reconnects r.Service.Loadgen.transport_errors
    r.Service.Loadgen.late_sends

let loadgen_cmd =
  let clients =
    Arg.(
      value & opt int 32
      & info [ "clients" ] ~docv:"N"
          ~doc:"Concurrent client connections (worker threads).")
  in
  let rate =
    Arg.(
      value & opt float 0.0
      & info [ "rate" ] ~docv:"HZ"
          ~doc:
            "Open-loop offered arrival rate in requests/second; 0 (default) \
             runs closed-loop.")
  in
  let arrivals =
    let arrivals_conv =
      Arg.enum
        [
          ("poisson", Service.Loadgen.Poisson);
          ("uniform", Service.Loadgen.Uniform);
        ]
    in
    Arg.(
      value & opt arrivals_conv Service.Loadgen.Poisson
      & info [ "arrivals" ] ~docv:"DIST"
          ~doc:"Open-loop interarrival process: $(b,poisson) or $(b,uniform).")
  in
  let duration =
    Arg.(
      value & opt float 10.0
      & info [ "duration" ] ~docv:"SECS" ~doc:"Measured phase length.")
  in
  let warmup =
    Arg.(
      value & opt float 2.0
      & info [ "warmup" ] ~docv:"SECS"
          ~doc:"Warmup phase: traffic is sent but not counted.")
  in
  let high_pct =
    Arg.(
      value & opt int 90
      & info [ "high-pct" ] ~docv:"PCT"
          ~doc:
            "Percentage of requests drawn from the litmus corpus \
             (High-priority, cache-friendly); the rest are distinct \
             stress-generated explorations.")
  in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ]
          ~doc:"PRNG seed: mix and arrival schedule are pure functions of it.")
  in
  let retries =
    Arg.(
      value & opt int 0
      & info [ "retries" ]
          ~doc:
            "rpc_wait retry budget per request (0 = single shot, so Busy and \
             Shed answers are visible in the accounting, not hidden by the \
             client library).")
  in
  let prewarm =
    Arg.(
      value & flag
      & info [ "prewarm" ]
          ~doc:
            "Push the whole litmus corpus through one connection before the \
             clock starts, so a store-backed daemon measures warm.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the report as JSON.")
  in
  let saturation =
    Arg.(
      value & opt string ""
      & info [ "saturation" ] ~docv:"R1,R2,..."
          ~doc:
            "Stepped saturation search: rerun open-loop at each offered rate \
             until the SLO (--slo-p99-ms / --slo-shed-pct) breaks, and \
             report the knee — the last rate that passed.")
  in
  let slo_p99 =
    Arg.(
      value & opt (some float) None
      & info [ "slo-p99-ms" ] ~docv:"MS"
          ~doc:"Saturation SLO: all-class p99 ceiling.")
  in
  let slo_shed =
    Arg.(
      value & opt (some float) None
      & info [ "slo-shed-pct" ] ~docv:"PCT"
          ~doc:"Saturation SLO: ceiling on (shed+busy)/sent percentage.")
  in
  let max_p99 =
    Arg.(
      value & opt (some float) None
      & info [ "max-p99-ms" ] ~docv:"MS"
          ~doc:"Gate: fail (exit 1) when the all-class p99 exceeds this.")
  in
  let max_transport =
    Arg.(
      value & opt (some int) None
      & info [ "max-transport-errors" ] ~docv:"N"
          ~doc:"Gate: fail (exit 1) on more than N transport errors.")
  in
  let run socket io_timeout clients rate arrivals duration warmup high_pct
      seed retries prewarm json saturation slo_p99 slo_shed max_p99
      max_transport =
    let mode =
      if rate <= 0.0 then Service.Loadgen.Closed
      else Service.Loadgen.Open { rate_hz = rate; arrivals }
    in
    let cfg =
      {
        Service.Loadgen.socket;
        clients;
        mode;
        warmup_s = warmup;
        duration_s = duration;
        high_pct;
        seed;
        io_timeout_s = io_timeout_opt io_timeout;
        retries;
        prewarm;
        work_config = Service.Loadgen.default_work_config;
      }
    in
    let write_json payload =
      match json with
      | None -> exit_ok
      | Some file -> (
          match open_out file with
          | exception Sys_error m ->
              Printf.eprintf "psopt loadgen: cannot write %s: %s\n" file m;
              exit_error
          | oc ->
              output_string oc payload;
              output_char oc '\n';
              close_out oc;
              exit_ok)
    in
    let gates (r : Service.Loadgen.report) =
      let p99_ms = ms_of_ns_f r.Service.Loadgen.all.Service.Loadgen.latency.Service.Loadgen.Quantiles.p99_ns in
      let bad = ref false in
      (match max_p99 with
      | Some ceiling when p99_ms > ceiling ->
          Printf.eprintf "psopt loadgen: p99 %.2fms exceeds gate %.2fms\n"
            p99_ms ceiling;
          bad := true
      | _ -> ());
      (match max_transport with
      | Some n when r.Service.Loadgen.transport_errors > n ->
          Printf.eprintf "psopt loadgen: %d transport errors exceed gate %d\n"
            r.Service.Loadgen.transport_errors n;
          bad := true
      | _ -> ());
      !bad
    in
    let rates =
      if saturation = "" then []
      else
        try
          List.map
            (fun s -> float_of_string (String.trim s))
            (String.split_on_char ',' saturation)
        with Failure _ -> []
    in
    if saturation <> "" && rates = [] then begin
      Printf.eprintf "psopt loadgen: cannot parse --saturation %S\n" saturation;
      exit_error
    end
    else if rates = [] then begin
      match Service.Loadgen.run cfg with
      | Error msg ->
          Printf.eprintf "psopt loadgen: %s\n" msg;
          exit_error
      | Ok r ->
          print_report r;
          let code = write_json (loadgen_json_of_report r) in
          if gates r then exit_fail else code
    end
    else begin
      let slo =
        { Service.Loadgen.slo_p99_ms = slo_p99; slo_shed_pct = slo_shed }
      in
      match Service.Loadgen.saturation cfg ~slo ~rates with
      | Error msg ->
          Printf.eprintf "psopt loadgen: %s\n" msg;
          exit_error
      | Ok sat ->
          List.iter
            (fun (s : Service.Loadgen.sat_step) ->
              Printf.printf "== offered %g req/s: %s (shed %.1f%%) ==\n"
                s.Service.Loadgen.rate_hz
                (if s.Service.Loadgen.passed then "SLO ok" else "SLO broken")
                (Service.Loadgen.shed_pct s.Service.Loadgen.step_report);
              print_report s.Service.Loadgen.step_report)
            sat.Service.Loadgen.steps;
          (match sat.Service.Loadgen.knee_hz with
          | Some k -> Printf.printf "saturation knee: %g req/s\n" k
          | None -> Printf.printf "saturation knee: below the first step\n");
          let steps_json =
            String.concat ", "
              (List.map
                 (fun (s : Service.Loadgen.sat_step) ->
                   Printf.sprintf
                     "{\"rate_hz\": %g, \"passed\": %b, \"report\": %s}"
                     s.Service.Loadgen.rate_hz s.Service.Loadgen.passed
                     (loadgen_json_of_report s.Service.Loadgen.step_report))
                 sat.Service.Loadgen.steps)
          in
          write_json
            (Printf.sprintf "{\"steps\": [%s], \"knee_hz\": %s}" steps_json
               (match sat.Service.Loadgen.knee_hz with
               | Some k -> Printf.sprintf "%g" k
               | None -> "null"))
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running daemon with concurrent synthetic clients — \
          closed-loop (N persistent clients) or open-loop (seeded \
          Poisson/uniform arrivals at a fixed rate, latency recorded \
          against the intended start so coordinated omission cannot \
          flatter the tail) — and report per-class exact \
          p50/p90/p99/p99.9, throughput and shed/retry/Busy accounting \
          (docs/SERVICE.md).")
    Term.(
      const run $ socket_term $ client_io_timeout_term $ clients $ rate
      $ arrivals $ duration $ warmup $ high_pct $ seed $ retries $ prewarm
      $ json $ saturation $ slo_p99 $ slo_shed $ max_p99 $ max_transport)

(* ---- psopt top: the live terminal dashboard ---- *)

let spark values =
  let blocks = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |] in
  match values with
  | [] -> ""
  | _ ->
      let mx = List.fold_left Float.max 0.0 values in
      String.concat ""
        (List.map
           (fun v ->
             if mx <= 0.0 then blocks.(0)
             else blocks.(min 7 (int_of_float (v /. mx *. 7.99))))
           values)

(* One parsed scrape, reduced to what the dashboard needs: plain
   name-summed values (labels folded away) and the cumulative bucket
   vectors of the two service histograms. *)
let scrape_view text =
  let exposed = Obs.Metrics.parse_exposition text in
  let value name =
    List.fold_left
      (fun acc (e : Obs.Metrics.exposed) ->
        if e.Obs.Metrics.ex_name = name then acc +. e.Obs.Metrics.ex_value
        else acc)
      0.0 exposed
  in
  let buckets family =
    List.filter_map
      (fun (e : Obs.Metrics.exposed) ->
        if e.Obs.Metrics.ex_name = family ^ "_bucket" then
          match List.assoc_opt "le" e.Obs.Metrics.ex_labels with
          | Some "+Inf" -> Some (infinity, e.Obs.Metrics.ex_value)
          | Some le -> (
              match float_of_string_opt le with
              | Some b -> Some (b, e.Obs.Metrics.ex_value)
              | None -> None)
          | None -> None
        else None)
      exposed
    |> List.sort compare
  in
  (value, buckets)

let top_cmd =
  let interval =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECS" ~doc:"Refresh period.")
  in
  let count =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop after N refreshes (0 = run until Ctrl-C) — the CI hook.")
  in
  let run socket interval count =
    let interval = Float.max 0.1 interval in
    (* derived per-window figures ride an Obs.Series ring so the
       sparklines show the last minute of history *)
    let history = Obs.Series.create ~capacity:60 ~interval_s:interval () in
    let prev = ref None in
    let iterations = ref 0 in
    let errors = ref 0 in
    let delta_buckets ~now ~before =
      List.map
        (fun (le, cum) ->
          let cum0 =
            match List.assoc_opt le before with Some c -> c | None -> 0.0
          in
          (le, cum -. cum0))
        now
    in
    let render () =
      match Service.Client.metrics ~socket with
      | Error msg ->
          incr errors;
          Printf.eprintf "psopt top: %s\n" msg;
          !errors < 5
      | Ok text ->
          errors := 0;
          let value, buckets = scrape_view text in
          let served = value "psopt_service_served_total" in
          let req_b = buckets "psopt_service_request_duration_ns" in
          let queue_b = buckets "psopt_service_queue_wait_ns" in
          let now = Unix.gettimeofday () in
          (match !prev with
          | None -> ()
          | Some (t_prev, served_prev, req_prev, queue_prev) ->
              let dt = Float.max (now -. t_prev) 1e-3 in
              let qps = Float.max 0.0 ((served -. served_prev) /. dt) in
              let dreq = delta_buckets ~now:req_b ~before:req_prev in
              let p50 =
                Obs.Metrics.quantile_from_cumulative dreq ~q:0.5 /. 1e6
              in
              let p99 =
                Obs.Metrics.quantile_from_cumulative dreq ~q:0.99 /. 1e6
              in
              let dqueue = delta_buckets ~now:queue_b ~before:queue_prev in
              let qwait_p99 =
                Obs.Metrics.quantile_from_cumulative dqueue ~q:0.99 /. 1e6
              in
              let hits = value "psopt_service_store_hits_total" in
              let misses = value "psopt_service_store_misses_total" in
              let hit_rate =
                if hits +. misses <= 0.0 then 0.0
                else 100.0 *. hits /. (hits +. misses)
              in
              Obs.Series.push history
                [ ("qps", qps); ("p50_ms", p50); ("p99_ms", p99) ];
              print_string ansi_clear;
              Printf.printf "psopt top — %s — every %.1fs\n\n" socket interval;
              Printf.printf "  %-16s %10.1f  %s\n" "qps" qps
                (spark (Obs.Series.values history "qps"));
              Printf.printf "  %-16s %10.2f  %s\n" "p50 ms" p50
                (spark (Obs.Series.values history "p50_ms"));
              Printf.printf "  %-16s %10.2f  %s\n" "p99 ms" p99
                (spark (Obs.Series.values history "p99_ms"));
              Printf.printf "  %-16s %10.2f\n" "queue p99 ms" qwait_p99;
              Printf.printf "  %-16s %10.0f\n" "handler threads"
                (value "psopt_service_handler_threads");
              Printf.printf "  %-16s %10.0f\n" "inflight"
                (value "psopt_service_inflight");
              Printf.printf "  %-16s %10.0f\n" "sheds"
                (value "psopt_service_shed_total");
              Printf.printf "  %-16s %10.0f\n" "busy"
                (value "psopt_service_busy_total");
              Printf.printf "  %-16s %9.1f%%\n" "store hit rate" hit_rate;
              Printf.printf "  %-16s %10.0f\n" "served total" served;
              Printf.printf "  %-16s %10.0f\n" "spans dropped"
                (value "psopt_obs_spans_dropped_total");
              flush stdout);
          prev := Some (now, served, req_b, queue_b);
          true
    in
    let continue = ref true in
    while
      !continue && (count = 0 || !iterations < count + 1)
      (* the first scrape only seeds the window *)
    do
      continue := render ();
      incr iterations;
      if !continue && (count = 0 || !iterations < count + 1) then
        Unix.sleepf interval
    done;
    if !errors > 0 then exit_error else exit_ok
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a running daemon's Metrics RPC: \
          qps, windowed p50/p99, queue wait, handler threads, sheds and \
          store hit-rate, with sparkline history (docs/OBSERVABILITY.md).")
    Term.(const run $ socket_term $ interval $ count)

let () =
  let info =
    Cmd.info "psopt" ~version:Service.Version.version
      ~doc:
        "Verifying optimizations of concurrent programs in the promising \
         semantics (PLDI 2022) — executable reproduction."
  in
  let code =
    Cmd.eval'
      (Cmd.group info
         [
           parse_cmd;
           run_cmd;
           sample_cmd;
           explore_cmd;
           opt_cmd;
           refine_cmd;
           races_cmd;
           sim_cmd;
           verify_cmd;
           witness_cmd;
           litmus_cmd;
           stress_cmd;
           record_cmd;
           replay_cmd;
           shrink_cmd;
           version_cmd;
           serve_cmd;
           ping_cmd;
           metrics_cmd;
           trace_check_cmd;
           trace_merge_cmd;
           submit_cmd;
           batch_cmd;
           chaos_proxy_cmd;
           loadgen_cmd;
           top_cmd;
         ])
  in
  (* cmdliner reports CLI/usage problems as 124/125; fold them into
     the documented usage-error code. *)
  exit (if code >= 123 then exit_error else code)
