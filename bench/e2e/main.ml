(* The end-to-end benchmark's worker.  [bench/e2e/run.py] builds it,
   runs it in a fresh process per rep and aggregates what each process
   prints (bench/e2e/README.md).

     main.exe rep WORKLOAD SEED REP   set up, run the rep's fixed work,
                                      print one JSON line
     main.exe reference WORKLOAD SEED print "case_seed class" lines: the
                                      unreduced verdicts the reps' fuzz
                                      cases are checked against
     main.exe traced WORKLOAD SEED    rep 0's work run plain and through
                                      the instrumented stage calls, plus
                                      the layer microbenchmarks; one JSON
                                      line
     main.exe serve SOCKET STORE      the daemon daemon_mix talks to

   Flags: [--smoke] (tiny inputs), [--tmp DIR] (sockets and stores),
   [--trace-file FILE] (traced: write the spans there).  Reference
   verdicts, where a mode needs them, arrive on stdin. *)

module W = Workloads

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Output *)

type json = Num of float | Int of int | Str of string | Arr of json list | Obj of (string * json) list

let rec json = function
  | Num f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s ->
      let b = Buffer.create (String.length s + 2) in
      Buffer.add_char b '"';
      String.iter
        (function
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char b c)
        s;
      Buffer.add_char b '"';
      Buffer.contents b
  | Arr l -> "[" ^ String.concat "," (List.map json l) ^ "]"
  | Obj kvs ->
      "{" ^ String.concat "," (List.map (fun (k, v) -> json (Str k) ^ ":" ^ json v) kvs) ^ "}"

let nums l = Arr (List.map (fun f -> Num f) l)

(* Linearly interpolated [q]-quantile, as run.py computes them. *)
let percentile q l =
  let a = Array.of_list (List.sort compare l) in
  let pos = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float pos in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let metrics kvs = Obj (List.map (fun (k, v) -> (k, Num v)) kvs)

(* Peak resident set of a process, from Linux's VmHWM. *)
let peak_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%s/status" pid) (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* Reference classes piped in by run.py: one "case_seed class" line
   each. *)
let read_refs () =
  let refs = Hashtbl.create 512 in
  In_channel.input_lines stdin
  |> List.iter (fun l ->
         if String.trim l <> "" then
           Scanf.sscanf l "%d %c" (fun s c -> Hashtbl.replace refs s (W.cls_of_char c)));
  refs

(* The tally every mode reports.  Each counted operation is decided,
   undecided, wrong or failed; [wrong] also collects answers checked
   outside the timed operations (prewarm replies, a staged verdict that
   disagrees with [Verif.check]). *)
type tally = { mutable attempted : int; mutable decided : int; mutable failed : int; mutable wrong : string list }

let tally () = { attempted = 0; decided = 0; failed = 0; wrong = [] }

let count t label (o : W.outcome) =
  t.attempted <- t.attempted + 1;
  match o with
  | W.Decided -> t.decided <- t.decided + 1
  | W.Undecided -> ()
  | W.Wrong why -> t.wrong <- (label ^ ": " ^ why) :: t.wrong
  | W.Failed why ->
      t.failed <- t.failed + 1;
      prerr_endline ("e2e: " ^ label ^ " failed: " ^ why)

let tally_fields t =
  List.iter (fun w -> prerr_endline ("e2e: WRONG " ^ w)) t.wrong;
  [
    ("attempted", Int t.attempted);
    ("decided", Int t.decided);
    ("failed", Int t.failed);
    ("wrong", Int (List.length t.wrong));
  ]

(* ------------------------------------------------------------------ *)
(* Batch workloads: one library call per item *)

let batch_items ~smoke ~seed ~rep = function
  | "paper_verify" -> W.paper ~smoke ~seed
  | "fuzz_verify" -> W.fuzz ~smoke ~seed ~rep
  | "explore_large" -> W.explore_large ~smoke ~seed
  | w -> failwith ("unknown workload " ^ w)

type result = {
  latency : float;
  outcome : W.outcome;
  cls : W.cls option;  (** verify items: the verdict class *)
  exchange : Layers.exchange option;  (** the item as daemon traffic *)
}

let timed f =
  let t0 = now () in
  let r =
    match f () with
    | v -> Ok v
    | exception Explore.Errors.Error (Explore.Errors.Budget_exhausted _) -> Error None
    | exception e -> Error (Some (Printexc.to_string e))
  in
  (now () -. t0, r)

let settle judge = function
  | Ok v -> judge v
  | Error None -> W.Undecided
  | Error (Some why) -> W.Failed why

let exchange work wconfig program (output, exit_code) =
  Some { Layers.work; wconfig; program; output; exit_code }

(* Each item starts from a collected heap, as it would in a fresh
   [psopt] process: otherwise the garbage of one item is collected on
   the next one's clock, and the heap's peak depends on the order the
   seed put the items in. *)
let run_item ~refs item =
  Gc.full_major ();
  let result latency outcome ?cls exchange = { latency; outcome; cls; exchange } in
  match item with
  | W.Verify v ->
      let dt, r =
        timed (fun () -> Sim.Verif.check ~explore_config:v.W.config v.W.pass v.W.prog)
      in
      let cls = Result.to_option r |> Option.map W.cls_of_verdict in
      result dt
        (settle (fun _ -> W.judge_cls ~refs v (Option.get cls)) r)
        ?cls
        (Option.bind (Result.to_option r) (fun verdict ->
             exchange
               (Service.Proto.Verify (v.W.pass.Sim.Verif.name, v.W.prog))
               v.W.config v.W.prog
               (Service.Render.verify ~pass:v.W.pass.Sim.Verif.name verdict)))
  | W.Litmus t ->
      let dt, r = timed (fun () -> Litmus.check t) in
      result dt (settle W.judge_litmus r)
        (Option.bind (Result.to_option r) (fun res ->
             exchange (Service.Proto.Litmus t.Litmus.name) Explore.Config.default t.Litmus.prog
               (Service.Render.litmus t res)))
  | W.Refine_row { target; source; refines; _ } ->
      let dt, r =
        timed (fun () ->
            match (Explore.Refine.check ~target ~source ()).Explore.Refine.verdict with
            | Explore.Refine.Refines -> `Refines
            | Explore.Refine.Violates _ -> `Violates
            | Explore.Refine.Inconclusive _ -> `Inconclusive)
      in
      result dt (settle (W.judge_refine ~refines) r) None
  | W.Sim_row { inv; target; source; fails_on; _ } ->
      let dt, r = timed (fun () -> Sim.Simcheck.check_program ~inv ~target ~source ()) in
      result dt (settle (W.judge_sim ~fails_on) r) None
  | W.Explore e ->
      let dt, r =
        timed (fun () ->
            Explore.Enum.behaviors_exn ~config:e.W.econfig Explore.Enum.Interleaving e.W.program)
      in
      result dt (settle (W.judge_explore e) r)
        (Option.bind (Result.to_option r) (fun o ->
             exchange
               (Service.Proto.Explore (Explore.Enum.Interleaving, e.W.program))
               e.W.econfig e.W.program
               (Service.Render.explore Explore.Enum.Interleaving o)))

(* The same item through the instrumented, stage-split calls; also
   returns a verify item's verdict class, which must be
   [Verif.check]'s. *)
let run_staged ~refs item =
  match
    Layers.item (W.item_label item) (fun () ->
          match item with
          | W.Verify v ->
              let c = Layers.verify v in
              (W.judge_cls ~refs v c, Some c)
          | W.Litmus t ->
              ( W.judge_litmus (Layers.span ~layer:"litmus" "litmus.check" (fun () -> Litmus.check t)),
                None )
          | W.Refine_row { target; source; refines; _ } ->
              (W.judge_refine ~refines (Layers.refine Explore.Config.default ~target ~source), None)
          | W.Sim_row { inv; target; source; fails_on; _ } ->
              ( W.judge_sim ~fails_on
                  (Layers.span ~layer:"sim" "sim.check" (fun () ->
                       Sim.Simcheck.check_program ~inv ~target ~source ())),
                None )
          | W.Explore e ->
              ( W.judge_explore e
                  (Layers.span ~layer:"enum" "enum.explore" (fun () ->
                       Explore.Enum.behaviors_exn ~config:e.W.econfig Explore.Enum.Interleaving
                         e.W.program)),
                None ))
  with
  | r -> r
  | exception Explore.Errors.Error (Explore.Errors.Budget_exhausted _) -> (W.Undecided, None)
  | exception e -> (W.Failed (Printexc.to_string e), None)

(* A verify item's two verdict classes must agree; under a deadline an
   inconclusive side is timing, not a disagreement. *)
let disagreement item (plain : result) staged =
  match (item, plain.cls, staged) with
  | W.Verify v, Some p, Some c
    when p <> c
         && not
              (v.W.config.Explore.Config.deadline_ms <> None
              && (p = W.Inconclusive || c = W.Inconclusive)) ->
      Some
        (Printf.sprintf "staged pipeline gives %c, Verif.check %c" (W.char_of_cls c)
           (W.char_of_cls p))
  | _ -> None

let item_programs = function
  | W.Verify v -> [ v.W.prog ]
  | W.Litmus t -> [ t.Litmus.prog ]
  | W.Refine_row { target; source; _ } | W.Sim_row { target; source; _ } -> [ target; source ]
  | W.Explore e -> [ e.W.program ]

(* ------------------------------------------------------------------ *)
(* daemon_mix: a daemon in its own process, two client connections *)

type server = { pid : int; socket : string; out : in_channel }

let start_server dir =
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "d.sock" in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "serve"; socket; Filename.concat dir "store" |]
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let srv = { pid; socket; out } in
  at_exit (fun () -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  match In_channel.input_line out with
  | Some "ready" -> srv
  | _ -> failwith "daemon did not start"

let stop_server srv =
  (match Service.Client.shutdown ~socket:srv.socket with
  | Ok () -> ()
  | Error _ -> Unix.kill srv.pid Sys.sigterm);
  ignore (Unix.waitpid [] srv.pid);
  close_in srv.out

let scrape srv =
  match Service.Client.metrics ~socket:srv.socket with
  | Ok text -> Obs.Metrics.parse_exposition text
  | Error e -> failwith ("metrics scrape: " ^ e)

let work_of = function
  | W.Fresh v | W.Hot v -> Service.Proto.Verify (v.W.pass.Sim.Verif.name, v.W.prog)
  | W.Named t -> Service.Proto.Litmus t.Litmus.name

let program_of = function W.Fresh v | W.Hot v -> v.W.prog | W.Named t -> t.Litmus.prog
let wire r = Service.Proto.Work (work_of r, Explore.Config.default, None)

let request_label = function
  | W.Fresh v -> "fresh/" ^ v.W.label
  | W.Hot v -> "hot/" ^ v.W.label
  | W.Named t -> "litmus/" ^ t.Litmus.name

let judge_response ~refs req (_, _, response) =
  match response with
  | Error e -> W.Failed e
  | Ok (Service.Proto.Reply r) -> W.judge_reply ~refs req r
  | Ok _ -> W.Failed "busy, shed or refused"

(* Closed loop over [reqs]: each request goes out when the previous
   reply is in.  Entries are (sent_ns, received_ns, response).  One
   connection: with two, a store hit waits for the daemon's runtime
   lock whenever the other connection's miss is computing, and on a
   2-vCPU host the median latency then moved by half between runs of
   the same seed range; with one it moved by a tenth. *)
let drive ~socket reqs =
  match Service.Client.connect ~socket () with
  | Error e -> failwith ("connect: " ^ e)
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          Array.map
            (fun r ->
              let t0 = Obs.Clock.now_ns () in
              let response = Service.Client.rpc c (wire r) in
              (t0, Obs.Clock.now_ns (), response))
            reqs)

(* Store the hot set and the litmus corpus before timing, so that
   re-submissions are hits.  Wrong answers count; a failure aborts. *)
let prewarm ~refs ~seed t srv =
  let reqs =
    Array.of_list
      (List.map (fun v -> W.Hot v) (W.hot_set ~seed) @ List.map (fun l -> W.Named l) Litmus.all)
  in
  Array.iteri
    (fun i r ->
      match judge_response ~refs reqs.(i) r with
      | W.Failed why -> failwith ("prewarm " ^ request_label reqs.(i) ^ ": " ^ why)
      | W.Wrong why -> t.wrong <- (request_label reqs.(i) ^ ": " ^ why) :: t.wrong
      | W.Decided | W.Undecided -> ())
    (drive ~socket:srv.socket reqs)

let latency_s (t0, t1, _) = float_of_int (t1 - t0) /. 1e9

(* ------------------------------------------------------------------ *)
(* Modes *)

let rep ~smoke ~tmp ~workload ~seed ~rep =
  let t = tally () in
  let fields =
    if workload = "daemon_mix" then begin
      let refs = read_refs () in
      let reqs = Array.of_list (W.daemon_requests ~smoke ~seed ~rep) in
      let srv = start_server (Filename.concat tmp (Printf.sprintf "rep%d" rep)) in
      prewarm ~refs ~seed t srv;
      let m0 = now () in
      let results = drive ~socket:srv.socket reqs in
      let rss = peak_rss_mb (string_of_int srv.pid) in
      stop_server srv;
      Array.iteri (fun i r -> count t (request_label reqs.(i)) (judge_response ~refs reqs.(i) r)) results;
      [
        ("ready_at", Num m0);
        ("latency_s", nums (List.map latency_s (Array.to_list results)));
        ("peak_rss_mb", Num rss);
      ]
    end
    else begin
      let refs = if workload = "fuzz_verify" then read_refs () else Hashtbl.create 1 in
      let items = batch_items ~smoke ~seed ~rep workload in
      let m0 = now () in
      let results = List.map (run_item ~refs) items in
      List.iter2 (fun item r -> count t (W.item_label item) r.outcome) items results;
      [
        ("ready_at", Num m0);
        ("keys", Arr (List.map (fun item -> Str (W.item_label item)) items));
        ("latency_s", nums (List.map (fun r -> r.latency) results));
        ("peak_rss_mb", Num (peak_rss_mb "self"));
      ]
    end
  in
  let config = Format.asprintf "%a" Explore.Config.pp Explore.Config.default in
  print_endline (json (Obj ((("config", Str config) :: fields) @ tally_fields t)))

(* Rep 0..2 always run; their leading cases get reference verdicts. *)
let reference ~smoke ~workload ~seed =
  let reps = if smoke then [ 0 ] else [ 0; 1; 2 ] in
  let cases =
    match workload with
    | "fuzz_verify" ->
        List.concat_map
          (fun rep ->
            W.fuzz_cases ~base:(W.case_base ~seed ~rep ~use:0) (if smoke then 20 else 120))
          reps
    | "daemon_mix" ->
        W.hot_set ~seed
        @ List.concat_map
            (fun rep -> W.fuzz_cases ~base:(W.case_base ~seed ~rep ~use:2) (if smoke then 5 else 40))
            reps
    | _ -> []
  in
  List.iter
    (fun (v : W.verify) ->
      let c = W.reference v in
      Printf.printf "%d %c\n%!" (Option.get v.W.case_seed) (W.char_of_cls c))
    cases

(* What a traced pass hands back besides its spans. *)
type pass = {
  untraced_s : float;  (** the same work, uninstrumented *)
  programs : Lang.Ast.program list;
  exchanges : Layers.exchange list;
  enum_s : float option;  (** daemon: the daemon's request time *)
  service : (string * float) list;  (** daemon: service-side detail *)
}

(* [observe scrape f] runs [f] and adds its counter deltas, minor words
   and major collections to the pass totals. *)
type observer = {
  observe : 'a. (unit -> Layers.scrape) -> (unit -> 'a) -> 'a * Layers.scrape * Layers.scrape;
}

let batch_pass ~smoke ~seed ~refs ~workload t o =
  let items = batch_items ~smoke ~seed ~rep:0 workload in
  (* Plain and staged runs of each item back to back, alternating which
     goes first, so neither pays the other's warm-up. *)
  let both i item =
    let staged () =
      (* collected outside the observed window, like [run_item]'s *)
      Gc.full_major ();
      let r, _, _ = o.observe Layers.own_scrape (fun () -> run_staged ~refs item) in
      r
    in
    if i mod 2 = 0 then
      let p = run_item ~refs item in
      (p, staged ())
    else
      let s = staged () in
      (run_item ~refs item, s)
  in
  let runs = List.mapi both items in
  List.iter2
    (fun item (p, (staged, cls)) ->
      let label = W.item_label item in
      count t label p.outcome;
      count t label staged;
      Option.iter (fun why -> t.wrong <- (label ^ ": " ^ why) :: t.wrong) (disagreement item p cls))
    items runs;
  let plain = List.map fst runs in
  {
    untraced_s = List.fold_left (fun acc r -> acc +. r.latency) 0. plain;
    programs = List.concat_map item_programs items;
    exchanges = List.filter_map (fun r -> r.exchange) plain;
    enum_s = None;
    service = [];
  }

let daemon_pass ~smoke ~tmp ~seed ~refs t o =
  let reqs = Array.of_list (W.daemon_requests ~smoke ~seed ~rep:0) in
  let run dir f =
    let srv = start_server (Filename.concat tmp dir) in
    prewarm ~refs ~seed t srv;
    let r = f srv in
    stop_server srv;
    r
  in
  let judge results = Array.iteri (fun i r -> count t (request_label reqs.(i)) (judge_response ~refs reqs.(i) r)) results in
  let plain = run "untraced" (fun srv -> drive ~socket:srv.socket reqs) in
  let traced, before, after =
    run "traced" (fun srv -> o.observe (fun () -> scrape srv) (fun () -> drive ~socket:srv.socket reqs))
  in
  judge plain;
  judge traced;
  let replies =
    List.filter_map
      (fun (req, (t0, t1, r)) ->
        match r with Ok (Service.Proto.Reply reply) -> Some (req, t0, t1, reply) | _ -> None)
      (List.combine (Array.to_list reqs) (Array.to_list traced))
  in
  List.iter
    (fun (_, t0, t1, reply) ->
      Layers.add ~layer:"service"
        (if reply.Service.Proto.cached then "service.hit" else "service.miss")
        ~t0 ~t1)
    replies;
  let wall results =
    let n = Array.length results in
    let first, _, _ = results.(0) and _, last, _ = results.(n - 1) in
    Layers.s_of_ns (last - first)
  in
  let ms (t0, t1) = float_of_int (t1 - t0) /. 1e6 in
  let hit, miss = List.partition (fun (_, _, _, r) -> r.Service.Proto.cached) replies in
  let p q l = if l = [] then 0. else percentile q (List.map (fun (_, t0, t1, _) -> ms (t0, t1)) l) in
  let sum s = Layers.value s "psopt_service_request_duration_ns_sum" in
  {
    untraced_s = wall plain;
    programs = List.map program_of (Array.to_list reqs);
    exchanges =
      List.map
        (fun (req, _, _, reply) ->
          {
            Layers.work = work_of req;
            wconfig = Explore.Config.default;
            program = program_of req;
            output = reply.Service.Proto.output;
            exit_code = reply.Service.Proto.exit_code;
          })
        replies;
    enum_s = Some ((sum after -. sum before) /. 1e9);
    service =
      [
        ("hit_p50_ms", p 0.5 hit);
        ("miss_p50_ms", p 0.5 miss);
        ("miss_p90_ms", p 0.9 miss);
        ("hit_ratio", Layers.ratio (float_of_int (List.length hit)) (float_of_int (List.length replies)));
        ("queue_wait_mean_ms", Layers.mean_ms ~before ~after "psopt_service_queue_wait_ns");
        ("request_mean_ms", Layers.mean_ms ~before ~after "psopt_service_request_duration_ns");
        ("store_lookup_mean_us", 1e3 *. Layers.mean_ms ~before ~after "psopt_store_lookup_duration_ns");
      ];
  }

let traced ~smoke ~tmp ~workload ~seed ~trace_file =
  let t = tally () in
  let refs = read_refs () in
  let counts = ref Layers.no_counts and words = ref 0. and majors = ref 0 in
  let o =
    {
      observe =
        (fun scrape f ->
          let before = scrape () in
          let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
          let r = f () in
          words := !words +. Gc.minor_words () -. w0;
          majors := !majors + (Gc.quick_stat ()).Gc.major_collections - m0;
          let after = scrape () in
          counts := Layers.accumulate !counts ~before ~after;
          (r, before, after));
    }
  in
  let p =
    if workload = "daemon_mix" then daemon_pass ~smoke ~tmp ~seed ~refs t o
    else batch_pass ~smoke ~seed ~refs ~workload t o
  in
  let a = Layers.attribute () in
  let total = List.fold_left (fun acc (_, s) -> acc +. s) a.Layers.unexplained_s a.Layers.self_s in
  let self l = List.assoc l a.Layers.self_s in
  let counters = Layers.counters !counts in
  let enum_s =
    match p.enum_s with
    | Some s -> s
    | None -> List.fold_left (fun acc l -> acc +. self l) 0. [ "race"; "refine.explore"; "litmus"; "enum" ]
  in
  let distinct =
    List.map (fun p -> (Service.Store.program_digest p, p)) p.programs
    |> List.sort_uniq (fun (a, _) (b, _) -> compare a b)
    |> List.filteri (fun i _ -> i < 100)
    |> List.map snd
  in
  let wire_dir = Filename.concat tmp "wire-store" in
  Unix.mkdir wire_dir 0o755;
  let per_layer =
    List.map (fun l -> (l ^ ".share", Layers.ratio (self l) total)) Layers.layers
    @ [
        ("trace.unexplained_ratio", Layers.ratio a.Layers.unexplained_s total);
        ("trace.overhead_ratio", (a.Layers.wall_s /. p.untraced_s) -. 1.);
      ]
    @ counters
    @ [
        ("enum.nodes_per_s", Layers.ratio (List.assoc "enum.nodes" counters) enum_s);
        ("runtime.minor_mwords", !words /. 1e6);
        ("runtime.major_gcs", float_of_int !majors);
        ( "runtime.top_heap_mb",
          float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
      ]
    @ Layers.ps_layer distinct
    @ Layers.wire_layer ~dir:wire_dir p.exchanges
  in
  Option.iter
    (fun path ->
      Layers.write_trace path;
      match Obs.Trace.validate_file path with
      | Ok _ -> ()
      | Error e -> t.wrong <- ("trace file: " ^ e) :: t.wrong)
    trace_file;
  let detail =
    [
      ("untraced_s", Num p.untraced_s);
      ("traced_s", Num a.Layers.wall_s);
      ("unexplained_s", Num a.Layers.unexplained_s);
      ("attribution_error", Num (Float.abs (total -. a.Layers.wall_s) /. a.Layers.wall_s));
      ("self_s", metrics a.Layers.self_s);
      ("alloc_mwords", metrics a.Layers.alloc_mwords);
      ("calls", Obj (List.map (fun (l, n) -> (l, Int n)) a.Layers.calls));
      ("domains_recommended", Int (Domain.recommended_domain_count ()));
      ("config", Str (Format.asprintf "%a" Explore.Config.pp Explore.Config.default));
    ]
    @ if p.service = [] then [] else [ ("service", metrics p.service) ]
  in
  print_endline
    (json (Obj ([ ("metrics", metrics per_layer); ("detail", Obj detail) ] @ tally_fields t)))

let serve socket store =
  match
    Service.Server.run
      ~on_ready:(fun () -> print_endline "ready"; flush stdout)
      { (Service.Server.default ~socket) with Service.Server.store_dir = Some store; quiet = true }
  with
  | Ok () -> ()
  | Error e ->
      prerr_endline ("e2e serve: " ^ e);
      exit 1

let () =
  let smoke = ref false and tmp = ref "." and trace_file = ref None and pos = ref [] in
  let rec parse = function
    | "--smoke" :: rest -> smoke := true; parse rest
    | "--tmp" :: d :: rest -> tmp := d; parse rest
    | "--trace-file" :: f :: rest -> trace_file := Some f; parse rest
    | a :: rest -> pos := a :: !pos; parse rest
    | [] -> ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let smoke = !smoke and tmp = !tmp in
  match List.rev !pos with
  | [ "rep"; workload; seed; r ] ->
      rep ~smoke ~tmp ~workload ~seed:(int_of_string seed) ~rep:(int_of_string r)
  | [ "reference"; workload; seed ] -> reference ~smoke ~workload ~seed:(int_of_string seed)
  | [ "traced"; workload; seed ] ->
      traced ~smoke ~tmp ~workload ~seed:(int_of_string seed) ~trace_file:!trace_file
  | [ "serve"; socket; store ] -> serve socket store
  | _ ->
      prerr_endline
        "usage: main.exe (rep WORKLOAD SEED REP | reference WORKLOAD SEED | traced WORKLOAD SEED \
         | serve SOCKET STORE) [--smoke] [--tmp DIR] [--trace-file FILE]";
      exit 2
