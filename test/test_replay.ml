(* The time-travel replay subsystem: store round-trips and typed
   corruption errors (the five-damage-modes discipline of the service
   store), snapshot-plus-replay state reconstruction at every step,
   the O(K) keyframe jump bound, the stepping protocol, and
   counterexample shrinking — ddmin over switch points and greedy
   program reduction, every candidate re-validated by replaying it. *)

module Stepper = Explore.Stepper
module Witness = Explore.Witness
module Trace = Replay.Trace
module Store = Replay.Store
module Session = Replay.Session
module Proto = Replay.Proto

let config = Explore.Config.default
let il = Explore.Enum.Interleaving
let lb = Litmus.lb.Litmus.prog

let tmp_dir = Scratch.dir "psopt-test-replay"

let fresh =
  let n = ref 0 in
  fun name ->
    incr n;
    Filename.concat tmp_dir (Printf.sprintf "%03d-%s" !n name)

let slurp path = In_channel.with_open_bin path In_channel.input_all

let spit path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let record_lb ?(eager = false) path =
  match
    Replay.Record.record_witness ~config ~eager_switch:eager ~outs:[ 1; 1 ]
      ~path lb
  with
  | Ok n -> n
  | Error m -> Alcotest.fail ("record lb: " ^ m)

let read_exn path =
  match Store.read path with
  | Ok hr -> hr
  | Error e -> Alcotest.fail (Store.error_to_string e)

let load_exn ?keyframe_every path =
  match Session.load ?keyframe_every path with
  | Ok s -> s
  | Error e -> Alcotest.fail (Store.error_to_string e)

let lb_trail () =
  match Witness.find_trail ~config ~outs:[ 1; 1 ] lb with
  | Some (st0, trail) -> (st0, trail)
  | None -> Alcotest.fail "no lb 1,1 witness"

(* --------------------------------------------------------------- *)
(* Store round-trips *)

let test_store_roundtrip () =
  let p1 = fresh "lb.trace" in
  let n = record_lb p1 in
  Alcotest.(check bool) "some steps recorded" true (n > 0);
  Alcotest.(check bool) "no sidecar file" false (Sys.file_exists (p1 ^ ".idx"));
  let h, records = read_exn p1 in
  Alcotest.(check bool) "program round-trips" true
    (Lang.Ast.equal_program lb h.Trace.program);
  Alcotest.(check (list int)) "outs round-trip" [ 1; 1 ] h.Trace.outs;
  Alcotest.(check bool) "discipline round-trips" true (h.Trace.discipline = il);
  Alcotest.(check int) "length agrees" n (List.length records);
  (* reopen → rewrite → byte-identical store *)
  let p2 = fresh "lb-rewrite.trace" in
  (match Store.write_all p2 h records with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check string) "rewrite is byte-identical" (slurp p1) (slurp p2);
  let _, records2 = read_exn p2 in
  Alcotest.(check bool) "records round-trip" true
    (List.for_all2 Trace.equal_record records records2)

(* The [psopt-replay/2] bytes of one fixed witness — sb's weak
   outcome on one domain, under any PSOPT_J — pinned by digest;
   rewriting its records reproduces them. *)
let test_format_pinned () =
  let config =
    { config with Explore.Config.domains = 1; oversubscribe = false }
  in
  let p = fresh "sb.trace" in
  (match
     Replay.Record.record_witness ~config ~outs:[ 0; 0 ] ~path:p
       Litmus.sb.Litmus.prog
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail ("record sb: " ^ m));
  let md5 path = Digest.to_hex (Digest.file path) in
  let data = "c202af3e3b28ef5a4dc1e5eae7a17f19" in
  Alcotest.(check string) "data file" data (md5 p);
  let h, records = read_exn p in
  let p2 = fresh "sb-rewrite.trace" in
  (match Store.write_all p2 h records with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check string) "rewritten data file" data (md5 p2);
  (* a destination that cannot be created: an error, and no temporary
     file anywhere *)
  let dir = fresh "missing" in
  let tmps () =
    Sys.readdir tmp_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  (match Store.write_all (Filename.concat dir "x.trace") h records with
  | Ok () -> Alcotest.fail "wrote into a missing directory"
  | Error _ -> ());
  Alcotest.(check bool) "directory still missing" false (Sys.file_exists dir);
  Alcotest.(check (list string)) "no temporary file" [] (tmps ())

(* Five damage modes, each a typed error, mirroring the service
   store's discipline. *)
let test_corruption_modes () =
  let p = fresh "victim.trace" in
  let steps = record_lb p in
  let data = slurp p in
  let expect what pred = function
    | Error e ->
        Alcotest.(check bool)
          (what ^ ": " ^ Store.error_to_string e)
          true (pred e)
    | Ok _ -> Alcotest.fail (what ^ ": damage not detected")
  in
  (* 1: missing file *)
  expect "missing"
    (function Store.Missing _ -> true | _ -> false)
    (Store.read (fresh "nonexistent.trace"));
  (* 2: not a replay trace *)
  let bad_magic = fresh "bad-magic.trace" in
  spit bad_magic "not a trace\nat all\n";
  expect "bad magic"
    (function Store.Bad_magic _ -> true | _ -> false)
    (Store.read bad_magic);
  (* 3: flipped byte inside the header frame *)
  let flip_at s i =
    let b = Bytes.of_string s in
    Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
    Bytes.to_string b
  in
  let find_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  let rfind_sub s sub =
    let rec go best i =
      match find_sub (String.sub s i (String.length s - i)) sub with
      | None -> best
      | Some j -> go (Some (i + j)) (i + j + 1)
    in
    go None 0
  in
  let bad_header = fresh "bad-header.trace" in
  (match find_sub data "replay-header" with
  | None -> Alcotest.fail "no header payload?"
  | Some i -> spit bad_header (flip_at data (i + 1)));
  expect "damaged header"
    (function Store.Bad_header _ -> true | _ -> false)
    (Store.read bad_header);
  (* 4: truncated mid-record *)
  let truncated = fresh "truncated.trace" in
  spit truncated (String.sub data 0 (String.length data - 10));
  expect "truncated"
    (function Store.Truncated _ -> true | _ -> false)
    (Store.read truncated);
  (* 5: flipped byte inside the last record's payload: caught by its
     digest, and reported against that record *)
  let corrupt = fresh "corrupt.trace" in
  (match rfind_sub data "(step " with
  | None -> Alcotest.fail "no record payload?"
  | Some i -> spit corrupt (flip_at data (i + 1)));
  expect "corrupt record"
    (function Store.Corrupt_record (n, _) -> n = steps - 1 | _ -> false)
    (Store.read corrupt)

(* --------------------------------------------------------------- *)
(* Session: state reconstruction *)

(* Record → reload → the reconstructed state at *every* position
   equals the state the recorder saw (exhaustive, the acceptance
   criterion). *)
let test_state_equality_everywhere () =
  let st0, trail = lb_trail () in
  let states = Array.of_list (Stepper.trail_states st0 trail) in
  let path = fresh "lb-session.trace" in
  ignore (record_lb path);
  let t = load_exn path in
  Alcotest.(check int) "lengths agree" (Array.length states - 1)
    (Session.length t);
  for n = 0 to Session.length t do
    (match Session.jump t n with
    | Ok () -> ()
    | Error m -> Alcotest.fail m);
    Alcotest.(check bool)
      (Printf.sprintf "state at %d reconstructed exactly" n)
      true
      (Stepper.equal_state states.(n) (Session.state t))
  done;
  (* and backwards, through a different mix of keyframe starts *)
  for n = Session.length t downto 0 do
    ignore (Session.jump t n);
    Alcotest.(check bool)
      (Printf.sprintf "state at %d (backward sweep)" n)
      true
      (Stepper.equal_state states.(n) (Session.state t))
  done

(* A reservation execution is recorded, read back and replayed like
   any other: with reservations on, LB+CAS's [1; 1] needs t1 to reserve
   the slot after [z]'s last message before promising [y = 1]. *)
let test_reservation_roundtrip () =
  let config = { config with Explore.Config.reservations = true } in
  let p = Lb_cas.program in
  Alcotest.(check bool) "no witness without reservations" true
    (Witness.find_trail ~outs:[ 1; 1 ] p = None);
  match Witness.find_trail ~config ~outs:[ 1; 1 ] p with
  | None -> Alcotest.fail "no LB+CAS 1,1 witness with reservations"
  | Some (st0, trail) -> (
      Alcotest.(check bool) "the witness reserves" true
        (List.exists
           (fun (s : Stepper.succ) -> s.event = Some Ps.Event.Rsv)
           trail);
      let path = fresh "lb-cas.trace" in
      (match Replay.Record.record_witness ~config ~outs:[ 1; 1 ] ~path p with
      | Ok n -> Alcotest.(check int) "every step recorded" (List.length trail) n
      | Error m -> Alcotest.fail m);
      let states = Array.of_list (Stepper.trail_states st0 trail) in
      let t = load_exn path in
      for n = 0 to Session.length t do
        (match Session.jump t n with Ok () -> () | Error m -> Alcotest.fail m);
        Alcotest.(check bool)
          (Printf.sprintf "state at %d replayed" n)
          true
          (Stepper.equal_state states.(n) (Session.state t))
      done;
      match Replay.Shrink.schedule ~config p (Witness.of_trail trail) with
      | Error m -> Alcotest.fail m
      | Ok res ->
          let path = fresh "lb-cas-shrunk.trace" in
          (match
             Replay.Record.record_schedule ~config ~outs:[ 1; 1 ] ~path p
               res.Replay.Shrink.witness
           with
          | Ok n -> Alcotest.(check bool) "shrunk trace recorded" true (n > 0)
          | Error m -> Alcotest.fail m);
          ignore (load_exn path))

let test_keyframe_jump_cost () =
  let path = fresh "lb-kf.trace" in
  ignore (record_lb ~eager:true path);
  let t = load_exn ~keyframe_every:4 path in
  let len = Session.length t in
  Alcotest.(check int) "validation pass is not billed" 0
    (Session.replayed_steps t);
  (* jumping backward to any position replays < K steps from a
     keyframe — never O(n) from the start *)
  ignore (Session.jump t len);
  for n = len - 1 downto 0 do
    let before = Session.replayed_steps t in
    ignore (Session.jump t n);
    let cost = Session.replayed_steps t - before in
    Alcotest.(check bool)
      (Printf.sprintf "jump to %d cost %d < K=4" n cost)
      true (cost < 4)
  done;
  (* landing exactly on a keyframe is free *)
  ignore (Session.jump t len);
  let before = Session.replayed_steps t in
  ignore (Session.jump t 4);
  Alcotest.(check int) "keyframe hit is free" 0
    (Session.replayed_steps t - before);
  (* forward single-stepping never restarts from a distant keyframe:
     each step replays at most one step (zero when it lands exactly on
     a keyframe and restores the snapshot instead) *)
  ignore (Session.jump t 0);
  let before = ref (Session.replayed_steps t) in
  for _ = 1 to len do
    (match Session.step t with
    | Ok (Some _) -> ()
    | Ok None -> Alcotest.fail "ended early"
    | Error m -> Alcotest.fail m);
    let cost = Session.replayed_steps t - !before in
    before := Session.replayed_steps t;
    Alcotest.(check bool) "a single step replays at most one step" true
      (cost <= 1)
  done

let test_step_back_records () =
  let path = fresh "lb-stepback.trace" in
  ignore (record_lb path);
  let t = load_exn path in
  let len = Session.length t in
  let forward = ref [] in
  for _ = 1 to len do
    match Session.step t with
    | Ok (Some r) -> forward := r :: !forward
    | Ok None | Error _ -> Alcotest.fail "step failed"
  done;
  Alcotest.(check bool) "step at end is Ok None" true
    (Session.step t = Ok None);
  let backward = ref [] in
  for _ = 1 to len do
    match Session.back t with
    | Ok (Some r) -> backward := r :: !backward
    | Ok None | Error _ -> Alcotest.fail "back failed"
  done;
  Alcotest.(check bool) "back at start is Ok None" true
    (Session.back t = Ok None);
  Alcotest.(check int) "back to position 0" 0 (Session.pos t);
  (* the records crossed going back are the records crossed going
     forward, in reverse *)
  Alcotest.(check bool) "same records both ways" true
    (List.for_all2 Trace.equal_record (List.rev !forward) !backward)

(* --------------------------------------------------------------- *)
(* Protocol *)

let test_parse_command () =
  let ok line req =
    match Proto.parse_command line with
    | Ok r -> Alcotest.(check bool) (line ^ " parses") true (r = req)
    | Error m -> Alcotest.fail (line ^ ": " ^ m)
  in
  ok "s" Proto.Step;
  ok " step " Proto.Step;
  ok "b" Proto.Back;
  ok "j 7" (Proto.Jump 7);
  ok "i" Proto.Info;
  ok "st" Proto.Where;
  ok "mem" Proto.Mem;
  ok "views" Proto.Views;
  ok "why y" (Proto.Why "y");
  ok "next x" (Proto.Next_at "x");
  ok "prm" Proto.Next_promise;
  ok "sched" Proto.Schedule;
  ok "q" Proto.Quit;
  List.iter
    (fun bad ->
      match Proto.parse_command bad with
      | Ok _ -> Alcotest.fail (bad ^ " should not parse")
      | Error m ->
          Alcotest.(check bool) (bad ^ " explains itself") true
            (String.length m > 0))
    [ "j"; "j x"; "flurb"; "help" ]

let test_proto_handle () =
  let path = fresh "lb-proto.trace" in
  ignore (record_lb path);
  let t = load_exn path in
  let len = Session.length t in
  let ok_text = function
    | Proto.Ok { text; _ } -> text
    | Proto.Err m -> Alcotest.fail ("unexpected error: " ^ m)
    | Proto.Bye -> Alcotest.fail "unexpected bye"
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i =
      i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
    in
    go 0
  in
  let info = ok_text (Proto.handle t Proto.Info) in
  Alcotest.(check bool) "info names the step count" true
    (contains info (string_of_int len));
  ignore (Proto.handle t Proto.Step);
  Alcotest.(check int) "step advances" 1 (Session.pos t);
  ignore (Proto.handle t (Proto.Jump 3));
  Alcotest.(check int) "jump lands" 3 (Session.pos t);
  ignore (Proto.handle t Proto.Back);
  Alcotest.(check int) "back retreats" 2 (Session.pos t);
  Alcotest.(check bool) "mem shows both locations" true
    (let m = ok_text (Proto.handle t Proto.Mem) in
     contains m "x" && contains m "y");
  Alcotest.(check bool) "views show a view per thread" true
    (contains (ok_text (Proto.handle t Proto.Views)) "t1");
  Alcotest.(check bool) "why knows the promise" true
    (contains (ok_text (Proto.handle t (Proto.Why "y"))) "promise");
  (* the lb witness promises y at step 0: from position 0 the next
     *upcoming* promise is skipped (progress), reported as absent *)
  ignore (Proto.handle t (Proto.Jump 0));
  Alcotest.(check bool) "next-promise makes progress" true
    (contains (ok_text (Proto.handle t Proto.Next_promise)) "no promise");
  (* next-at jumps to the next step touching x *)
  ignore (Proto.handle t (Proto.Jump 0));
  let _ = ok_text (Proto.handle t (Proto.Next_at "x")) in
  (match Session.record_at t (Session.pos t) with
  | Some r -> Alcotest.(check (option string)) "stopped before an x step"
      (Some "x") r.Trace.loc
  | None -> Alcotest.fail "next-at ran off the end");
  Alcotest.(check bool) "schedule shows every step" true
    (contains (ok_text (Proto.handle t Proto.Schedule)) "prm");
  Alcotest.(check bool) "quit says bye" true
    (Proto.handle t Proto.Quit = Proto.Bye);
  match Proto.handle t (Proto.Jump (len + 5)) with
  | Proto.Err _ -> ()
  | _ -> Alcotest.fail "out-of-range jump must be a protocol error"

(* --------------------------------------------------------------- *)
(* Shrinking *)

let test_ddmin () =
  let core = [ 3; 7; 15 ] in
  let tried = ref 0 in
  let check l =
    incr tried;
    List.for_all (fun c -> List.mem c l) core
  in
  let items = List.init 20 (fun i -> i) in
  Alcotest.(check (list int)) "ddmin finds the 1-minimal core" core
    (List.sort compare (Replay.Shrink.ddmin ~check items));
  Alcotest.(check (list int)) "empty passes => empty" []
    (Replay.Shrink.ddmin ~check:(fun _ -> true) items);
  Alcotest.(check (list int)) "already minimal stays" [ 5 ]
    (Replay.Shrink.ddmin ~check:(fun l -> List.mem 5 l) [ 5 ])

let outs_of (w : Witness.t) =
  List.filter_map
    (fun (s : Witness.step) ->
      match s.Witness.event with Ps.Event.Out v -> Some v | _ -> None)
    w

let test_shrink_schedule () =
  (* an eager-switch witness is deliberately switch-heavy input *)
  match Witness.find_trail ~config ~eager_switch:true ~outs:[ 1; 1 ] lb with
  | None -> Alcotest.fail "no eager lb witness"
  | Some (_, trail) -> (
      let w = Witness.of_trail trail in
      match Replay.Shrink.schedule ~config lb w with
      | Error m -> Alcotest.fail m
      | Ok res ->
          Alcotest.(check bool)
            (Printf.sprintf "switches strictly reduced: %d -> %d"
               res.Replay.Shrink.switches_before
               res.Replay.Shrink.switches_after)
            true
            (res.Replay.Shrink.switches_after
            < res.Replay.Shrink.switches_before);
          Alcotest.(check (list int)) "output sequence preserved" [ 1; 1 ]
            (outs_of res.Replay.Shrink.witness);
          (* shrinking the shrunk schedule is a fixpoint *)
          (match Replay.Shrink.schedule ~config lb res.Replay.Shrink.witness with
          | Error m -> Alcotest.fail m
          | Ok res2 ->
              Alcotest.(check int) "shrink is a fixpoint"
                res.Replay.Shrink.switches_after
                res2.Replay.Shrink.switches_after);
          (* the shrunk schedule still drives — and can be recorded
             and replayed like any trace *)
          let path = fresh "lb-shrunk.trace" in
          (match
             Replay.Record.record_schedule ~config ~outs:[ 1; 1 ] ~path lb
               res.Replay.Shrink.witness
           with
          | Ok n -> Alcotest.(check bool) "shrunk trace recorded" true (n > 0)
          | Error m -> Alcotest.fail m);
          ignore (load_exn path))

(* The paper's Fig. 1 refinement violation, end to end: find the
   target-only behaviour, record it (the `verify --record` path),
   shrink the schedule, and check the reduced witness still refutes. *)
let test_shrink_refutation () =
  let src = Litmus.fig1_foo.Litmus.prog in
  let tgt = Litmus.fig1_foo_opt.Litmus.prog in
  let rep = Explore.Refine.check ~config ~target:tgt ~source:src () in
  match rep.Explore.Refine.verdict with
  | Explore.Refine.Violates (tr :: _) -> (
      let outs = tr.Ps.Event.outs in
      let path = fresh "fig1-refutation.trace" in
      (match Replay.Record.record_witness ~config ~outs ~path tgt with
      | Ok n -> Alcotest.(check bool) "refutation recorded" true (n > 0)
      | Error m -> Alcotest.fail m);
      let t = load_exn path in
      let w =
        List.filter_map
          (fun n ->
            match Session.record_at t n with
            | Some r -> (
                match r.Trace.event with
                | Some e -> Some { Witness.tid = r.Trace.tid; event = e }
                | None -> None)
            | None -> None)
          (List.init (Session.length t) Fun.id)
      in
      match Replay.Shrink.schedule ~config tgt w with
      | Error m -> Alcotest.fail m
      | Ok res ->
          Alcotest.(check (list int)) "shrunk witness keeps the refuting outs"
            outs
            (outs_of res.Replay.Shrink.witness);
          (* still a refutation: the source cannot produce it *)
          Alcotest.(check bool) "source still cannot produce the outs" true
            (Witness.find ~config ~outs src = None))
  | _ -> Alcotest.fail "fig1 pair must violate refinement"

let test_shrink_program () =
  (* pad lb with dead weight the reducer must strip *)
  let pad (p : Lang.Ast.program) =
    let pad_block (b : Lang.Ast.block) =
      { b with Lang.Ast.instrs = Lang.Ast.Skip :: b.Lang.Ast.instrs }
    in
    let pad_heap (ch : Lang.Ast.codeheap) =
      {
        ch with
        Lang.Ast.blocks = Lang.Ast.LabelMap.map pad_block ch.Lang.Ast.blocks;
      }
    in
    { p with Lang.Ast.code = Lang.Ast.FnameMap.map pad_heap p.Lang.Ast.code }
  in
  let count_instrs (p : Lang.Ast.program) =
    Lang.Ast.FnameMap.fold
      (fun _ (ch : Lang.Ast.codeheap) acc ->
        Lang.Ast.LabelMap.fold
          (fun _ (b : Lang.Ast.block) acc ->
            acc + List.length b.Lang.Ast.instrs)
          ch.Lang.Ast.blocks acc)
      p.Lang.Ast.code 0
  in
  let padded = pad lb in
  (match Lang.Wf.check padded with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "padded program must stay well-formed");
  let keep p = Witness.find ~config ~outs:[ 1; 1 ] p <> None in
  Alcotest.(check bool) "padded program still has the witness" true
    (keep padded);
  let p', tried = Replay.Shrink.program ~keep padded in
  Alcotest.(check bool) "candidates were tried" true (tried > 0);
  Alcotest.(check bool)
    (Printf.sprintf "instructions reduced: %d -> %d" (count_instrs padded)
       (count_instrs p'))
    true
    (count_instrs p' < count_instrs padded);
  Alcotest.(check bool) "reduced program still has the witness" true (keep p')

(* --------------------------------------------------------------- *)
(* Stress quarantine integration *)

let test_quarantine_trace () =
  let qdir = fresh "quarantine" in
  let recorded = ref [] in
  let on_quarantine ~dir ~base ~config p =
    let o = Explore.Enum.behaviors_exn ~config il p in
    match Explore.Traceset.done_outs o.Explore.Enum.traces with
    | [] -> ()
    | outs :: _ -> (
        let path = Filename.concat dir (base ^ ".trace") in
        match
          Replay.Record.record_witness ~config ~note:("quarantine " ^ base)
            ~outs ~path p
        with
        | Ok _ -> recorded := path :: !recorded
        | Error m -> Alcotest.fail ("quarantine record: " ^ m))
  in
  let seed = 5 in
  let s =
    Explore.Stress.run ~quarantine_dir:qdir ~on_quarantine ~cases:1 ~seed
      ~deadline_ms:5000
      ~check:(fun ~config:_ _ -> failwith "injected crash")
      ()
  in
  Alcotest.(check int) "the case was quarantined" 1
    s.Explore.Stress.quarantined;
  match !recorded with
  | [ path ] ->
      let t = load_exn path in
      Alcotest.(check bool) "quarantine trace replays" true
        (Session.length t > 0);
      (* the trace replays under the exact reduction mode the case ran
         with — the header preserves the per-case config override *)
      let h = Session.header t in
      Alcotest.(check bool) "recorded under the case's reduction mode" true
        (h.Trace.config.Explore.Config.reduction
        = Explore.Stress.reduction_of_seed seed)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected one recorded trace, got %d" (List.length l))

(* --------------------------------------------------------------- *)

(* --------------------------------------------------------------- *)
(* Deltas across a renumbering step *)

(* t1 promises x = 1 after the initialization message; t2 then writes
   x = 2 into the gap below the promise, which takes the world off the
   grid, so the step renumbers every timestamp and the promise moves;
   t1 fulfils it last. *)
let gap_writer =
  Lang.Parse.program_of_string
    {|atomics x;
threads t1 t2;
proc t1 entry L {
L:
  x.rlx := 1;
  return;
}
proc t2 entry L {
L:
  x.rlx := 2;
  return;
}|}

let test_renumbered_deltas () =
  let wr v = Ps.Event.Wr (Lang.Modes.WRlx, "x", v) in
  let schedule =
    [ (0, Ps.Event.Prm); (1, wr 2); (1, Ps.Event.Tau); (0, wr 1) ]
    @ [ (0, Ps.Event.Tau) ]
  in
  match
    Stepper.drive (Stepper.create ~config ~discipline:il gap_writer) schedule
  with
  | None -> Alcotest.fail "schedule does not drive"
  | Some (st0, trail) -> (
      let is_event e (s : Stepper.succ) = s.Stepper.event = Some e in
      let gap_write = List.find (is_event (wr 2)) trail in
      Alcotest.(check bool) "the gap write renumbers" true
        (gap_write.Stepper.renumbering <> None);
      let records =
        Replay.Record.records_of_trail ~config ~program:gap_writer st0 trail
      in
      let added e =
        List.concat_map
          (fun (r : Trace.record) ->
            if r.Trace.event = Some e then r.Trace.msgs_added else [])
          records
      in
      Alcotest.(check int) "promise: one +msg" 1
        (List.length (added Ps.Event.Prm));
      Alcotest.(check (list string)) "gap write: exactly its own +msg"
        [ "<x:2@(1,2] (na:{}, rlx:{})>" ] (added (wr 2));
      Alcotest.(check (list string)) "fulfilment: no +msg" [] (added (wr 1));
      match Witness.annotate ~config gap_writer (Witness.of_trail trail) with
      | None -> Alcotest.fail "witness does not annotate"
      | Some steps -> (
          let step e =
            List.find
              (fun (a : Witness.annotated_step) -> a.Witness.event = Some e)
              steps
          in
          (match (step Ps.Event.Prm).Witness.note with
          | Witness.Promises { fulfilled_at = Some j; _ } ->
              Alcotest.(check int) "promise linked to its fulfilment"
                (step (wr 1)).Witness.num j
          | _ -> Alcotest.fail "promise not linked to its fulfilment");
          match (step (wr 1)).Witness.note with
          | Witness.Fulfills { promised_at = Some i; _ } ->
              Alcotest.(check int) "fulfilment linked to its promise"
                (step Ps.Event.Prm).Witness.num i
          | _ -> Alcotest.fail "fulfilment not linked to its promise"))

let () =
  Alcotest.run "replay"
    [
      ( "store",
        [
          Alcotest.test_case "record → reopen → rewrite round-trip" `Quick
            test_store_roundtrip;
          Alcotest.test_case "psopt-replay/2 bytes pinned" `Quick
            test_format_pinned;
          Alcotest.test_case "damage modes are typed errors" `Quick
            test_corruption_modes;
        ] );
      ( "session",
        [
          Alcotest.test_case "state reconstructed exactly at every step"
            `Quick test_state_equality_everywhere;
          Alcotest.test_case "jumps replay O(K) from keyframes" `Quick
            test_keyframe_jump_cost;
          Alcotest.test_case "step/back cross the same records" `Quick
            test_step_back_records;
          Alcotest.test_case "deltas across a renumbering step" `Quick
            test_renumbered_deltas;
          Alcotest.test_case "a reservation execution round-trips" `Quick
            test_reservation_roundtrip;
        ] );
      ( "proto",
        [
          Alcotest.test_case "command syntax" `Quick test_parse_command;
          Alcotest.test_case "handler navigates a session" `Quick
            test_proto_handle;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "ddmin is 1-minimal" `Quick test_ddmin;
          Alcotest.test_case "schedule: switch points strictly reduced"
            `Quick test_shrink_schedule;
          Alcotest.test_case "fig1 refutation shrinks and still refutes"
            `Quick test_shrink_refutation;
          Alcotest.test_case "program reducer strips dead weight" `Quick
            test_shrink_program;
        ] );
      ( "stress",
        [
          Alcotest.test_case "quarantined cases get a replayable trace"
            `Quick test_quarantine_trace;
        ] );
    ]
