(* The verification service (docs/SERVICE.md): wire-protocol and store
   round-trips, the cache-soundness rule (conclusive forever,
   inconclusive only to covered budgets, corruption is a miss), the
   config fingerprint's in/out contract, the admission gate, and one
   end-to-end daemon exchange over a real Unix-domain socket. *)

module Proto = Service.Proto
module Frame = Service.Frame
module Store = Service.Store
module Config = Explore.Config

(* --------------------------------------------------------------- *)
(* Generators *)

let gen_config =
  QCheck.Gen.(
    map
      (fun ( (max_steps, max_promises, promise_mode, reservations),
             (cert_fuel, cap_certification, memoize, cert_cache),
             (deadline_ms, max_nodes, max_live_words, strict_promises),
             (fault, domains, por, symmetry, bound_promises) ) ->
        {
          Config.max_steps;
          max_promises;
          promise_mode;
          reservations;
          cert_fuel;
          cap_certification;
          memoize;
          cert_cache;
          deadline_ms;
          max_nodes;
          max_live_words;
          strict_promises;
          fault;
          domains;
          oversubscribe = Config.default.Config.oversubscribe;
          reduction = { Config.por; symmetry; bound_promises };
        })
      (quad
         (quad (int_range 1 100_000) (int_range 0 8)
            (oneofl [ Config.No_promises; Config.Semantic; Config.Syntactic ])
            bool)
         (quad (int_range 1 10_000) bool bool bool)
         (quad
            (opt (int_range 0 10_000))
            (opt (int_range 1 1_000_000))
            (opt (int_range 1 1_000_000))
            bool)
         (tup5
            (opt
               (map
                  (fun (fault_seed, fault_rate) ->
                    { Config.fault_seed; fault_rate })
                  (pair (int_range 0 1_000) (float_bound_inclusive 1.0))))
            (int_range 1 8) bool bool
            (opt (int_range 0 4)))))

let config_arbitrary =
  QCheck.make ~print:(fun c -> Format.asprintf "%a" Config.pp c) gen_config

(* raw bytes, including NUL, parens, spaces, high bytes *)
let raw_string_arbitrary =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "%S" s)
    QCheck.Gen.(string_size ~gen:(int_range 0 255 |> map Char.chr) (int_range 0 80))

(* --------------------------------------------------------------- *)
(* Protocol round-trips *)

let proto_props =
  [
    QCheck.Test.make ~count:500 ~name:"atom escape round-trips any bytes"
      raw_string_arbitrary (fun s ->
        Proto.string_of_atom (Proto.atom_of_string s) = Ok s);
    QCheck.Test.make ~count:300 ~name:"config sexp round-trips exactly"
      config_arbitrary (fun c ->
        Proto.config_of_sexp (Proto.sexp_of_config c) = Ok c);
    QCheck.Test.make ~count:200 ~name:"work request round-trips (stress corpus)"
      QCheck.(pair (int_bound 1_000) config_arbitrary)
      (fun (seed, config) ->
        let p = Explore.Stress.generate ~seed in
        let disc =
          if seed mod 2 = 0 then Explore.Enum.Interleaving
          else Explore.Enum.Non_preemptive
        in
        let req = Proto.Work (Proto.Explore (disc, p), config, None) in
        match Proto.request_of_sexp (Proto.sexp_of_request req) with
        | Ok (Proto.Work (Proto.Explore (disc', p'), config', None)) ->
            disc' = disc && Lang.Ast.equal_program p' p && config' = config
        | _ -> false);
    QCheck.Test.make ~count:300 ~name:"reply response round-trips"
      QCheck.(pair raw_string_arbitrary (int_bound 3))
      (fun (output, exit_code) ->
        let r =
          Proto.Reply
            { Proto.exit_code; output; cached = exit_code mod 2 = 0;
              conclusive = exit_code < 2 }
        in
        Proto.response_of_sexp (Proto.sexp_of_response r) = Ok r);
  ]

let test_proto_units () =
  (* the fixed-shape requests and responses *)
  List.iter
    (fun req ->
      Alcotest.(check bool)
        "request round-trips" true
        (Proto.request_of_sexp (Proto.sexp_of_request req) = Ok req))
    [ Proto.Ping; Proto.Stats; Proto.Metrics; Proto.Shutdown;
      Proto.Work (Proto.Litmus "sb", Config.default, None);
      Proto.Work (Proto.Verify ("dce", Litmus.sb.Litmus.prog), Config.quick, None);
      Proto.Work (Proto.Races Litmus.lb.Litmus.prog, Config.default, None);
      Proto.Work
        ( Proto.Litmus "sb", Config.default,
          Some { Obs.Trace.trace_id = "00ff00ff00ff00ff"; span_id = "0123456789abcdef" } ) ];
  List.iter
    (fun resp ->
      Alcotest.(check bool)
        "response round-trips" true
        (Proto.response_of_sexp (Proto.sexp_of_response resp) = Ok resp))
    [ Proto.Pong "1.2.3"; Proto.Shutting_down;
      Proto.Busy { inflight = 17; capacity = 16 };
      Proto.Shed { reason = Proto.Expired; inflight = 3; capacity = 4 };
      Proto.Shed { reason = Proto.Overload; inflight = 5; capacity = 4 };
      Proto.Refused "unknown pass: foo";
      Proto.Metrics_reply "# TYPE psopt_service_served_total counter\n";
      Proto.Metrics_reply "";
      Proto.Stats_reply
        { Proto.served = 1; store_hits = 2; store_misses = 3;
          busy_rejections = 4; errors = 5; store_entries = 6;
          store_corrupt = 9; inflight = 7; capacity = 8;
          sheds = 10; expired = 11; evictions = 12 } ];
  (* garbage never parses into a request or response *)
  List.iter
    (fun s ->
      let sx = Lang.Sexp.Atom s in
      Alcotest.(check bool) "garbage request rejected" true
        (Result.is_error (Proto.request_of_sexp sx));
      Alcotest.(check bool) "garbage response rejected" true
        (Result.is_error (Proto.response_of_sexp sx)))
    [ "nonsense"; ""; "ping2" ];
  Alcotest.(check bool) "kind tags distinguish subcommands" true
    (List.length
       (List.sort_uniq compare
          [ Proto.kind_tag (Proto.Explore (Explore.Enum.Interleaving, Litmus.sb.Litmus.prog));
            Proto.kind_tag (Proto.Explore (Explore.Enum.Non_preemptive, Litmus.sb.Litmus.prog));
            Proto.kind_tag (Proto.Verify ("dce", Litmus.sb.Litmus.prog));
            Proto.kind_tag (Proto.Races Litmus.sb.Litmus.prog);
            Proto.kind_tag (Proto.Litmus "sb") ])
    = 5)

let test_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
      List.iter
        (fun payload ->
          (match Frame.write a payload with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Frame.error_to_string e));
          Alcotest.(check bool)
            (Printf.sprintf "frame of %d bytes round-trips"
               (String.length payload))
            true
            (Frame.read b = Ok payload))
        [ ""; "x"; String.make 70_000 'q'; "(a (b c))" ];
      (* a full header claiming an absurd length is rejected as
         Corrupt, not allocated *)
      let lie = Bytes.make Frame.header_len '\000' in
      Bytes.set_int32_be lie 0 (Int32.of_int (Frame.max_frame + 1));
      let _ = Unix.write a lie 0 Frame.header_len in
      (match Frame.read b with
      | Error (Frame.Corrupt _) -> ()
      | other ->
          Alcotest.failf "oversized length word: expected Corrupt, got %s"
            (match other with
            | Ok _ -> "Ok"
            | Error e -> Frame.error_to_string e)));
  (* the file and channel readers: a record file is exactly one frame,
     a stream ends cleanly only between frames, and each kind of
     damage is told apart, at the offset of the frame it hit *)
  let f = Frame.encode "(a (b c))" in
  let n = String.length f in
  let damaged i =
    String.mapi
      (fun j c -> if j = i then Char.chr (Char.code c lxor 0x40) else c)
      f
  in
  List.iter
    (fun (name, input, expect) ->
      Alcotest.(check bool) ("decode: " ^ name) true
        (Frame.decode input = expect))
    [
      ("one frame", f, Ok "(a (b c))");
      ("empty", "", Error (Frame.Truncated 0));
      ("cut payload", String.sub f 0 (n - 1), Error (Frame.Truncated 0));
      ("trailing byte", f ^ "x", Error (Frame.Bad_length 0));
      ("length word", damaged 0, Error (Frame.Bad_length 0));
      ("digest", damaged 4, Error (Frame.Bad_digest 0));
      ("payload byte", damaged (n - 1), Error (Frame.Bad_digest 0));
    ];
  let frames_of contents =
    let p = Filename.temp_file "psopt-frame" ".bin" in
    Out_channel.with_open_bin p (fun oc ->
        Out_channel.output_string oc contents);
    let ic = open_in_bin p in
    let rec go acc =
      match Frame.input ic with
      | None -> List.rev acc
      | Some (Ok _ as r) -> go (r :: acc)
      | Some (Error _ as r) -> List.rev (r :: acc)
    in
    let frames = go [] in
    close_in ic;
    Sys.remove p;
    frames
  in
  Alcotest.(check bool) "input: clean end between frames" true
    (frames_of (f ^ f) = [ Ok "(a (b c))"; Ok "(a (b c))" ]);
  Alcotest.(check bool) "input: truncation at the frame's offset" true
    (frames_of (f ^ String.sub f 0 (n - 1))
    = [ Ok "(a (b c))"; Error (Frame.Truncated n) ]);
  Alcotest.(check bool) "input: cut inside the header" true
    (frames_of (f ^ "\000") = [ Ok "(a (b c))"; Error (Frame.Truncated n) ]);
  Alcotest.(check bool) "input: bad digest at the frame's offset" true
    (frames_of (f ^ damaged (n - 1))
    = [ Ok "(a (b c))"; Error (Frame.Bad_digest n) ])

(* Satellite: the framing fault matrix — peers that close mid-header,
   close mid-payload, stall silently, or corrupt bytes in flight all
   surface as the right typed transport error, never an exception or a
   hang (docs/ROBUSTNESS.md). *)
let test_framing_faults () =
  let with_pair f =
    let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.close a with Unix.Unix_error _ -> ());
        try Unix.close b with Unix.Unix_error _ -> ())
      (fun () -> f a b)
  in
  (* a valid frame for surgery *)
  let frame_bytes payload =
    let c, d = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close c; Unix.close d)
      (fun () ->
        (match Frame.write c payload with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Frame.error_to_string e));
        let n = Frame.header_len + String.length payload in
        let buf = Bytes.create n in
        let rec fill off =
          if off < n then fill (off + Unix.read d buf off (n - off))
        in
        fill 0;
        buf)
  in
  let whole = frame_bytes "(ping)" in
  (* peer closes mid-length-prefix *)
  with_pair (fun a b ->
      let _ = Unix.write a whole 0 2 in
      Unix.close a;
      match Frame.read b with
      | Error Frame.Closed -> ()
      | _ -> Alcotest.fail "mid-header close must be Closed");
  (* peer closes mid-payload *)
  with_pair (fun a b ->
      let _ = Unix.write a whole 0 (Frame.header_len + 2) in
      Unix.close a;
      match Frame.read b with
      | Error Frame.Closed -> ()
      | _ -> Alcotest.fail "mid-payload close must be Closed");
  (* peer goes silent mid-header: the slowloris shape, caught by the
     io deadline with the phase that names it *)
  with_pair (fun a b ->
      let _ = Unix.write a whole 0 2 in
      match Frame.read ~idle_timeout_s:5.0 ~io_timeout_s:0.05 b with
      | Error (Frame.Timed_out Frame.Header) -> ()
      | _ -> Alcotest.fail "mid-header stall must be Timed_out Header");
  (* peer goes silent mid-payload *)
  with_pair (fun a b ->
      let _ = Unix.write a whole 0 (Frame.header_len + 2) in
      match Frame.read ~idle_timeout_s:5.0 ~io_timeout_s:0.05 b with
      | Error (Frame.Timed_out Frame.Payload) -> ()
      | _ -> Alcotest.fail "mid-payload stall must be Timed_out Payload");
  (* peer never starts a frame: the idle deadline, distinguishable
     from slowloris *)
  with_pair (fun _ b ->
      match Frame.read ~idle_timeout_s:0.05 ~io_timeout_s:5.0 b with
      | Error (Frame.Timed_out Frame.Idle) -> ()
      | _ -> Alcotest.fail "idle peer must be Timed_out Idle");
  (* one payload byte flipped in flight: the checksum catches it *)
  with_pair (fun a b ->
      let mauled = Bytes.copy whole in
      let i = Frame.header_len + 1 in
      Bytes.set mauled i (Char.chr (Char.code (Bytes.get mauled i) lxor 0x40));
      let _ = Unix.write a mauled 0 (Bytes.length mauled) in
      match Frame.read b with
      | Error (Frame.Corrupt _) -> ()
      | _ -> Alcotest.fail "flipped payload byte must be Corrupt");
  (* send path: peer already gone — a typed error, not SIGPIPE/exn.
     The payload exceeds the socket buffer so the write must block on
     a reader that will never come. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  with_pair (fun a b ->
      Unix.close b;
      match Frame.write a (String.make 1_000_000 'x') with
      | Error (Frame.Closed | Frame.Io _) -> ()
      | Ok () -> Alcotest.fail "write to closed peer must fail"
      | Error e ->
          Alcotest.failf "write to closed peer: unexpected %s"
            (Frame.error_to_string e));
  (* send path: peer stops reading — the write deadline fires *)
  with_pair (fun a _ ->
      match Frame.write ~timeout_s:0.05 a (String.make 4_000_000 'x') with
      | Error (Frame.Timed_out Frame.Write) -> ()
      | Ok () -> Alcotest.fail "unread 4MB write unexpectedly completed"
      | Error e ->
          Alcotest.failf "stalled write: unexpected %s"
            (Frame.error_to_string e))

(* --------------------------------------------------------------- *)
(* Store *)

let fresh_dir () = Scratch.dir "psopt-test-store"

let budget ?deadline_ms ?max_nodes ?max_live_words steps =
  { Store.steps; deadline_ms; max_nodes; max_live_words }

let test_covers () =
  let check name expect cached request =
    Alcotest.(check bool) name expect (Store.covers ~cached ~request)
  in
  check "equal budgets cover" true (budget 100) (budget 100);
  check "larger steps cover" true (budget 200) (budget 100);
  check "smaller steps do not" false (budget 50) (budget 100);
  check "unlimited deadline covers a finite one" true
    (budget 100) (budget ~deadline_ms:5 100);
  check "finite deadline does not cover unlimited" false
    (budget ~deadline_ms:5 100) (budget 100);
  check "finite deadline covers a smaller one" true
    (budget ~deadline_ms:10 100) (budget ~deadline_ms:5 100);
  check "one stingy component sinks it" false
    (budget ~max_nodes:10 ~deadline_ms:1000 200)
    (budget ~max_nodes:20 ~deadline_ms:5 100);
  check "unlimited everywhere covers everything" true (budget max_int)
    (budget ~deadline_ms:1 ~max_nodes:1 ~max_live_words:1 1)

let entry ?(exit_code = 0) ?(output = "report\n") b =
  { Store.exit_code; output; conclusive = exit_code < 2; budget = b }

let record_path root key =
  Filename.concat (Filename.concat root (String.sub key 0 2)) (key ^ ".sexp")

let test_store_roundtrip () =
  let root = fresh_dir () in
  let store = Store.open_ root in
  let key =
    Store.key
      ~program_digest:(Store.program_digest Litmus.sb.Litmus.prog)
      ~kind:"explore:il"
      ~fingerprint:(Config.fingerprint Config.default)
  in
  Alcotest.(check bool) "empty store misses" true
    (Store.find store ~key ~budget:(budget 10) = None);
  let e = entry ~output:"line one\nline (two) \x00 100%\n" (budget 100) in
  Store.put store ~key e;
  Alcotest.(check bool) "peek returns the exact entry" true
    (Store.peek store key = Some e);
  Alcotest.(check int) "one record on disk" 1 (Store.entries store);
  (* reopening sees the record *)
  let store2 = Store.open_ root in
  Alcotest.(check bool) "reopened store still hits" true
    (Store.find store2 ~key ~budget:(budget 100) = Some e);
  Store.flush store

let test_store_completeness_rule () =
  let store = Store.open_ (fresh_dir ()) in
  let key = Store.key ~program_digest:"d" ~kind:"races" ~fingerprint:"f" in
  (* inconclusive: served only to covered budgets *)
  let trunc = entry ~exit_code:2 (budget ~max_nodes:50 100) in
  Store.put store ~key trunc;
  Alcotest.(check bool) "truncated served to an equal budget" true
    (Store.find store ~key ~budget:(budget ~max_nodes:50 100) = Some trunc);
  Alcotest.(check bool) "truncated served to a smaller budget" true
    (Store.find store ~key ~budget:(budget ~max_nodes:10 50) = Some trunc);
  Alcotest.(check bool) "truncated NOT served to a larger step budget" true
    (Store.find store ~key ~budget:(budget ~max_nodes:50 200) = None);
  Alcotest.(check bool) "truncated NOT served to an unlimited-nodes budget"
    true
    (Store.find store ~key ~budget:(budget 100) = None);
  (* conclusive: served under any budget, however large *)
  let concl = entry ~exit_code:1 (budget 10) in
  Store.put store ~key concl;
  Alcotest.(check bool) "conclusive overwrites" true
    (Store.peek store key = Some concl);
  Alcotest.(check bool) "conclusive served to a huge budget" true
    (Store.find store ~key ~budget:(budget max_int) = Some concl)

let test_store_corruption () =
  let root = fresh_dir () in
  let store = Store.open_ root in
  let key = Store.key ~program_digest:"p" ~kind:"litmus:sb" ~fingerprint:"f" in
  let e = entry (budget 100) in
  (* every damaged-but-present record must also tick [corrupt_misses];
     a deleted record is a plain miss and must not *)
  let damage ?(counts = true) name f =
    Store.put store ~key e;
    f (record_path root key);
    let before = Store.corrupt_misses store in
    Alcotest.(check bool) (name ^ ": peek is a clean miss") true
      (Store.peek store key = None);
    Alcotest.(check bool) (name ^ ": find is a clean miss") true
      (Store.find store ~key ~budget:(budget 10) = None);
    let delta = Store.corrupt_misses store - before in
    Alcotest.(check bool)
      (name
      ^
      if counts then ": corrupt-miss counter ticks"
      else ": corrupt-miss counter untouched")
      true
      (if counts then delta > 0 else delta = 0)
  in
  damage "truncated record" (fun p ->
      let fd = Unix.openfile p [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd 7;
      Unix.close fd);
  damage "garbled record" (fun p ->
      Out_channel.with_open_bin p (fun oc ->
          Out_channel.output_string oc "(((((((not a record \x01\x02"));
  damage "wrong version" (fun p ->
      let s = In_channel.with_open_bin p In_channel.input_all in
      let needle = "(version " in
      let i =
        let rec find i =
          if i + String.length needle > String.length s then
            Alcotest.fail "record has no version field"
          else if String.sub s i (String.length needle) = needle then i
          else find (i + 1)
        in
        find 0
      in
      let j = String.index_from s i ')' + 1 in
      Out_channel.with_open_bin p (fun oc ->
          Out_channel.output_string oc (String.sub s 0 i);
          Out_channel.output_string oc "(version 99)";
          Out_channel.output_string oc (String.sub s j (String.length s - j))));
  damage "empty file" (fun p ->
      Out_channel.with_open_bin p (fun oc -> ignore oc));
  (* damage that still parses as a record: only the digest tells *)
  let edit_after needle change p =
    let s = In_channel.with_open_bin p In_channel.input_all in
    let rec find i =
      if i + String.length needle > String.length s then
        Alcotest.failf "record has no %S" needle
      else if String.sub s i (String.length needle) = needle then
        i + String.length needle
      else find (i + 1)
    in
    let at = find 0 in
    Out_channel.with_open_bin p (fun oc ->
        Out_channel.output_string oc
          (String.mapi (fun j c -> if j = at then change c else c) s))
  in
  damage "exit code 0 -> 1"
    (edit_after "(exit " (function '0' -> '1' | c -> c));
  damage "output letter case flipped"
    (edit_after "(output s:" (fun c ->
         if Char.lowercase_ascii c = c then Char.uppercase_ascii c
         else Char.lowercase_ascii c));
  damage ~counts:false "record deleted" Sys.remove;
  (* a key echo mismatch (record copied to the wrong address) misses *)
  Store.put store ~key e;
  let other = Store.key ~program_digest:"p2" ~kind:"litmus:sb" ~fingerprint:"f" in
  let src = In_channel.with_open_bin (record_path root key) In_channel.input_all in
  let dst = record_path root other in
  (try Unix.mkdir (Filename.dirname dst) 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Out_channel.with_open_bin dst (fun oc -> Out_channel.output_string oc src);
  Alcotest.(check bool) "misplaced record is a miss" true
    (Store.peek store other = None)

let store_props =
  [
    QCheck.Test.make ~count:100 ~name:"store round-trips any output bytes"
      QCheck.(pair raw_string_arbitrary (int_bound 2))
      (let store = lazy (Store.open_ (fresh_dir ())) in
       let n = ref 0 in
       fun (output, exit_code) ->
         incr n;
         let store = Lazy.force store in
         let key =
           Store.key ~program_digest:(string_of_int !n) ~kind:"races"
             ~fingerprint:"fp"
         in
         let e = entry ~exit_code ~output (budget 100) in
         Store.put store ~key e;
         Store.peek store key = Some e);
  ]

(* --------------------------------------------------------------- *)
(* Fingerprint contract *)

let test_fingerprint () =
  let fp = Config.fingerprint in
  let d = Config.default in
  let same name c =
    Alcotest.(check string) (name ^ " leaves the fingerprint alone") (fp d)
      (fp c)
  in
  let differs name c =
    Alcotest.(check bool) (name ^ " changes the fingerprint") true
      (fp c <> fp d)
  in
  (* perf switches and budgets are out *)
  same "memoize" { d with Config.memoize = not d.Config.memoize };
  same "cert_cache" { d with Config.cert_cache = not d.Config.cert_cache };
  same "domains" { d with Config.domains = 7 };
  same "max_steps" { d with Config.max_steps = 1 };
  same "deadline_ms" { d with Config.deadline_ms = Some 1 };
  same "max_nodes" { d with Config.max_nodes = Some 1 };
  same "max_live_words" { d with Config.max_live_words = Some 1 };
  (* semantic fields are in *)
  differs "max_promises" { d with Config.max_promises = d.Config.max_promises + 1 };
  differs "promise_mode" { d with Config.promise_mode = Config.No_promises };
  differs "reservations" { d with Config.reservations = not d.Config.reservations };
  differs "cert_fuel" { d with Config.cert_fuel = d.Config.cert_fuel + 1 };
  differs "cap_certification"
    { d with Config.cap_certification = not d.Config.cap_certification };
  differs "strict_promises"
    { d with Config.strict_promises = not d.Config.strict_promises };
  differs "fault"
    { d with Config.fault = Some { Config.fault_seed = 1; fault_rate = 0.5 } };
  (* the reduction knobs are in: bound_promises changes completeness,
     por changes the reported Open prefixes, and a store keyed without
     them could hand a reduced result to an unreduced query *)
  let red r = { d with Config.reduction = r } in
  differs "reduction.por" (red { Config.no_reduction with Config.por = true });
  differs "reduction.symmetry"
    (red { Config.no_reduction with Config.symmetry = true });
  differs "reduction.bound_promises"
    (red { Config.no_reduction with Config.bound_promises = Some 2 });
  differs "reduction.bound_promises value"
    (red { Config.no_reduction with Config.bound_promises = Some 3 });
  differs "full_reduction" (red Config.full_reduction)

(* --------------------------------------------------------------- *)
(* Admission gate *)

let test_admission () =
  let module A = Service.Server.Admission in
  let a = A.create ~capacity:0 in
  (match A.try_run a (fun () -> 41 + 1) with
  | `Done n -> Alcotest.(check int) "idle gate runs in the slot" 42 n
  | `Busy _ | `Shed | `Expired -> Alcotest.fail "idle gate refused work");
  Alcotest.(check int) "idle gate has no inflight work" 0 (A.inflight a);
  (* occupy the slot from another thread, then overflow *)
  let m = Mutex.create () in
  let c = Condition.create () in
  let release = ref false in
  let occupant =
    Thread.create
      (fun () ->
        A.try_run a (fun () ->
            Mutex.lock m;
            while not !release do
              Condition.wait c m
            done;
            Mutex.unlock m))
      ()
  in
  while A.inflight a = 0 do
    Thread.yield ()
  done;
  (match A.try_run a (fun () -> ()) with
  | `Busy inflight ->
      Alcotest.(check int) "Busy reports the occupant" 1 inflight
  | `Done _ | `Shed | `Expired ->
      Alcotest.fail "capacity-0 gate admitted past the slot");
  Mutex.lock m;
  release := true;
  Condition.broadcast c;
  Mutex.unlock m;
  (match Thread.join occupant with () -> ());
  A.drain a;
  Alcotest.(check int) "drained gate is empty" 0 (A.inflight a)

(* A slot occupant the test controls: holds the gate until [free] is
   called, signalling once it is actually running. *)
let occupy gate =
  let module A = Service.Server.Admission in
  let m = Mutex.create () in
  let c = Condition.create () in
  let running = ref false and release = ref false in
  let th =
    Thread.create
      (fun () ->
        A.try_run gate (fun () ->
            Mutex.lock m;
            running := true;
            Condition.broadcast c;
            while not !release do
              Condition.wait c m
            done;
            Mutex.unlock m))
      ()
  in
  Mutex.lock m;
  while not !running do
    Condition.wait c m
  done;
  Mutex.unlock m;
  fun () ->
    Mutex.lock m;
    release := true;
    Condition.broadcast c;
    Mutex.unlock m;
    Thread.join th

let test_admission_deadline () =
  let module A = Service.Server.Admission in
  let a = A.create ~capacity:4 in
  (* a deadline already in the past is refused before queueing *)
  let free = occupy a in
  (match
     A.try_run a ~deadline_ns:(Obs.Clock.now_ns () - 1) (fun () -> ())
   with
  | `Expired -> ()
  | _ -> Alcotest.fail "past deadline must be Expired");
  (* a waiter whose deadline passes while queued expires on a tick,
     without ever holding the slot *)
  let result :
      [ `Pending | `Busy of int | `Done of unit | `Expired | `Shed ] ref =
    ref `Pending
  in
  let waiter =
    Thread.create
      (fun () ->
        result :=
          (A.try_run a
             ~deadline_ns:(Obs.Clock.now_ns () + 20_000_000)
             (fun () -> ())
            :> [ `Pending | `Busy of int | `Done of unit | `Expired | `Shed ]))
      ()
  in
  let t0 = Unix.gettimeofday () in
  while !result = `Pending && Unix.gettimeofday () -. t0 < 5.0 do
    Thread.delay 0.005;
    A.tick a
  done;
  Thread.join waiter;
  (match !result with
  | `Expired -> ()
  | `Pending -> Alcotest.fail "queued waiter never expired (hang)"
  | _ -> Alcotest.fail "queued waiter past its deadline must be Expired");
  free ();
  A.drain a

type gate_outcome =
  [ `Pending | `Busy of int | `Done of [ `Ran ] | `Expired | `Shed ]

let test_admission_priority () =
  let module A = Service.Server.Admission in
  let a = A.create ~capacity:1 in
  let free = occupy a in
  (* a Normal waiter fills the queue *)
  let normal : gate_outcome ref = ref `Pending in
  let normal_th =
    Thread.create
      (fun () ->
        normal := (A.try_run a ~prio:A.Normal (fun () -> `Ran) :> gate_outcome))
      ()
  in
  while A.inflight a < 2 do
    Thread.yield ()
  done;
  (* a Normal arrival at the full queue bounces Busy *)
  (match A.try_run a ~prio:A.Normal (fun () -> ()) with
  | `Busy _ -> ()
  | _ -> Alcotest.fail "full queue must answer Busy to Normal");
  (* a High arrival preempts the queued Normal waiter instead *)
  let high : gate_outcome ref = ref `Pending in
  let high_th =
    Thread.create
      (fun () ->
        high := (A.try_run a ~prio:A.High (fun () -> `Ran) :> gate_outcome))
      ()
  in
  (* the preempted Normal waiter observes Shed *)
  Thread.join normal_th;
  (match !normal with
  | `Shed -> ()
  | _ -> Alcotest.fail "preempted Normal waiter must observe Shed");
  (* once the occupant leaves, the High waiter runs *)
  free ();
  Thread.join high_th;
  (match !high with
  | `Done `Ran -> ()
  | _ -> Alcotest.fail "High waiter must run after the slot frees");
  A.drain a

(* --------------------------------------------------------------- *)
(* serve_work: the store-aware path shared by daemon and bench *)

let test_serve_work () =
  let store = Store.open_ (fresh_dir ()) in
  let stats = Service.Server.Counters.create () in
  let w = Proto.Litmus Litmus.sb.Litmus.name in
  let ask () = Service.Server.serve_work ~store ~stats w Config.default in
  let direct =
    match Service.Server.run_work w Config.default with
    | Ok (out, code) -> (out, code)
    | Error e -> Alcotest.fail e
  in
  (match ask () with
  | Proto.Reply r ->
      Alcotest.(check bool) "first serve is a miss" false r.Proto.cached;
      Alcotest.(check string) "serve output = direct output" (fst direct)
        r.Proto.output;
      Alcotest.(check int) "serve code = direct code" (snd direct)
        r.Proto.exit_code
  | _ -> Alcotest.fail "expected a Reply");
  (match ask () with
  | Proto.Reply r ->
      Alcotest.(check bool) "second serve is a hit" true r.Proto.cached;
      Alcotest.(check string) "cached output identical" (fst direct)
        r.Proto.output
  | _ -> Alcotest.fail "expected a Reply");
  Alcotest.(check int) "one miss counted" 1
    (Atomic.get stats.Service.Server.Counters.store_misses);
  Alcotest.(check int) "one hit counted" 1
    (Atomic.get stats.Service.Server.Counters.store_hits);
  (* errors are refused, not cached *)
  (match
     Service.Server.serve_work ~store ~stats (Proto.Litmus "no-such-litmus")
       Config.default
   with
  | Proto.Refused _ -> ()
  | _ -> Alcotest.fail "unknown litmus name must be Refused");
  (* the conclusive verdict above is served even to a tighter budget:
     budgets are not part of the key, and exit 0/1 holds forever *)
  (match
     Service.Server.serve_work ~store ~stats w
       { Config.default with Config.max_steps = 3 }
   with
  | Proto.Reply r ->
      Alcotest.(check bool) "conclusive served across budgets" true
        r.Proto.cached
  | _ -> Alcotest.fail "expected a Reply");
  (* a truncated result is recomputed under a larger budget — fresh
     store so the conclusive record above doesn't shadow the scenario *)
  let store = Store.open_ (fresh_dir ()) in
  let tight = { Config.default with Config.max_steps = 3 } in
  (match Service.Server.serve_work ~store ~stats w tight with
  | Proto.Reply r ->
      Alcotest.(check int) "tight budget is inconclusive" 2 r.Proto.exit_code;
      Alcotest.(check bool) "inconclusive is not conclusive" false
        r.Proto.conclusive
  | _ -> Alcotest.fail "expected a Reply");
  (match
     Service.Server.serve_work ~store ~stats w
       { Config.default with Config.max_steps = 4 }
   with
  | Proto.Reply r ->
      Alcotest.(check bool)
        "larger budget re-runs instead of reusing the truncation" false
        r.Proto.cached
  | _ -> Alcotest.fail "expected a Reply")

(* --------------------------------------------------------------- *)
(* End to end: a real daemon on a real socket *)

(* Start a daemon on a fresh socket, hand it to [f], shut it down and
   check it exits cleanly.  [configure] tweaks the default config. *)
let socket_counter = ref 0

let with_daemon ?(configure = fun c -> c) f =
  incr socket_counter;
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psopt-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  let cfg =
    configure { (Service.Server.default ~socket) with quiet = true }
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
            cfg)
      ()
  in
  Mutex.lock m;
  while not !ready do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Fun.protect
    ~finally:(fun () ->
      (match Service.Client.shutdown ~socket with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("shutdown: " ^ e));
      Thread.join server;
      match !server_result with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("server exit: " ^ e))
    (fun () -> f socket)

let contains text needle =
  let nh = String.length text and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
  go 0

let test_server_e2e () =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psopt-test-%d.sock" (Unix.getpid ()))
  in
  let store_dir = fresh_dir () in
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
            { (Service.Server.default ~socket) with
              store_dir = Some store_dir;
              capacity = 4;
              quiet = true })
      ()
  in
  Mutex.lock m;
  while not !ready do
    Condition.wait c m
  done;
  Mutex.unlock m;
  (* ping: liveness + version *)
  (match Service.Client.ping ~socket with
  | Ok v ->
      Alcotest.(check string) "ping returns the build version"
        Service.Version.version v
  | Error e -> Alcotest.fail ("ping: " ^ e));
  (* the same work twice over the wire: miss then hit, identical bytes *)
  let req = Proto.Work (Proto.Litmus Litmus.lb.Litmus.name, Config.default, None) in
  let ask () =
    match
      Service.Client.with_client ~socket (fun cl ->
          Service.Client.rpc_wait cl req)
    with
    | Ok (Ok (Proto.Reply r)) -> r
    | Ok (Ok _) -> Alcotest.fail "expected a Reply"
    | Ok (Error e) | Error e -> Alcotest.fail e
  in
  let r1 = ask () in
  let r2 = ask () in
  Alcotest.(check bool) "first wire request misses" false r1.Proto.cached;
  Alcotest.(check bool) "second wire request hits" true r2.Proto.cached;
  Alcotest.(check string) "wire outputs byte-identical" r1.Proto.output
    r2.Proto.output;
  Alcotest.(check int) "wire exit codes equal" r1.Proto.exit_code
    r2.Proto.exit_code;
  (* stats reflect the exchange *)
  (match
     Service.Client.with_client ~socket (fun cl ->
         Service.Client.rpc cl Proto.Stats)
   with
  | Ok (Ok (Proto.Stats_reply s)) ->
      Alcotest.(check int) "stats: one store hit" 1 s.Proto.store_hits;
      Alcotest.(check int) "stats: one store miss" 1 s.Proto.store_misses;
      Alcotest.(check int) "stats: one record" 1 s.Proto.store_entries;
      Alcotest.(check int) "stats: nothing inflight" 0 s.Proto.inflight;
      Alcotest.(check int) "stats: no corrupt records" 0 s.Proto.store_corrupt
  | Ok (Ok _) | Ok (Error _) | Error _ -> Alcotest.fail "stats request failed");
  (* the metrics exposition carries the service families, with the
     counters agreeing with the exchange above *)
  (match Service.Client.metrics ~socket with
  | Ok text ->
      let contains needle =
        let nh = String.length text and nn = String.length needle in
        let rec go i =
          i + nn <= nh && (String.sub text i nn = needle || go (i + 1))
        in
        go 0
      in
      List.iter
        (fun family ->
          Alcotest.(check bool) ("metrics exposes " ^ family) true
            (contains family))
        [ "psopt_service_store_hits_total 1";
          "psopt_service_store_misses_total 1";
          "psopt_service_store_corrupt_total 0";
          "psopt_service_request_duration_ns_count";
          "psopt_store_lookup_duration_ns_bucket";
          "# TYPE psopt_service_request_duration_ns histogram" ]
  | Error e -> Alcotest.fail ("metrics: " ^ e));
  (* graceful shutdown: drains, unlinks the socket, run returns Ok *)
  (match Service.Client.shutdown ~socket with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("shutdown: " ^ e));
  Thread.join server;
  (match !server_result with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("server exit: " ^ e));
  Alcotest.(check bool) "socket unlinked after shutdown" false
    (Sys.file_exists socket)

(* A wedged client dribbles two header bytes and stalls: the server
   must evict the connection on its mid-frame I/O deadline (observable
   as EOF from the client side), count it, and expose it in both the
   Stats payload and the metrics exposition. *)
let test_server_slowloris () =
  with_daemon
    ~configure:(fun c -> { c with io_timeout_s = 0.1; idle_timeout_s = 10.0 })
    (fun socket ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          let _ = Unix.write fd (Bytes.make 2 '\001') 0 2 in
          (* the server must hang up on us, not wait forever *)
          match Unix.select [ fd ] [] [] 5.0 with
          | [], _, _ -> Alcotest.fail "server kept the wedged connection"
          | _ ->
              Alcotest.(check int) "evicted connection reads EOF" 0
                (Unix.read fd (Bytes.create 1) 0 1));
      (* the eviction is visible in the service counters... *)
      (match
         Service.Client.with_client ~socket (fun cl ->
             Service.Client.rpc cl Proto.Stats)
       with
      | Ok (Ok (Proto.Stats_reply s)) ->
          Alcotest.(check int) "stats count the eviction" 1 s.Proto.evictions
      | _ -> Alcotest.fail "stats request failed");
      (* ...and in the scraped metrics, labeled with the reason *)
      match Service.Client.metrics ~socket with
      | Ok text ->
          Alcotest.(check bool) "metrics expose the slowloris eviction" true
            (contains text
               "psopt_service_conn_evictions_total{reason=\"slowloris\"}")
      | Error e -> Alcotest.fail ("metrics: " ^ e))

(* Deadlines propagate: a server-side request-deadline cap shrinks the
   exploration budget, so an overrun comes back as the honest
   inconclusive verdict (exit 2) — never a dropped connection.  A
   request whose deadline has already passed is answered with the
   typed Shed reply, and the shed shows up in the scraped metrics. *)
let test_server_deadline_cap () =
  with_daemon
    ~configure:(fun c ->
      { c with store_dir = None; request_deadline_ms = Some 5 })
    (fun socket ->
      let config =
        { Config.default with Config.max_steps = 1_000_000; domains = 1 }
      in
      let overran = ref false in
      let seed = ref 0 in
      while (not !overran) && !seed < 10 do
        incr seed;
        let p = Explore.Stress.generate ~seed:!seed in
        match
          Service.Client.with_client ~socket (fun cl ->
              Service.Client.rpc cl
                (Proto.Work (Proto.Explore (Explore.Enum.Interleaving, p), config, None)))
        with
        | Ok (Ok (Proto.Reply r)) ->
            if r.Proto.exit_code = 2 then begin
              Alcotest.(check bool) "overrun reply is not conclusive" false
                r.Proto.conclusive;
              overran := true
            end
        | Ok (Ok (Proto.Shed _)) -> ()  (* admitted too late: also legal *)
        | Ok (Ok other) ->
            Alcotest.failf "unexpected response: %s"
              (match other with
              | Proto.Refused m -> "Refused " ^ m
              | _ -> "non-Reply")
        | Ok (Error e) | Error e -> Alcotest.fail e
      done;
      Alcotest.(check bool)
        "some exploration overran the 5ms server cap into inconclusive" true
        !overran;
      (* a request that arrives already expired is shed, typed *)
      (match
         Service.Client.with_client ~socket (fun cl ->
             Service.Client.rpc cl
               (Proto.Work
                  ( Proto.Litmus Litmus.sb.Litmus.name,
                    { Config.default with Config.deadline_ms = Some 0 },
                    None )))
       with
      | Ok (Ok (Proto.Shed { reason = Proto.Expired; _ })) -> ()
      | Ok (Ok _) -> Alcotest.fail "already-expired work must be Shed Expired"
      | Ok (Error e) | Error e -> Alcotest.fail e);
      match Service.Client.metrics ~socket with
      | Ok text ->
          Alcotest.(check bool) "metrics expose the expiry shed" true
            (contains text "psopt_service_shed_total{reason=\"expired\"}")
      | Error e -> Alcotest.fail ("metrics: " ^ e))

(* --------------------------------------------------------------- *)

let () =
  Alcotest.run "service"
    [
      ( "proto",
        Alcotest.test_case "fixed requests/responses + garbage" `Quick
          test_proto_units
        :: Alcotest.test_case "framing over a socketpair" `Quick test_framing
        :: Alcotest.test_case "framing fault matrix (truncation, stall, flip)"
             `Quick test_framing_faults
        :: List.map QCheck_alcotest.to_alcotest proto_props );
      ( "store",
        Alcotest.test_case "covers is componentwise" `Quick test_covers
        :: Alcotest.test_case "put/peek/find/reopen" `Quick
             test_store_roundtrip
        :: Alcotest.test_case "conclusive forever, truncated only covered"
             `Quick test_store_completeness_rule
        :: Alcotest.test_case "corruption is a clean miss" `Quick
             test_store_corruption
        :: List.map QCheck_alcotest.to_alcotest store_props );
      ( "fingerprint",
        [ Alcotest.test_case "semantic in, perf + budgets out" `Quick
            test_fingerprint ] );
      ( "server",
        [
          Alcotest.test_case "admission gate" `Quick test_admission;
          Alcotest.test_case "admission deadlines expire waiters" `Quick
            test_admission_deadline;
          Alcotest.test_case "admission priority preempts the youngest"
            `Quick test_admission_priority;
          Alcotest.test_case "serve_work: miss, hit, refuse, budget re-run"
            `Quick test_serve_work;
          Alcotest.test_case "end-to-end daemon exchange" `Quick
            test_server_e2e;
          Alcotest.test_case "slowloris connection evicted + counted" `Quick
            test_server_slowloris;
          Alcotest.test_case "deadline cap: overrun is inconclusive, typed shed"
            `Quick test_server_deadline_cap;
        ] );
    ]
