(* The telemetry subsystem: registry semantics, histogram math, trace
   recording/export/validation, and the logger's formatting contract.

   Everything here runs against the process-global registry, so tests
   use distinct metric names and assert on deltas, never on absolute
   registry state. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* --------------------------------------------------------------- *)
(* Metrics registry *)

let test_counter_idempotent () =
  let a = Obs.Metrics.counter "test_obs_idem_total" in
  let b = Obs.Metrics.counter "test_obs_idem_total" in
  Obs.Metrics.incr a;
  Obs.Metrics.add b 2;
  (* same (name, labels) pair: both handles reach one cell *)
  Alcotest.(check int) "one cell behind two handles" 3 (Obs.Metrics.value a);
  (* distinct labels are distinct cells *)
  let l1 = Obs.Metrics.counter ~labels:[ ("k", "v1") ] "test_obs_lbl_total" in
  let l2 = Obs.Metrics.counter ~labels:[ ("k", "v2") ] "test_obs_lbl_total" in
  Obs.Metrics.incr l1;
  Alcotest.(check int) "labelled siblings are independent" 0
    (Obs.Metrics.value l2)

let test_gauge_set () =
  let g = Obs.Metrics.gauge "test_obs_gauge" in
  Obs.Metrics.set g 41;
  Obs.Metrics.set g 7;
  Alcotest.(check int) "set overwrites" 7 (Obs.Metrics.value g)

let test_histogram_summary () =
  let h = Obs.Metrics.histogram "test_obs_hist_ns" in
  Alcotest.(check int) "fresh histogram is empty" 0
    (Obs.Metrics.histogram_count h);
  let s0 = Obs.Metrics.summary h in
  Alcotest.(check int) "empty summary: count" 0 s0.Obs.Metrics.count;
  Alcotest.(check (float 0.0)) "empty summary: p99" 0.0 s0.Obs.Metrics.p99_ns;
  (* 90 small observations and 10 large ones: p50 must land in the
     small bucket's range, p99 in the large one's.  Buckets are
     power-of-two, so quantile estimates carry at most 2x error —
     assert bucket membership, not exact values. *)
  for _ = 1 to 90 do
    Obs.Metrics.observe_ns h 2_000
  done;
  for _ = 1 to 10 do
    Obs.Metrics.observe_ns h 1_000_000
  done;
  let s = Obs.Metrics.summary h in
  Alcotest.(check int) "count" 100 s.Obs.Metrics.count;
  Alcotest.(check int) "sum" (90 * 2_000 + 10 * 1_000_000)
    s.Obs.Metrics.sum_ns;
  Alcotest.(check bool) "p50 in the small bucket" true
    (s.Obs.Metrics.p50_ns >= 1024. && s.Obs.Metrics.p50_ns <= 4096.);
  Alcotest.(check bool) "p99 in the large bucket" true
    (s.Obs.Metrics.p99_ns > 500_000. && s.Obs.Metrics.p99_ns <= 2_097_152.);
  Alcotest.(check bool) "quantiles are monotone" true
    (s.Obs.Metrics.p50_ns <= s.Obs.Metrics.p90_ns
    && s.Obs.Metrics.p90_ns <= s.Obs.Metrics.p99_ns);
  (* negative observations clamp instead of raising *)
  Obs.Metrics.observe_ns h (-5);
  Alcotest.(check int) "negative observation counted" 101
    (Obs.Metrics.histogram_count h)

let test_histogram_time () =
  let h = Obs.Metrics.histogram "test_obs_time_ns" in
  let r = Obs.Metrics.time h (fun () -> 42) in
  Alcotest.(check int) "time returns the thunk's value" 42 r;
  Alcotest.(check int) "one observation" 1 (Obs.Metrics.histogram_count h);
  (* the duration is observed even when the thunk raises *)
  (try Obs.Metrics.time h (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "exception still observed" 2
    (Obs.Metrics.histogram_count h)

let test_render_shape () =
  let c = Obs.Metrics.counter ~help:"a test counter" "test_obs_render_total" in
  Obs.Metrics.add c 5;
  let h = Obs.Metrics.histogram "test_obs_render_ns" in
  Obs.Metrics.observe_ns h 2_000;
  Obs.Metrics.observe_ns h 3_000_000;
  let text = Obs.Metrics.render () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("render contains " ^ needle) true
        (contains text needle))
    [ "# HELP test_obs_render_total a test counter";
      "# TYPE test_obs_render_total counter";
      "test_obs_render_total 5";
      "# TYPE test_obs_render_ns histogram";
      "test_obs_render_ns_count 2";
      "test_obs_render_ns_sum 3002000";
      "test_obs_render_ns_bucket{le=\"+Inf\"} 2" ];
  (* buckets are cumulative: the 2048-bucket holds the small
     observation, every bucket past 2^22 ns holds both *)
  Alcotest.(check bool) "small bucket cumulative" true
    (contains text "test_obs_render_ns_bucket{le=\"2048\"} 1");
  Alcotest.(check bool) "large bucket cumulative" true
    (contains text "test_obs_render_ns_bucket{le=\"4194304\"} 2");
  (* find_histogram sees through the registry *)
  Alcotest.(check bool) "find_histogram hits" true
    (Obs.Metrics.find_histogram "test_obs_render_ns" <> None);
  Alcotest.(check bool) "find_histogram misses unknown names" true
    (Obs.Metrics.find_histogram "test_obs_not_registered" = None)

(* --------------------------------------------------------------- *)
(* Span tracing *)

let test_trace_disabled_is_silent () =
  Obs.Trace.stop ();
  let before = List.length (Obs.Trace.events ()) in
  let r = Obs.Trace.span "quiet" (fun () -> 7) in
  Alcotest.(check int) "span is transparent" 7 r;
  Alcotest.(check int) "nothing recorded while off" before
    (List.length (Obs.Trace.events ()))

let test_trace_records_and_clears () =
  Obs.Trace.start ();
  Alcotest.(check bool) "start enables" true (Obs.Trace.on ());
  ignore (Obs.Trace.span ~cat:"t" "outer" (fun () ->
      Obs.Trace.span ~cat:"t" "inner" (fun () -> ignore (Sys.opaque_identity 1))));
  (try Obs.Trace.span "raises" (fun () -> failwith "x")
   with Failure _ -> ());
  Obs.Trace.stop ();
  let evs = Obs.Trace.events () in
  let names = List.map (fun e -> e.Obs.Trace.name) evs in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("recorded " ^ n) true (List.mem n names))
    [ "outer"; "inner"; "raises" ];
  (* nesting: inner's interval lies within outer's *)
  let find n = List.find (fun e -> e.Obs.Trace.name = n) evs in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check bool) "inner nests in outer" true
    (inner.Obs.Trace.ts_ns >= outer.Obs.Trace.ts_ns
    && inner.Obs.Trace.ts_ns + inner.Obs.Trace.dur_ns
       <= outer.Obs.Trace.ts_ns + outer.Obs.Trace.dur_ns);
  (* events come back sorted by begin stamp *)
  let sorted =
    List.sort (fun a b -> compare a.Obs.Trace.ts_ns b.Obs.Trace.ts_ns) evs
  in
  Alcotest.(check bool) "merge order is begin-stamp order" true
    (List.map (fun e -> e.Obs.Trace.ts_ns) evs
    = List.map (fun e -> e.Obs.Trace.ts_ns) sorted);
  (* restarting clears the previous recording *)
  Obs.Trace.start ();
  ignore (Obs.Trace.span "fresh" (fun () -> ()));
  Obs.Trace.stop ();
  let names' = List.map (fun e -> e.Obs.Trace.name) (Obs.Trace.events ()) in
  Alcotest.(check bool) "start clears old spans" false
    (List.mem "outer" names');
  Alcotest.(check bool) "new span recorded" true (List.mem "fresh" names')

let test_trace_multi_domain () =
  Obs.Trace.start ();
  let ds =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            Obs.Trace.span (Printf.sprintf "d%d" i) (fun () ->
                ignore (Sys.opaque_identity (i * i)))))
  in
  List.iter Domain.join ds;
  Obs.Trace.stop ();
  let evs = Obs.Trace.events () in
  List.iter
    (fun i ->
      let n = Printf.sprintf "d%d" i in
      Alcotest.(check bool) ("domain span " ^ n ^ " merged") true
        (List.exists (fun e -> e.Obs.Trace.name = n) evs))
    [ 0; 1; 2 ]

let test_trace_write_validate () =
  Obs.Trace.start ();
  ignore (Obs.Trace.span ~cat:"a" "s1" (fun () -> ()));
  ignore (Obs.Trace.span ~cat:"b" "s2" (fun () -> ()));
  Obs.Trace.stop ();
  let file = Filename.temp_file "psopt-test-trace" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      (match Obs.Trace.write_file file with
      | Ok n -> Alcotest.(check bool) "write reports >= 2 events" true (n >= 2)
      | Error e -> Alcotest.fail ("write_file: " ^ e));
      match Obs.Trace.validate_file file with
      | Ok shape ->
          Alcotest.(check bool) "validator counts the events" true
            (shape.Obs.Trace.n_events >= 2);
          List.iter
            (fun n ->
              Alcotest.(check bool) ("validator lists " ^ n) true
                (List.mem n shape.Obs.Trace.names))
            [ "s1"; "s2" ]
      | Error e -> Alcotest.fail ("validate_file: " ^ e))

let test_trace_validator_rejects () =
  List.iter
    (fun (label, doc) ->
      Alcotest.(check bool) ("rejects " ^ label) true
        (Result.is_error (Obs.Trace.validate_string doc)))
    [ ("garbage", "not json at all");
      ("no traceEvents", "{\"foo\": []}");
      ("traceEvents not an array", "{\"traceEvents\": 3}");
      ("event without name", "{\"traceEvents\": [{\"ph\": \"X\"}]}");
      ( "wrong phase",
        "{\"traceEvents\": [{\"name\": \"x\", \"ph\": \"B\", \"ts\": 0, \
         \"dur\": 1, \"pid\": 1, \"tid\": 0}]}" );
      ("truncated", "{\"traceEvents\": [{\"name\": \"x\"") ]

let test_trace_ctx_stamps_args () =
  Obs.Trace.start ();
  let c = Obs.Trace.new_ctx () in
  Alcotest.(check bool) "ids are 16 hex chars" true
    (String.length c.Obs.Trace.trace_id = 16
    && String.length c.Obs.Trace.span_id = 16
    && String.for_all
         (fun ch -> (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f'))
         (c.Obs.Trace.trace_id ^ c.Obs.Trace.span_id));
  Obs.Trace.with_ctx (Some c) (fun () ->
      Alcotest.(check bool) "ambient context visible" true
        (Obs.Trace.current () = Some c);
      ignore (Obs.Trace.span ~args:[ ("k", "v") ] "stamped" (fun () -> ())));
  Alcotest.(check bool) "context restored after with_ctx" true
    (Obs.Trace.current () = None);
  ignore (Obs.Trace.span "bare" (fun () -> ()));
  Obs.Trace.stop ();
  let evs = Obs.Trace.events () in
  let find n = List.find (fun e -> e.Obs.Trace.name = n) evs in
  let stamped = find "stamped" and bare = find "bare" in
  Alcotest.(check (option string)) "trace_id stamped"
    (Some c.Obs.Trace.trace_id)
    (List.assoc_opt "trace_id" stamped.Obs.Trace.args);
  Alcotest.(check (option string)) "span_id stamped"
    (Some c.Obs.Trace.span_id)
    (List.assoc_opt "span_id" stamped.Obs.Trace.args);
  Alcotest.(check (option string)) "caller args preserved" (Some "v")
    (List.assoc_opt "k" stamped.Obs.Trace.args);
  Alcotest.(check (option string)) "no stamp outside the context" None
    (List.assoc_opt "trace_id" bare.Obs.Trace.args)

let test_trace_ctx_per_thread () =
  (* contexts are per-thread, not per-domain: two threads on the same
     domain must not clobber each other — the daemon's handler threads
     all live on domain 0 *)
  Obs.Trace.start ();
  let barrier = Mutex.create () in
  let seen = Array.make 2 None in
  Mutex.lock barrier;
  let mk i =
    Thread.create
      (fun () ->
        let c = Obs.Trace.new_ctx () in
        Obs.Trace.with_ctx (Some c) (fun () ->
            Mutex.lock barrier;
            Mutex.unlock barrier;
            seen.(i) <- (if Obs.Trace.current () = Some c then Some true
                         else Some false)))
      ()
  in
  let t0 = mk 0 and t1 = mk 1 in
  Thread.delay 0.05;
  Mutex.unlock barrier;
  Thread.join t0;
  Thread.join t1;
  Obs.Trace.stop ();
  Alcotest.(check (option bool)) "thread 0 kept its context" (Some true) seen.(0);
  Alcotest.(check (option bool)) "thread 1 kept its context" (Some true) seen.(1)

let test_trace_merge_files () =
  let mk_file name ts =
    Obs.Trace.start ();
    Obs.Trace.add ~name ~ts_ns:ts ~dur_ns:1000 ();
    Obs.Trace.stop ();
    let file = Filename.temp_file "psopt-test-merge" ".json" in
    match Obs.Trace.write_file file with
    | Ok _ -> file
    | Error e -> Alcotest.fail ("write_file: " ^ e)
  in
  let a = mk_file "from_a" 5_000_000 in
  let b = mk_file "from_b" 9_000_000 in
  let out = Filename.temp_file "psopt-test-merged" ".json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ a; b; out ])
    (fun () ->
      (match Obs.Trace.merge_files ~inputs:[ a; b ] ~output:out with
      | Ok n -> Alcotest.(check int) "merged event count" 2 n
      | Error e -> Alcotest.fail ("merge_files: " ^ e));
      match Obs.Trace.validate_file out with
      | Ok shape ->
          Alcotest.(check int) "merged doc validates with both events" 2
            shape.Obs.Trace.n_events;
          List.iter
            (fun n ->
              Alcotest.(check bool) ("merged doc lists " ^ n) true
                (List.mem n shape.Obs.Trace.names))
            [ "from_a"; "from_b" ]
      | Error e -> Alcotest.fail ("validate merged: " ^ e))

(* --------------------------------------------------------------- *)
(* JSON codec *)

let test_json_printing () =
  let open Obs.Json in
  let cases =
    [
      ("quote, backslash, newline", String "a\"b\\c\nd", {|"a\"b\\c\nd"|});
      ("control characters", String "\t\r\001\031", {|"\t\r\u0001\u001f"|});
      ("integers print without .0", Int 3, "3");
      ("negative integer", Int (-42), "-42");
      ("integral float keeps .0", Float 3.0, "3.0");
      ("fraction", Float 0.25, "0.25");
      ("non-finite float", Float Float.infinity, "null");
      ("nested empty containers", List [ Obj []; List []; Obj [ ("k", List []) ] ],
       {|[{}, [], {"k": []}]|});
      ( "separators",
        Obj [ ("ok", Bool true); ("n", Null); ("xs", List [ Int 1; Int 2 ]) ],
        {|{"ok": true, "n": null, "xs": [1, 2]}|} );
    ]
  in
  List.iter
    (fun (what, v, expected) ->
      Alcotest.(check string) what expected (to_string v))
    cases;
  Alcotest.(check string) "document layout"
    ("{\n  \"gate\": {\"ok\": true},\n  \"rows\": [\n    {\"id\": 1},\n    "
     ^ "{\"id\": 2}\n  ],\n  \"none\": []\n}\n")
    (to_document
       (Obj
          [
            ("gate", Obj [ ("ok", Bool true) ]);
            ("rows", List [ Obj [ ("id", Int 1) ]; Obj [ ("id", Int 2) ] ]);
            ("none", List []);
          ]))

let test_json_reading () =
  let open Obs.Json in
  let read s =
    match of_string s with Ok v -> v | Error e -> Alcotest.fail (s ^ ": " ^ e)
  in
  Alcotest.(check bool) "integer literal reads as Int" true (read "17" = Int 17);
  Alcotest.(check bool) "fraction reads as Float" true (read "1.5" = Float 1.5);
  Alcotest.(check bool) "exponent reads as Float" true (read "2e3" = Float 2000.);
  Alcotest.(check bool) "\\u escape outside ASCII decodes to UTF-8" true
    (read {|"\u00e9"|} = String "\xc3\xa9");
  Alcotest.(check bool) "member and number" true
    (Option.bind (member "a" (read {| {"a": 4} |})) number = Some 4.0);
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (Result.is_error (of_string bad)))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "1 2"; "\"open" ]

let json_gen =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let str = string_size ~gen:char (0 -- 12) in
  sized_size (0 -- 4)
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Obs.Json.Null;
               map (fun b -> Obs.Json.Bool b) bool;
               map (fun i -> Obs.Json.Int i) int;
               map (fun f -> Obs.Json.Float f) finite;
               map (fun f -> Obs.Json.Float (Float.round (f *. 1e6))) finite;
               map (fun s -> Obs.Json.String s) str;
             ]
         in
         if n = 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Obs.Json.List l) (list_size (0 -- 4) (self (n - 1))));
               ( 1,
                 map
                   (fun kvs -> Obs.Json.Obj kvs)
                   (list_size (0 -- 4) (pair str (self (n - 1)))) );
             ])

let json_roundtrip =
  QCheck.Test.make ~count:500 ~name:"print -> parse round trip"
    (QCheck.make ~print:Obs.Json.to_string json_gen)
    (fun v ->
      Obs.Json.of_string (Obs.Json.to_string v) = Ok v
      && Obs.Json.of_string (Obs.Json.to_document v) = Ok v)

(* --------------------------------------------------------------- *)
(* Series ring *)

let test_series_ring_wrap () =
  let s = Obs.Series.create ~capacity:4 ~interval_s:1.0 () in
  Alcotest.(check int) "empty length" 0 (Obs.Series.length s);
  for i = 1 to 6 do
    Obs.Series.push s ~ts_ns:(i * 1000) [ ("qps", float_of_int i) ]
  done;
  Alcotest.(check int) "length clamps at capacity" 4 (Obs.Series.length s);
  Alcotest.(check int) "total counts overwritten samples" 6
    (Obs.Series.total s);
  Alcotest.(check (list (float 1e-9))) "oldest-first, oldest overwritten"
    [ 3.; 4.; 5.; 6. ]
    (Obs.Series.values s "qps");
  (match Obs.Series.last s with
  | Some { Obs.Series.ts_ns; values } ->
      Alcotest.(check int) "last keeps its stamp" 6000 ts_ns;
      Alcotest.(check (option (float 1e-9))) "last value" (Some 6.)
        (List.assoc_opt "qps" values)
  | None -> Alcotest.fail "last sample missing");
  Alcotest.(check bool) "capacity must be positive" true
    (try
       ignore (Obs.Series.create ~capacity:0 ~interval_s:1.0 ());
       false
     with Invalid_argument _ -> true)

let test_series_family_filter () =
  let s =
    Obs.Series.create ~capacity:8 ~families:[ "psopt_service" ] ~interval_s:1.0
      ()
  in
  Obs.Series.push s ~ts_ns:1
    [ ("psopt_service_served_total", 10.); ("unrelated_metric", 3.) ];
  Alcotest.(check (list (float 1e-9))) "selected family kept" [ 10. ]
    (Obs.Series.values s "psopt_service_served_total");
  Alcotest.(check (list (float 1e-9))) "other families dropped at insert" []
    (Obs.Series.values s "unrelated_metric")

(* --------------------------------------------------------------- *)
(* Exposition parsing + windowed quantiles (the [psopt top] path) *)

let test_parse_exposition () =
  let text =
    "# HELP psopt_test_total help text\n\
     # TYPE psopt_test_total counter\n\
     psopt_test_total 42\n\
     psopt_test_labeled{reason=\"over load\",k=\"a\\\"b\"} 7\n\
     psopt_test_bucket{le=\"+Inf\"} 9\n\
     malformed line without a value\n\
     psopt_test_nan NaN\n"
  in
  let exposed = Obs.Metrics.parse_exposition text in
  let find name =
    List.find_opt (fun e -> e.Obs.Metrics.ex_name = name) exposed
  in
  (match find "psopt_test_total" with
  | Some e -> Alcotest.(check (float 1e-9)) "plain value" 42. e.Obs.Metrics.ex_value
  | None -> Alcotest.fail "psopt_test_total missing");
  (match find "psopt_test_labeled" with
  | Some e ->
      Alcotest.(check (option string)) "label value may contain spaces"
        (Some "over load")
        (List.assoc_opt "reason" e.Obs.Metrics.ex_labels);
      Alcotest.(check (option string)) "escaped quote in label value"
        (Some "a\"b")
        (List.assoc_opt "k" e.Obs.Metrics.ex_labels)
  | None -> Alcotest.fail "labeled sample missing");
  (match find "psopt_test_bucket" with
  | Some e ->
      Alcotest.(check bool) "+Inf parses to infinity" true
        (e.Obs.Metrics.ex_value = 9.
        && List.assoc_opt "le" e.Obs.Metrics.ex_labels = Some "+Inf")
  | None -> Alcotest.fail "bucket sample missing");
  Alcotest.(check bool) "NaN value parses" true
    (match find "psopt_test_nan" with
    | Some e -> Float.is_nan e.Obs.Metrics.ex_value
    | None -> false)

let test_render_parse_roundtrip () =
  (* everything the registry renders must come back through the parser *)
  let c = Obs.Metrics.counter ~help:"x" "psopt_test_rp_total" in
  Obs.Metrics.incr c;
  let h = Obs.Metrics.histogram ~help:"x" "psopt_test_rp_ns" in
  Obs.Metrics.observe_ns h 1234;
  let exposed = Obs.Metrics.parse_exposition (Obs.Metrics.render ()) in
  Alcotest.(check bool) "counter round-trips" true
    (List.exists
       (fun e ->
         e.Obs.Metrics.ex_name = "psopt_test_rp_total"
         && e.Obs.Metrics.ex_value >= 1.)
       exposed);
  Alcotest.(check bool) "histogram count round-trips" true
    (List.exists
       (fun e ->
         e.Obs.Metrics.ex_name = "psopt_test_rp_ns_count"
         && e.Obs.Metrics.ex_value >= 1.)
       exposed);
  Alcotest.(check bool) "histogram buckets round-trip cumulative" true
    (List.exists
       (fun e ->
         e.Obs.Metrics.ex_name = "psopt_test_rp_ns_bucket"
         && List.assoc_opt "le" e.Obs.Metrics.ex_labels = Some "+Inf"
         && e.Obs.Metrics.ex_value >= 1.)
       exposed)

let test_quantile_from_cumulative () =
  (* 10 samples <= 100, 90 more <= 1000, none beyond *)
  let buckets = [ (100., 10.); (1000., 100.); (infinity, 100.) ] in
  let p50 = Obs.Metrics.quantile_from_cumulative buckets ~q:0.5 in
  Alcotest.(check bool) "p50 lands in the second bucket" true
    (p50 > 100. && p50 <= 1000.);
  let p05 = Obs.Metrics.quantile_from_cumulative buckets ~q:0.05 in
  Alcotest.(check bool) "p05 lands in the first bucket" true (p05 <= 100.);
  Alcotest.(check (float 1e-9)) "empty window is 0" 0.
    (Obs.Metrics.quantile_from_cumulative [ (100., 0.); (infinity, 0.) ]
       ~q:0.99)

(* --------------------------------------------------------------- *)
(* Logger *)

let test_log_line_format () =
  Alcotest.(check string) "bare fields stay bare"
    "psopt[warn] stress: case quarantined seed=41 rate=0.05"
    (Obs.Log.line Obs.Log.Warn ~src:"stress" "case quarantined"
       [ ("seed", "41"); ("rate", "0.05") ]);
  Alcotest.(check string) "no fields, no trailing space"
    "psopt[info] serve: listening"
    (Obs.Log.line Obs.Log.Info ~src:"serve" "listening" []);
  (* values with spaces or sexp metacharacters get quoted+escaped *)
  let l =
    Obs.Log.line Obs.Log.Error ~src:"x" "m"
      [ ("file", "q/case 41.sexp"); ("odd", "a\"b\\c") ]
  in
  Alcotest.(check bool) "spaced value is quoted" true
    (contains l "file=\"q/case 41.sexp\"");
  Alcotest.(check bool) "quotes and backslashes escaped" true
    (contains l "odd=\"a\\\"b\\\\c\"")

let test_log_levels () =
  let seen = ref [] in
  let old = Obs.Log.level () in
  Obs.Log.set_sink (Some (fun l -> seen := l :: !seen));
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.set_sink None;
      Obs.Log.set_level old)
    (fun () ->
      Obs.Log.set_level Obs.Log.Warn;
      Alcotest.(check bool) "warn enabled at warn" true
        (Obs.Log.enabled Obs.Log.Warn);
      Alcotest.(check bool) "info disabled at warn" false
        (Obs.Log.enabled Obs.Log.Info);
      Obs.Log.info ~src:"t" "dropped";
      Obs.Log.warn ~src:"t" "kept" ~fields:[ ("k", "v") ];
      Obs.Log.err ~src:"t" "kept too";
      Alcotest.(check int) "only warn+error got through" 2
        (List.length !seen);
      Alcotest.(check bool) "fields rendered" true
        (List.exists (fun l -> contains l "k=v") !seen);
      Obs.Log.set_level Obs.Log.Quiet;
      Obs.Log.err ~src:"t" "silenced";
      Alcotest.(check int) "quiet silences errors" 2 (List.length !seen))

let test_log_level_names () =
  List.iter
    (fun (s, l) ->
      Alcotest.(check bool) ("parses " ^ s) true
        (Obs.Log.level_of_string s = Some l))
    [ ("debug", Obs.Log.Debug); ("info", Obs.Log.Info);
      ("warn", Obs.Log.Warn); ("warning", Obs.Log.Warn);
      ("error", Obs.Log.Error); ("err", Obs.Log.Error);
      ("quiet", Obs.Log.Quiet); ("none", Obs.Log.Quiet);
      ("WARN", Obs.Log.Warn) ];
  Alcotest.(check bool) "rejects junk" true
    (Obs.Log.level_of_string "loud" = None)

(* --------------------------------------------------------------- *)
(* Clock *)

let test_clock () =
  let t0 = Obs.Clock.now_ns () in
  let t1 = Obs.Clock.now_ns () in
  Alcotest.(check bool) "clock does not go backwards across two reads" true
    (t1 >= t0);
  Alcotest.(check bool) "epoch nanoseconds are plausible" true
    (t0 > 1_000_000_000 * 1_000_000_000);
  Alcotest.(check int) "ms_of_ns truncates" 1 (Obs.Clock.ms_of_ns 1_999_999);
  Alcotest.(check (float 1e-9)) "us_of_ns is exact" 1.5
    (Obs.Clock.us_of_ns 1_500)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "registration is idempotent" `Quick
            test_counter_idempotent;
          Alcotest.test_case "gauge set" `Quick test_gauge_set;
          Alcotest.test_case "histogram summary quantiles" `Quick
            test_histogram_summary;
          Alcotest.test_case "time observes normal + raising thunks" `Quick
            test_histogram_time;
          Alcotest.test_case "prometheus render shape" `Quick
            test_render_shape;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled recording is silent" `Quick
            test_trace_disabled_is_silent;
          Alcotest.test_case "record, nest, clear on restart" `Quick
            test_trace_records_and_clears;
          Alcotest.test_case "spans merge across domains" `Quick
            test_trace_multi_domain;
          Alcotest.test_case "write_file round-trips the validator" `Quick
            test_trace_write_validate;
          Alcotest.test_case "validator rejects malformed documents" `Quick
            test_trace_validator_rejects;
          Alcotest.test_case "context stamps trace/span ids into args" `Quick
            test_trace_ctx_stamps_args;
          Alcotest.test_case "contexts are per-thread on one domain" `Quick
            test_trace_ctx_per_thread;
          Alcotest.test_case "merge_files stitches two documents" `Quick
            test_trace_merge_files;
        ] );
      ( "json",
        [
          Alcotest.test_case "printer: escapes, numbers, separators" `Quick
            test_json_printing;
          Alcotest.test_case "reader: numbers, escapes, errors" `Quick
            test_json_reading;
          QCheck_alcotest.to_alcotest
            ~rand:(Random.State.make [| 20 |])
            json_roundtrip;
        ] );
      ( "series",
        [
          Alcotest.test_case "ring wraps, oldest-first, total counts" `Quick
            test_series_ring_wrap;
          Alcotest.test_case "family filter applies at insert" `Quick
            test_series_family_filter;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "parser handles labels, escapes, NaN" `Quick
            test_parse_exposition;
          Alcotest.test_case "render/parse round-trip" `Quick
            test_render_parse_roundtrip;
          Alcotest.test_case "windowed quantile from cumulative buckets" `Quick
            test_quantile_from_cumulative;
        ] );
      ( "log",
        [
          Alcotest.test_case "line format + escaping" `Quick
            test_log_line_format;
          Alcotest.test_case "level thresholds" `Quick test_log_levels;
          Alcotest.test_case "level names" `Quick test_log_level_names;
        ] );
      ("clock", [ Alcotest.test_case "time source" `Quick test_clock ]);
    ]
