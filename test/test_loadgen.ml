(* The load generator's honesty properties (docs/SERVICE.md "Load
   generation methodology"):

   - the arrival schedule is a pure function of the seed, so a rerun
     offers byte-identical load;
   - latency is anchored to the *intended* start, so a stalled server
     cannot hide its stall behind the generator's own backpressure
     (the coordinated-omission correction, demonstrated on a
     synthetic stall where the naive send-anchored numbers look
     fine and the CO-corrected ones do not);
   - quantiles are exact nearest-rank order statistics;
   - the per-class accounting invariant sent = ok + shed + busy +
     errors holds against a real daemon over the wire. *)

open Service

(* --------------------------------------------------------------- *)
(* Arrival schedule *)

let test_schedule_deterministic () =
  let gen () =
    Loadgen.Schedule.gen ~seed:42 ~arrivals:Loadgen.Poisson ~rate_hz:500.0
      ~n:200
  in
  Alcotest.(check bool) "same seed, same schedule" true (gen () = gen ());
  let other =
    Loadgen.Schedule.gen ~seed:43 ~arrivals:Loadgen.Poisson ~rate_hz:500.0
      ~n:200
  in
  Alcotest.(check bool) "different seed, different schedule" false
    (gen () = other)

let test_schedule_rate_and_shape () =
  let n = 5000 in
  let rate = 1000.0 in
  let sched =
    Loadgen.Schedule.gen ~seed:7 ~arrivals:Loadgen.Poisson ~rate_hz:rate ~n
  in
  Alcotest.(check int) "schedule length" n (Array.length sched);
  let nondecreasing = ref true in
  for i = 1 to n - 1 do
    if sched.(i) < sched.(i - 1) then nondecreasing := false
  done;
  Alcotest.(check bool) "offsets nondecreasing" true !nondecreasing;
  (* mean interarrival over many samples converges on 1/rate *)
  let span_s = float_of_int sched.(n - 1) /. 1e9 in
  let empirical_rate = float_of_int (n - 1) /. span_s in
  Alcotest.(check bool)
    (Printf.sprintf "poisson empirical rate %.0f within 10%% of %.0f"
       empirical_rate rate)
    true
    (Float.abs (empirical_rate -. rate) /. rate < 0.10);
  (* uniform arrivals are a metronome: exact fixed spacing *)
  let u =
    Loadgen.Schedule.gen ~seed:7 ~arrivals:Loadgen.Uniform ~rate_hz:1000.0
      ~n:10
  in
  let period = u.(1) - u.(0) in
  Alcotest.(check bool) "uniform spacing is constant" true
    (Array.for_all
       (fun i -> i < 1 || u.(i) - u.(i - 1) = period)
       (Array.init 10 Fun.id));
  Alcotest.(check bool) "uniform period is 1/rate" true
    (abs (period - 1_000_000) <= 1)

let test_schedule_rejects_bad_rate () =
  Alcotest.(check bool) "non-positive rate rejected" true
    (try
       ignore
         (Loadgen.Schedule.gen ~seed:1 ~arrivals:Loadgen.Uniform ~rate_hz:0.0
            ~n:1);
       false
     with Invalid_argument _ -> true)

(* --------------------------------------------------------------- *)
(* Coordinated omission *)

(* A server that stalls for 1 s: requests intended during the stall
   complete only when it ends.  The CO-corrected latency (completion -
   intended) sees the stall in its tail; the naive latency (completion
   - actual send) of a generator that politely waited sees almost
   nothing.  This is the whole point of open-loop anchoring. *)
let test_co_correction_on_synthetic_stall () =
  let rate = 1000.0 in
  let n = 2000 in
  let sched =
    Loadgen.Schedule.gen ~seed:3 ~arrivals:Loadgen.Uniform ~rate_hz:rate ~n
  in
  let stall_start_ns = 500_000_000 in
  let stall_ns = 1_000_000_000 in
  let stall_end_ns = stall_start_ns + stall_ns in
  let service_ns = 100_000 in
  (* the generator has one connection: during the stall it cannot send,
     so stalled requests go out back-to-back when the server wakes *)
  let co = Array.make n 0 in
  let naive = Array.make n 0 in
  let backlog = ref 0 in
  for i = 0 to n - 1 do
    let intended = sched.(i) in
    let send, completion =
      if intended < stall_start_ns then (intended, intended + service_ns)
      else if intended < stall_end_ns then begin
        (* sent when the server wakes, drained in order *)
        let s = stall_end_ns + (!backlog * service_ns) in
        incr backlog;
        (s, s + service_ns)
      end
      else (intended, intended + service_ns)
    in
    co.(i) <- Loadgen.Schedule.co_latency ~intended_ns:intended
        ~completion_ns:completion;
    naive.(i) <- completion - send
  done;
  let q_co = Loadgen.Quantiles.of_samples co in
  let q_naive = Loadgen.Quantiles.of_samples naive in
  (* half the measured second is inside the stall: the CO p99 must be
     a large fraction of the stall, while the naive p99 stays within a
     few service times *)
  Alcotest.(check bool)
    (Printf.sprintf "CO p99 %.0fms sees the 1000ms stall"
       (float_of_int q_co.Loadgen.Quantiles.p99_ns /. 1e6))
    true
    (q_co.Loadgen.Quantiles.p99_ns > stall_ns / 2);
  Alcotest.(check bool)
    (Printf.sprintf "naive p99 %.3fms hides it"
       (float_of_int q_naive.Loadgen.Quantiles.p99_ns /. 1e6))
    true
    (q_naive.Loadgen.Quantiles.p99_ns < 10 * service_ns);
  Alcotest.(check bool) "naive max also blind to the stall" true
    (q_naive.Loadgen.Quantiles.max_ns < stall_ns / 10)

(* --------------------------------------------------------------- *)
(* Quantiles *)

let test_quantiles_exact () =
  (* nearest rank on a known array: 1..100, pN = N *)
  let samples = Array.init 100 (fun i -> i + 1) in
  let q = Loadgen.Quantiles.of_samples samples in
  Alcotest.(check int) "n" 100 q.Loadgen.Quantiles.n;
  Alcotest.(check int) "p50" 50 q.Loadgen.Quantiles.p50_ns;
  Alcotest.(check int) "p90" 90 q.Loadgen.Quantiles.p90_ns;
  Alcotest.(check int) "p99" 99 q.Loadgen.Quantiles.p99_ns;
  Alcotest.(check int) "p99.9 rounds up to the max" 100
    q.Loadgen.Quantiles.p999_ns;
  Alcotest.(check int) "max" 100 q.Loadgen.Quantiles.max_ns;
  Alcotest.(check (float 1e-9)) "mean" 50.5 q.Loadgen.Quantiles.mean_ns;
  (* of_samples must not mutate the caller's array *)
  let unsorted = [| 5; 1; 3 |] in
  ignore (Loadgen.Quantiles.of_samples unsorted);
  Alcotest.(check bool) "caller's array untouched" true
    (unsorted = [| 5; 1; 3 |]);
  let z = Loadgen.Quantiles.of_samples [||] in
  Alcotest.(check int) "empty is zero" 0 z.Loadgen.Quantiles.n

let test_request_mix_deterministic () =
  let k1, w1 = Loadgen.request_of ~seed:9 ~high_pct:50 17 in
  let k2, w2 = Loadgen.request_of ~seed:9 ~high_pct:50 17 in
  Alcotest.(check bool) "request k is a pure function of (seed, k)" true
    (k1 = k2 && w1 = w2);
  (* the mix respects high_pct over a window *)
  let highs = ref 0 in
  for i = 0 to 999 do
    match Loadgen.request_of ~seed:9 ~high_pct:90 i with
    | Loadgen.High, _ -> incr highs
    | Loadgen.Normal, _ -> ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "~90%% High (got %d/1000)" !highs)
    true
    (!highs > 850 && !highs < 950)

(* --------------------------------------------------------------- *)
(* Accounting against a live daemon *)

let with_daemon f =
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psopt-test-lg-%d.sock" (Unix.getpid ()))
  in
  let m = Mutex.create () in
  let c = Condition.create () in
  let ready = ref false in
  let server_result = ref (Ok ()) in
  let server =
    Thread.create
      (fun () ->
        server_result :=
          Server.run
            ~on_ready:(fun () ->
              Mutex.lock m;
              ready := true;
              Condition.signal c;
              Mutex.unlock m)
            { (Server.default ~socket) with capacity = 16; quiet = true })
      ()
  in
  Mutex.lock m;
  while not !ready do
    Condition.wait c m
  done;
  Mutex.unlock m;
  Fun.protect
    ~finally:(fun () ->
      (match Client.shutdown ~socket with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("shutdown: " ^ e));
      Thread.join server;
      match !server_result with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("server exit: " ^ e))
    (fun () -> f socket)

let check_class name (c : Loadgen.class_stats) =
  Alcotest.(check int)
    (name ^ ": sent = ok + shed + busy + errors")
    c.Loadgen.sent
    (c.Loadgen.ok + c.Loadgen.shed + c.Loadgen.busy + c.Loadgen.errors);
  Alcotest.(check bool) (name ^ ": cached <= ok") true
    (c.Loadgen.cached <= c.Loadgen.ok);
  Alcotest.(check int)
    (name ^ ": latency samples = ok answers")
    c.Loadgen.ok c.Loadgen.latency.Loadgen.Quantiles.n

(* The keys [psopt loadgen --json] has always written, in order; the
   CI loadgen job greps the document for ["transport_errors": 0]. *)
let report_keys =
  [ "mode"; "clients"; "wall_s"; "throughput_rps"; "retries"; "reconnects";
    "transport_errors"; "late_sends"; "high"; "normal"; "all" ]

let class_keys =
  [ "sent"; "ok"; "cached"; "shed"; "busy"; "errors"; "p50_ms"; "p90_ms";
    "p99_ms"; "p999_ms"; "max_ms"; "mean_ms" ]

let keys = function Obs.Json.Obj kvs -> List.map fst kvs | _ -> []

let reparse v =
  match Obs.Json.of_string (Obs.Json.to_document v) with
  | Ok v' ->
      Alcotest.(check bool) "printed JSON reads back unchanged" true (v = v');
      v'
  | Error e -> Alcotest.fail ("report JSON does not parse: " ^ e)

let check_report_json (r : Loadgen.report) =
  let doc = Obs.Json.to_document (Loadgen.report_json r) in
  let j = reparse (Loadgen.report_json r) in
  Alcotest.(check (list string)) "report keys" report_keys (keys j);
  List.iter
    (fun c ->
      Alcotest.(check (list string)) (c ^ " class keys") class_keys
        (keys (Option.get (Obs.Json.member c j))))
    [ "high"; "normal"; "all" ];
  Alcotest.(check (list string)) "mode keys"
    (match r.Loadgen.mode with
    | Loadgen.Closed -> [ "kind" ]
    | Loadgen.Open _ -> [ "kind"; "rate_hz"; "arrivals" ])
    (keys (Option.get (Obs.Json.member "mode" j)));
  let needle =
    Printf.sprintf "\"transport_errors\": %d" r.Loadgen.transport_errors
  in
  Alcotest.(check bool) ("document contains " ^ needle) true
    (Option.is_some
       (List.find_opt
          (fun line -> String.trim line = needle ^ ",")
          (String.split_on_char '\n' doc)))

let test_report_json () =
  let cls =
    {
      Loadgen.sent = 3;
      ok = 2;
      cached = 1;
      shed = 1;
      busy = 0;
      errors = 0;
      latency = Loadgen.Quantiles.of_samples [| 1_000_000; 2_500_000 |];
    }
  in
  let report mode =
    {
      Loadgen.mode;
      clients = 4;
      wall_s = 1.5;
      throughput_rps = 1.0 /. 3.0;
      high = cls;
      normal = cls;
      all = cls;
      retries = 0;
      reconnects = 1;
      transport_errors = 0;
      late_sends = 2;
    }
  in
  let closed = report Loadgen.Closed in
  check_report_json closed;
  check_report_json
    (report (Loadgen.Open { rate_hz = 250.0; arrivals = Loadgen.Uniform }));
  let sat =
    reparse
      (Loadgen.saturation_json
         {
           Loadgen.steps =
             [ { Loadgen.rate_hz = 200.0; step_report = closed; passed = true } ];
           knee_hz = None;
         })
  in
  Alcotest.(check (list string)) "saturation keys" [ "steps"; "knee_hz" ]
    (keys sat);
  match Obs.Json.member "steps" sat with
  | Some (Obs.Json.List [ step ]) ->
      Alcotest.(check (list string)) "step keys"
        [ "rate_hz"; "passed"; "report" ] (keys step)
  | _ -> Alcotest.fail "saturation steps missing"

let test_closed_loop_accounting () =
  with_daemon (fun socket ->
      let cfg =
        {
          (Loadgen.default ~socket) with
          clients = 4;
          warmup_s = 0.2;
          duration_s = 0.8;
        }
      in
      match Loadgen.run cfg with
      | Error e -> Alcotest.fail e
      | Ok r ->
          check_class "high" r.Loadgen.high;
          check_class "normal" r.Loadgen.normal;
          check_class "all" r.Loadgen.all;
          Alcotest.(check int) "classes partition all: sent"
            r.Loadgen.all.Loadgen.sent
            (r.Loadgen.high.Loadgen.sent + r.Loadgen.normal.Loadgen.sent);
          Alcotest.(check int) "classes partition all: ok"
            r.Loadgen.all.Loadgen.ok
            (r.Loadgen.high.Loadgen.ok + r.Loadgen.normal.Loadgen.ok);
          Alcotest.(check int) "no transport errors against a idle daemon" 0
            r.Loadgen.transport_errors;
          Alcotest.(check bool) "work flowed" true
            (r.Loadgen.all.Loadgen.ok > 0);
          Alcotest.(check bool) "closed loop never falls behind a schedule"
            true
            (r.Loadgen.late_sends = 0);
          check_report_json r)

let test_open_loop_accounting () =
  with_daemon (fun socket ->
      let cfg =
        {
          (Loadgen.default ~socket) with
          clients = 4;
          warmup_s = 0.2;
          duration_s = 0.8;
          mode =
            Loadgen.Open { rate_hz = 200.0; arrivals = Loadgen.Poisson };
        }
      in
      match Loadgen.run cfg with
      | Error e -> Alcotest.fail e
      | Ok r ->
          check_class "all" r.Loadgen.all;
          Alcotest.(check int) "no transport errors" 0
            r.Loadgen.transport_errors;
          Alcotest.(check bool) "offered ~200/s for 0.8s, sent in range"
            true
            (r.Loadgen.all.Loadgen.sent > 80
            && r.Loadgen.all.Loadgen.sent < 320))

let test_unreachable_daemon_fails_fast () =
  let cfg = Loadgen.default ~socket:"/nonexistent/psopt-lg.sock" in
  match Loadgen.run cfg with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error against a missing socket"

let () =
  Alcotest.run "loadgen"
    [
      ( "schedule",
        [
          Alcotest.test_case "pure function of the seed" `Quick
            test_schedule_deterministic;
          Alcotest.test_case "rate and shape" `Quick
            test_schedule_rate_and_shape;
          Alcotest.test_case "rejects non-positive rates" `Quick
            test_schedule_rejects_bad_rate;
        ] );
      ( "coordinated omission",
        [
          Alcotest.test_case "intended-start anchoring sees a stall" `Quick
            test_co_correction_on_synthetic_stall;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "exact nearest-rank order statistics" `Quick
            test_quantiles_exact;
          Alcotest.test_case "request mix deterministic + proportioned" `Quick
            test_request_mix_deterministic;
        ] );
      ( "json",
        [
          Alcotest.test_case "report keys and round trip" `Quick
            test_report_json;
        ] );
      ( "accounting",
        [
          Alcotest.test_case "closed loop vs a live daemon" `Quick
            test_closed_loop_accounting;
          Alcotest.test_case "open loop vs a live daemon" `Quick
            test_open_loop_accounting;
          Alcotest.test_case "unreachable daemon fails fast" `Quick
            test_unreachable_daemon_fails_fast;
        ] );
    ]
