(* The chaos suite (docs/ROBUSTNESS.md): a real daemon behind the
   deterministic fault proxy, with torn frames, injected delays, byte
   corruption and mid-request disconnects.  The property under test:

     every client call converges to a correct reply or a typed error —
     never a hang, and never a silently wrong verdict (the frame
     checksum turns corruption into a reconnect-and-retry, and the
     content-addressed store makes the retry byte-identical).

   A hard watchdog turns any hang into a loud exit 99 instead of a
   stuck CI job. *)

module Proto = Service.Proto
module Config = Explore.Config

let () =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay 240.0;
         prerr_endline "test_chaos: watchdog timeout — suite hung";
         exit 99)
       ())

(* --------------------------------------------------------------- *)
(* Resilience primitives *)

let test_backoff () =
  let module B = Service.Resilience.Backoff in
  let b = B.create ~seed:42 () in
  let ds = List.init 20 (fun _ -> B.next b) in
  List.iter
    (fun d ->
      Alcotest.(check bool) "backoff within [0, cap]" true
        (d >= 0.0 && d <= 2.0))
    ds;
  Alcotest.(check int) "backoff counts its sleeps" 20 (B.count b);
  Alcotest.(check bool) "backoff totals its sleeps" true
    (abs_float (B.total_s b -. List.fold_left ( +. ) 0.0 ds) < 1e-9);
  (* same seed, same schedule: chaos runs replay *)
  let b' = B.create ~seed:42 () in
  Alcotest.(check bool) "seeded backoff is deterministic" true
    (List.for_all (fun d -> B.next b' = d) ds);
  (* reset returns to the base band but keeps the accounting *)
  B.reset b;
  let after = B.next b in
  Alcotest.(check bool) "reset shrinks the next sleep to the base band" true
    (after <= 0.06);
  Alcotest.(check int) "reset keeps the count" 21 (B.count b)

let test_breaker () =
  let module K = Service.Resilience.Breaker in
  let now = ref 0.0 in
  let k = K.create ~failure_threshold:3 ~cooldown_s:1.0 ~now:(fun () -> !now) () in
  Alcotest.(check bool) "fresh breaker allows" true (K.allow k);
  K.failure k;
  K.failure k;
  Alcotest.(check bool) "below threshold still allows" true (K.allow k);
  K.failure k;
  Alcotest.(check bool) "threshold trips it open" false (K.allow k);
  Alcotest.(check int) "one trip counted" 1 (K.trips k);
  now := 0.5;
  Alcotest.(check bool) "still open inside the cooldown" false (K.allow k);
  now := 1.1;
  Alcotest.(check bool) "past cooldown admits one probe" true (K.allow k);
  K.failure k;
  Alcotest.(check bool) "failed probe re-opens" false (K.allow k);
  Alcotest.(check int) "re-open is a second trip" 2 (K.trips k);
  now := 2.5;
  Alcotest.(check bool) "past cooldown again" true (K.allow k);
  K.success k;
  Alcotest.(check bool) "successful probe closes" true (K.allow k);
  K.failure k;
  Alcotest.(check bool) "closed tolerates a failure again" true (K.allow k)

(* --------------------------------------------------------------- *)
(* Daemon + proxy plumbing *)

let fresh_dir () = Scratch.dir "psopt-chaos"

let fresh_socket =
  let counter = ref 0 in
  fun tag ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "psopt-chaos-%s-%d-%d.sock" tag (Unix.getpid ()) !counter)

(* Start a daemon, return its socket and a join-and-check closure. *)
let start_daemon cfg =
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
  fun () ->
    Thread.join server;
    match !server_result with
    | Ok () -> ()
    | Error e -> Alcotest.fail ("server exit: " ^ e)

let daemon_config ~socket ~store_dir =
  {
    (Service.Server.default ~socket) with
    store_dir;
    quiet = true;
    io_timeout_s = 2.0;
    idle_timeout_s = 10.0;
  }

(* The workload: a slice of the litmus corpus, small enough to keep
   the suite quick, varied enough that replies differ per item. *)
let workload =
  List.filteri (fun i _ -> i < 4) Litmus.all
  |> List.map (fun (t : Litmus.t) -> t.Litmus.name)

let work_req name = Proto.Work (Proto.Litmus name, Config.default, None)

(* Fault-free reference replies (and store warm-up) over a direct
   connection. *)
let reference ~socket =
  List.map
    (fun name ->
      match
        Service.Client.with_client ~socket (fun cl ->
            Service.Client.rpc_wait cl (work_req name))
      with
      | Ok (Ok (Proto.Reply r)) -> (name, (r.Proto.exit_code, r.Proto.output))
      | Ok (Ok _) -> Alcotest.fail (name ^ ": expected a Reply")
      | Ok (Error e) | Error e -> Alcotest.fail (name ^ ": " ^ e))
    workload

(* --------------------------------------------------------------- *)
(* The proxy as a transparent relay: no faults, byte-identical. *)

let test_calm_relay () =
  let upstream = fresh_socket "calm-up" in
  let join = start_daemon (daemon_config ~socket:upstream ~store_dir:(Some (fresh_dir ()))) in
  let listen = fresh_socket "calm-proxy" in
  let proxy =
    match Service.Chaos.start ~plan:Service.Chaos.calm ~listen ~upstream with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () ->
      Service.Chaos.stop proxy;
      (match Service.Client.shutdown ~socket:upstream with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("shutdown: " ^ e));
      join ())
    (fun () ->
      let direct = reference ~socket:upstream in
      List.iter
        (fun (name, (code, output)) ->
          match
            Service.Client.with_client ~socket:listen (fun cl ->
                Service.Client.rpc_wait cl (work_req name))
          with
          | Ok (Ok (Proto.Reply r)) ->
              Alcotest.(check int) (name ^ ": exit code through relay") code
                r.Proto.exit_code;
              Alcotest.(check string) (name ^ ": bytes through relay") output
                r.Proto.output
          | Ok (Ok _) -> Alcotest.fail (name ^ ": expected a Reply")
          | Ok (Error e) | Error e -> Alcotest.fail (name ^ ": " ^ e))
        direct;
      let c = Service.Chaos.counts proxy in
      Alcotest.(check int) "calm plan injected nothing" 0
        (c.Service.Chaos.delays + c.Service.Chaos.tears
        + c.Service.Chaos.corruptions + c.Service.Chaos.disconnects))

(* --------------------------------------------------------------- *)
(* The storm: every call through a rough proxy converges to the
   reference bytes. *)

let storm_round ~listen ~plan_seed ~rounds expected =
  ignore plan_seed;
  let retries = ref 0 in
  for _round = 1 to rounds do
    List.iter
      (fun (name, (code, output)) ->
        match
          Service.Client.with_client ~io_timeout_s:5.0 ~seed:7 ~socket:listen
            (fun cl ->
              let r =
                Service.Client.rpc_wait ~retries:300 ~deadline_s:60.0 cl
                  (work_req name)
              in
              let s = Service.Client.stats cl in
              retries := !retries + s.Service.Client.retries;
              r)
        with
        | Ok (Ok (Proto.Reply r)) ->
            (* the verdict is never silently wrong *)
            Alcotest.(check int) (name ^ ": exit code under chaos") code
              r.Proto.exit_code;
            Alcotest.(check string) (name ^ ": bytes under chaos") output
              r.Proto.output
        | Ok (Ok (Proto.Busy _ | Proto.Shed _)) ->
            (* legal terminal outcomes when the retry budget drains —
               typed backpressure, not corruption *)
            ()
        | Ok (Ok _) -> Alcotest.fail (name ^ ": unexpected response kind")
        | Ok (Error e) | Error e ->
            (* a typed transport error after exhausting retries is a
               legal terminal outcome; a hang is not (watchdog) *)
            Alcotest.(check bool) (name ^ ": error is non-empty") true
              (String.length e > 0))
      expected
  done;
  !retries

let test_storm () =
  let upstream = fresh_socket "storm-up" in
  let store_dir = fresh_dir () in
  let join =
    start_daemon (daemon_config ~socket:upstream ~store_dir:(Some store_dir))
  in
  let listen = fresh_socket "storm-proxy" in
  let plan = { Service.Chaos.rough with Service.Chaos.seed = 11 } in
  let proxy =
    match Service.Chaos.start ~plan ~listen ~upstream with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () ->
      Service.Chaos.stop proxy;
      (match Service.Client.shutdown ~socket:upstream with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("shutdown: " ^ e));
      join ())
    (fun () ->
      (* warm the store fault-free so chaos replies have a reference *)
      let expected = reference ~socket:upstream in
      let retries =
        storm_round ~listen ~plan_seed:plan.Service.Chaos.seed ~rounds:3
          expected
      in
      let c = Service.Chaos.counts proxy in
      Alcotest.(check bool) "the storm actually injected faults" true
        (c.Service.Chaos.tears + c.Service.Chaos.corruptions
         + c.Service.Chaos.disconnects
        > 0);
      (* client-side resilience did real work and is observable *)
      Alcotest.(check bool) "faults forced retries" true (retries > 0);
      (* after the storm, fault-free warm replies are byte-identical
         to the pre-storm reference: chaos corrupted nothing durable *)
      List.iter
        (fun (name, (code, output)) ->
          match
            Service.Client.with_client ~socket:upstream (fun cl ->
                Service.Client.rpc_wait cl (work_req name))
          with
          | Ok (Ok (Proto.Reply r)) ->
              Alcotest.(check bool) (name ^ ": post-storm reply cached") true
                r.Proto.cached;
              Alcotest.(check int) (name ^ ": post-storm exit code") code
                r.Proto.exit_code;
              Alcotest.(check string) (name ^ ": post-storm bytes") output
                r.Proto.output
          | Ok (Ok _) -> Alcotest.fail (name ^ ": expected a Reply")
          | Ok (Error e) | Error e -> Alcotest.fail (name ^ ": " ^ e))
        expected)

(* --------------------------------------------------------------- *)
(* Kill and restart: the daemon dies mid-conversation and comes back;
   a patient client converges through the same proxy socket. *)

let test_kill_and_restart () =
  let upstream = fresh_socket "restart-up" in
  let store_dir = fresh_dir () in
  let cfg = daemon_config ~socket:upstream ~store_dir:(Some store_dir) in
  let join1 = start_daemon cfg in
  let listen = fresh_socket "restart-proxy" in
  let proxy =
    match Service.Chaos.start ~plan:Service.Chaos.calm ~listen ~upstream with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  Fun.protect
    ~finally:(fun () -> Service.Chaos.stop proxy)
    (fun () ->
      (* warm the store, then take the daemon down *)
      let expected = reference ~socket:upstream in
      (match Service.Client.shutdown ~socket:upstream with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("first shutdown: " ^ e));
      join1 ();
      (* a client starts asking while the daemon is dead *)
      let name, (code, output) = List.hd expected in
      let answer = ref None in
      let asker =
        Thread.create
          (fun () ->
            answer :=
              Some
                (Service.Client.with_client ~io_timeout_s:5.0 ~socket:listen
                   (fun cl ->
                     Service.Client.rpc_wait ~retries:300 ~deadline_s:60.0 cl
                       (work_req name))))
          ()
      in
      (* ... and the daemon comes back on the same socket and store *)
      Thread.delay 0.3;
      let join2 = start_daemon cfg in
      Thread.join asker;
      (match !answer with
      | Some (Ok (Ok (Proto.Reply r))) ->
          Alcotest.(check bool) (name ^ ": answered from the store") true
            r.Proto.cached;
          Alcotest.(check int) (name ^ ": exit code across restart") code
            r.Proto.exit_code;
          Alcotest.(check string) (name ^ ": bytes across restart") output
            r.Proto.output
      | Some (Ok (Ok _)) -> Alcotest.fail "expected a Reply across restart"
      | Some (Ok (Error e)) | Some (Error e) ->
          Alcotest.fail ("client never converged: " ^ e)
      | None -> Alcotest.fail "asker thread died");
      (match Service.Client.shutdown ~socket:upstream with
      | Ok () -> ()
      | Error e -> Alcotest.fail ("second shutdown: " ^ e));
      join2 ())

(* --------------------------------------------------------------- *)

let () =
  Alcotest.run "chaos"
    [
      ( "resilience",
        [
          Alcotest.test_case "decorrelated-jitter backoff" `Quick test_backoff;
          Alcotest.test_case "circuit breaker state machine" `Quick
            test_breaker;
        ] );
      ( "proxy",
        [
          Alcotest.test_case "calm plan is a transparent relay" `Quick
            test_calm_relay;
          Alcotest.test_case
            "storm converges: correct replies or typed errors" `Quick
            test_storm;
          Alcotest.test_case "daemon kill-and-restart converges" `Quick
            test_kill_and_restart;
        ] );
    ]
