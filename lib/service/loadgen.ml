(* The fleet load generator behind `psopt loadgen` and the bench
   loadgen table.

   Two generation modes, because they answer different questions:

   - Closed loop: N persistent clients, each sending its next request
     the moment the previous answer lands.  Offered load adapts to the
     server — a stalled server quietly stops being offered work, so
     closed-loop latency *cannot* see overload.  Good for "how fast
     can N well-behaved clients go", useless for tail honesty.

   - Open loop: a seeded arrival schedule fixes every request's
     intended start time in advance (Poisson or uniform interarrival
     at a configured rate); workers send on schedule regardless of how
     the server is doing.  Latency is recorded against the *intended*
     start, not the actual send — if the generator falls behind, the
     backlog time is part of what a real arrival would have waited, so
     it belongs in the number.  This is the standard defense against
     coordinated omission: a server stall must surface in the tail,
     not silently reshape the offered load.

   Latency samples are raw per-worker arrays merged and sorted at the
   end — exact order statistics, no histogram interpolation error in
   the reported p99.9. *)

type arrivals = Poisson | Uniform
type mode = Closed | Open of { rate_hz : float; arrivals : arrivals }
type klass = High | Normal

module Schedule = struct
  (* Intended start offsets (ns, strictly relative to the run start)
     for [n] arrivals at [rate_hz].  A pure function of the seed:
     reruns and saturation steps are comparable. *)
  let gen ~seed ~arrivals ~rate_hz ~n =
    if rate_hz <= 0. then invalid_arg "Schedule.gen: rate must be positive";
    let st = Random.State.make [| seed; 0x10adc0de |] in
    let period_ns = 1e9 /. rate_hz in
    let a = Array.make (max n 0) 0 in
    let t = ref 0.0 in
    for i = 0 to n - 1 do
      let gap =
        match arrivals with
        | Uniform -> period_ns
        | Poisson ->
            (* exponential interarrivals: -ln(1-u)/rate *)
            let u = Random.State.float st 1.0 in
            -.period_ns *. log (1.0 -. u)
      in
      t := !t +. gap;
      a.(i) <- int_of_float !t
    done;
    a

  (* The coordinated-omission-safe latency assignment: completion
     against the schedule, never against the (possibly late) send. *)
  let co_latency ~intended_ns ~completion_ns = completion_ns - intended_ns
end

module Quantiles = struct
  type t = {
    n : int;
    p50_ns : int;
    p90_ns : int;
    p99_ns : int;
    p999_ns : int;
    max_ns : int;
    mean_ns : float;
  }

  let zero =
    { n = 0; p50_ns = 0; p90_ns = 0; p99_ns = 0; p999_ns = 0; max_ns = 0;
      mean_ns = 0. }

  (* Exact order statistic over a sorted array: the ceil(q*n)-th
     smallest sample (1-based), the "nearest rank" definition. *)
  let exact sorted q =
    let n = Array.length sorted in
    if n = 0 then 0
    else
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      sorted.(min (n - 1) (max 0 (rank - 1)))

  let of_samples samples =
    let n = Array.length samples in
    if n = 0 then zero
    else begin
      let sorted = Array.copy samples in
      Array.sort compare sorted;
      let sum = Array.fold_left (fun acc v -> acc +. float_of_int v) 0. sorted in
      {
        n;
        p50_ns = exact sorted 0.5;
        p90_ns = exact sorted 0.9;
        p99_ns = exact sorted 0.99;
        p999_ns = exact sorted 0.999;
        max_ns = sorted.(n - 1);
        mean_ns = sum /. float_of_int n;
      }
    end
end

type class_stats = {
  sent : int;
  ok : int;
  cached : int;  (** subset of [ok] answered from the store *)
  shed : int;
  busy : int;
  errors : int;
  latency : Quantiles.t;
}

type report = {
  mode : mode;
  clients : int;
  wall_s : float;  (** measured window actually covered *)
  throughput_rps : float;  (** ok answers per measured second *)
  high : class_stats;
  normal : class_stats;
  all : class_stats;
  retries : int;
  reconnects : int;
  transport_errors : int;  (** I/O-level failures, excludes Refused *)
  late_sends : int;  (** open loop: sends that fell behind schedule *)
}

type config = {
  socket : string;
  clients : int;
  mode : mode;
  warmup_s : float;
  duration_s : float;
  high_pct : int;  (** % of requests drawn from the litmus corpus *)
  seed : int;
  io_timeout_s : float option;
  retries : int;  (** rpc_wait budget per request; 0 = single shot *)
  prewarm : bool;
      (** push the whole litmus corpus through one connection before
          the clock starts, so a store-backed daemon measures warm *)
  work_config : Explore.Config.t;
}

(* Generated explorations are kept deliberately small: the point of
   the Normal class is heterogeneous *uncached* work (every seed is a
   distinct program, so the store cannot answer it), not minutes-long
   searches that outlive the measurement window. *)
let default_work_config =
  {
    Explore.Config.quick with
    Explore.Config.max_steps = 400;
    deadline_ms = Some 2_000;
    domains = 1;
  }

let default ~socket =
  {
    socket;
    clients = 32;
    mode = Closed;
    warmup_s = 2.0;
    duration_s = 10.0;
    high_pct = 90;
    seed = 1;
    io_timeout_s = Some 30.0;
    retries = 0;
    prewarm = false;
    work_config = default_work_config;
  }

let litmus_names =
  lazy (Array.of_list (List.map (fun t -> t.Litmus.name) Litmus.all))

(* The request mix is a pure function of (seed, index): every worker
   and every rerun agrees on what request k is. *)
let request_of ~seed ~high_pct i =
  let st = Random.State.make [| seed; i; 0x5eed |] in
  if Random.State.int st 100 < high_pct then
    let names = Lazy.force litmus_names in
    (High, Proto.Litmus names.(Random.State.int st (Array.length names)))
  else
    ( Normal,
      Proto.Explore
        (Explore.Enum.Interleaving, Explore.Stress.generate ~seed:(seed + i)) )

(* ---- per-worker accounting ---- *)

type acc = {
  mutable a_sent : int;
  mutable a_ok : int;
  mutable a_cached : int;
  mutable a_shed : int;
  mutable a_busy : int;
  mutable a_errors : int;
  mutable a_transport : int;
  mutable a_late : int;
  mutable lat : int array;
  mutable nlat : int;
}

let fresh_acc () =
  { a_sent = 0; a_ok = 0; a_cached = 0; a_shed = 0; a_busy = 0; a_errors = 0;
    a_transport = 0; a_late = 0; lat = Array.make 256 0; nlat = 0 }

let push_lat a v =
  if a.nlat = Array.length a.lat then begin
    let bigger = Array.make (2 * a.nlat) 0 in
    Array.blit a.lat 0 bigger 0 a.nlat;
    a.lat <- bigger
  end;
  a.lat.(a.nlat) <- v;
  a.nlat <- a.nlat + 1

(* Outcome classification shared by both loops.  [lat_ns] is only
   recorded for answered requests ([Reply]): sheds and busies are
   near-instant rejections whose latency would only dilute the story
   the tail tells about served work. *)
let account acc ~in_window ~lat_ns outcome =
  if in_window then begin
    acc.a_sent <- acc.a_sent + 1;
    match outcome with
    | `Ok cached ->
        acc.a_ok <- acc.a_ok + 1;
        if cached then acc.a_cached <- acc.a_cached + 1;
        push_lat acc lat_ns
    | `Shed -> acc.a_shed <- acc.a_shed + 1
    | `Busy -> acc.a_busy <- acc.a_busy + 1
    | `Refused -> acc.a_errors <- acc.a_errors + 1
    | `Transport ->
        acc.a_errors <- acc.a_errors + 1;
        acc.a_transport <- acc.a_transport + 1
  end

let classify = function
  | Ok (Proto.Reply r) -> `Ok r.Proto.cached
  | Ok (Proto.Shed _) -> `Shed
  | Ok (Proto.Busy _) -> `Busy
  | Ok (Proto.Refused _) -> `Refused
  | Ok _ -> `Transport (* protocol confusion: count with the wire faults *)
  | Error _ -> `Transport

(* A worker's connection: retried with a short linear backoff because
   a thousand simultaneous connects can transiently overrun the
   daemon's listen backlog — that is load-generator startup noise, not
   a server fault. *)
let connect_retrying ~cfg ~stop () =
  let rec go k =
    if Atomic.get stop then Error "stopped"
    else
      match
        Client.connect ~seed:(cfg.seed + k) ?io_timeout_s:cfg.io_timeout_s
          ~socket:cfg.socket ()
      with
      | Ok c -> Ok c
      | Error e -> if k >= 50 then Error e else (Thread.delay 0.02; go (k + 1))
  in
  go 0

let merge_accs accs =
  let merge_class sel =
    let accs = List.map sel accs in
    let sum f = List.fold_left (fun t a -> t + f a) 0 accs in
    let nlat = sum (fun a -> a.nlat) in
    let lat = Array.make nlat 0 in
    let off = ref 0 in
    List.iter
      (fun a ->
        Array.blit a.lat 0 lat !off a.nlat;
        off := !off + a.nlat)
      accs;
    {
      sent = sum (fun a -> a.a_sent);
      ok = sum (fun a -> a.a_ok);
      cached = sum (fun a -> a.a_cached);
      shed = sum (fun a -> a.a_shed);
      busy = sum (fun a -> a.a_busy);
      errors = sum (fun a -> a.a_errors);
      latency = Quantiles.of_samples lat;
    }
  in
  ( merge_class fst,
    merge_class snd,
    merge_class (fun (h, n) ->
      let c = fresh_acc () in
      c.a_sent <- h.a_sent + n.a_sent;
      c.a_ok <- h.a_ok + n.a_ok;
      c.a_cached <- h.a_cached + n.a_cached;
      c.a_shed <- h.a_shed + n.a_shed;
      c.a_busy <- h.a_busy + n.a_busy;
      c.a_errors <- h.a_errors + n.a_errors;
      c.a_transport <- h.a_transport + n.a_transport;
      c.a_late <- h.a_late + n.a_late;
      c.lat <- Array.append (Array.sub h.lat 0 h.nlat) (Array.sub n.lat 0 n.nlat);
      c.nlat <- h.nlat + n.nlat;
      c) )

let acc_of ~klass (h, n) = match klass with High -> h | Normal -> n

(* Warm the store through one resilient connection before any clock
   starts: every litmus program computed once, so the measured window
   sees a warm store (the bench's "warm-store p99" gate). *)
let do_prewarm cfg =
  match
    Client.with_client ?io_timeout_s:cfg.io_timeout_s ~socket:cfg.socket
      (fun cl ->
        Array.iter
          (fun name ->
            ignore
              (Client.rpc_wait ~retries:1000 cl
                 (Proto.Work (Proto.Litmus name, cfg.work_config, None))))
          (Lazy.force litmus_names))
  with
  | Ok () -> Ok ()
  | Error e -> Error ("prewarm: " ^ e)

let run cfg =
  if cfg.clients <= 0 then Error "loadgen: need at least one client"
  else if cfg.duration_s <= 0. then Error "loadgen: need a positive duration"
  else
    match Client.ping ~socket:cfg.socket with
    | Error e -> Error ("loadgen: daemon not reachable: " ^ e)
    | Ok _version -> (
        let prewarmed = if cfg.prewarm then do_prewarm cfg else Ok () in
        match prewarmed with
        | Error _ as e -> e
        | Ok () ->
            let stop = Atomic.make false in
            let t0 = Obs.Clock.now_ns () in
            let warm_end = t0 + int_of_float (cfg.warmup_s *. 1e9) in
            let meas_end = warm_end + int_of_float (cfg.duration_s *. 1e9) in
            let counter = Atomic.make 0 in
            let schedule =
              match cfg.mode with
              | Closed -> [||]
              | Open { rate_hz; arrivals } ->
                  let n =
                    int_of_float
                      (Float.ceil (rate_hz *. (cfg.warmup_s +. cfg.duration_s)))
                  in
                  Schedule.gen ~seed:cfg.seed ~arrivals ~rate_hz ~n
            in
            let retries_total = Atomic.make 0 in
            let reconnects_total = Atomic.make 0 in
            let results =
              Array.init cfg.clients (fun _ -> (fresh_acc (), fresh_acc ()))
            in
            let worker wid =
              let h = fresh_acc () and n = fresh_acc () in
              (match connect_retrying ~cfg ~stop () with
              | Error _ ->
                  (* never connected: there is nothing to account — the
                     run-level transport gate still catches a dead
                     daemon because no requests implies zero ok *)
                  ()
              | Ok cl ->
                  Fun.protect
                    ~finally:(fun () ->
                      let s = Client.stats cl in
                      ignore
                        (Atomic.fetch_and_add retries_total
                           s.Client.retries);
                      ignore
                        (Atomic.fetch_and_add reconnects_total
                           s.Client.reconnects);
                      Client.close cl)
                    (fun () ->
                      match cfg.mode with
                      | Closed ->
                          let rec loop () =
                            let now = Obs.Clock.now_ns () in
                            if now >= meas_end || Atomic.get stop then ()
                            else begin
                              let i = Atomic.fetch_and_add counter 1 in
                              let klass, work =
                                request_of ~seed:cfg.seed
                                  ~high_pct:cfg.high_pct i
                              in
                              let req =
                                Proto.Work (work, cfg.work_config, None)
                              in
                              let t_send = Obs.Clock.now_ns () in
                              let r =
                                if cfg.retries = 0 then Client.rpc cl req
                                else
                                  Client.rpc_wait ~retries:cfg.retries cl req
                              in
                              let t_done = Obs.Clock.now_ns () in
                              let in_window =
                                t_send >= warm_end && t_send < meas_end
                              in
                              account (acc_of ~klass (h, n)) ~in_window
                                ~lat_ns:(t_done - t_send) (classify r);
                              loop ()
                            end
                          in
                          loop ()
                      | Open _ ->
                          let nsched = Array.length schedule in
                          let rec loop () =
                            if Atomic.get stop then ()
                            else begin
                              let k = Atomic.fetch_and_add counter 1 in
                              if k >= nsched then ()
                              else begin
                                let intended = t0 + schedule.(k) in
                                if intended >= meas_end then ()
                                else begin
                                  let now = Obs.Clock.now_ns () in
                                  let in_window =
                                    intended >= warm_end && intended < meas_end
                                  in
                                  if now < intended then
                                    Thread.delay
                                      (float_of_int (intended - now) /. 1e9)
                                  else if in_window then begin
                                    let a = acc_of ~klass:High (h, n) in
                                    (* which class is irrelevant for the
                                       run-level late counter; park it on
                                       the High acc of this worker *)
                                    a.a_late <- a.a_late + 1
                                  end;
                                  let klass, work =
                                    request_of ~seed:cfg.seed
                                      ~high_pct:cfg.high_pct k
                                  in
                                  let req =
                                    Proto.Work (work, cfg.work_config, None)
                                  in
                                  let r =
                                    if cfg.retries = 0 then Client.rpc cl req
                                    else
                                      Client.rpc_wait ~retries:cfg.retries cl
                                        req
                                  in
                                  let t_done = Obs.Clock.now_ns () in
                                  account (acc_of ~klass (h, n)) ~in_window
                                    ~lat_ns:
                                      (Schedule.co_latency ~intended_ns:intended
                                         ~completion_ns:t_done)
                                    (classify r);
                                  loop ()
                                end
                              end
                            end
                          in
                          loop ()));
              results.(wid) <- (h, n)
            in
            let threads =
              List.init cfg.clients (fun wid ->
                  Thread.create (fun () -> worker wid) ())
            in
            List.iter Thread.join threads;
            let accs = Array.to_list results in
            let t_end = Obs.Clock.now_ns () in
            let high, normal, all = merge_accs accs in
            let wall_s =
              float_of_int (min t_end meas_end - warm_end) /. 1e9
            in
            let wall_s = Float.max wall_s 1e-9 in
            let transport_errors =
              List.fold_left
                (fun t (h, n) -> t + h.a_transport + n.a_transport)
                0 accs
            in
            let late_sends =
              List.fold_left (fun t (h, n) -> t + h.a_late + n.a_late) 0 accs
            in
            Ok
              {
                mode = cfg.mode;
                clients = cfg.clients;
                wall_s;
                throughput_rps = float_of_int all.ok /. wall_s;
                high;
                normal;
                all;
                retries = Atomic.get retries_total;
                reconnects = Atomic.get reconnects_total;
                transport_errors;
                late_sends;
              })

(* ---- saturation search ---- *)

type slo = { slo_p99_ms : float option; slo_shed_pct : float option }

type sat_step = { rate_hz : float; step_report : report; passed : bool }

type saturation = { steps : sat_step list; knee_hz : float option }

let shed_pct r =
  if r.all.sent = 0 then 0.
  else 100. *. float_of_int (r.all.shed + r.all.busy) /. float_of_int r.all.sent

let slo_passes slo r =
  let p99_ok =
    match slo.slo_p99_ms with
    | None -> true
    | Some ms -> float_of_int r.all.latency.Quantiles.p99_ns /. 1e6 <= ms
  in
  let shed_ok =
    match slo.slo_shed_pct with
    | None -> true
    | Some pct -> shed_pct r <= pct
  in
  p99_ok && shed_ok

(* Step the offered rate upward until the SLO breaks; the knee is the
   last rate that passed.  Search stops at the first failing step —
   beyond the knee the server is by definition not meeting its SLO, so
   further (slower, queue-saturating) steps add wall clock without
   adding information. *)
let saturation cfg ~slo ~rates =
  let arrivals =
    match cfg.mode with Open { arrivals; _ } -> arrivals | Closed -> Poisson
  in
  let rec go acc = function
    | [] -> Ok { steps = List.rev acc; knee_hz = None }
    | rate_hz :: rest -> (
        match run { cfg with mode = Open { rate_hz; arrivals } } with
        | Error _ as e -> e
        | Ok r ->
            let passed = slo_passes slo r in
            let step = { rate_hz; step_report = r; passed } in
            if passed then go (step :: acc) rest
            else Ok { steps = List.rev (step :: acc); knee_hz = None })
  in
  match go [] rates with
  | Error _ as e -> e
  | Ok { steps; _ } ->
      let knee_hz =
        List.fold_left
          (fun knee s -> if s.passed then Some s.rate_hz else knee)
          None steps
      in
      Ok { steps; knee_hz }

(* ---- JSON reports ([psopt loadgen --json]) ---- *)

let report_json (r : report) =
  let open Obs.Json in
  let ms ns = Float (float_of_int ns /. 1e6) in
  let class_json (c : class_stats) =
    let q = c.latency in
    Obj
      [ ("sent", Int c.sent); ("ok", Int c.ok); ("cached", Int c.cached);
        ("shed", Int c.shed); ("busy", Int c.busy); ("errors", Int c.errors);
        ("p50_ms", ms q.Quantiles.p50_ns); ("p90_ms", ms q.Quantiles.p90_ns);
        ("p99_ms", ms q.Quantiles.p99_ns); ("p999_ms", ms q.Quantiles.p999_ns);
        ("max_ms", ms q.Quantiles.max_ns); ("mean_ms", Float (q.Quantiles.mean_ns /. 1e6)) ]
  in
  let mode =
    match r.mode with
    | Closed -> Obj [ ("kind", String "closed") ]
    | Open { rate_hz; arrivals } ->
        let arrivals = match arrivals with Poisson -> "poisson" | Uniform -> "uniform" in
        Obj [ ("kind", String "open"); ("rate_hz", Float rate_hz); ("arrivals", String arrivals) ]
  in
  Obj
    [ ("mode", mode); ("clients", Int r.clients); ("wall_s", Float r.wall_s);
      ("throughput_rps", Float r.throughput_rps); ("retries", Int r.retries);
      ("reconnects", Int r.reconnects); ("transport_errors", Int r.transport_errors);
      ("late_sends", Int r.late_sends); ("high", class_json r.high);
      ("normal", class_json r.normal); ("all", class_json r.all) ]

let saturation_json s =
  let open Obs.Json in
  let step st =
    Obj
      [ ("rate_hz", Float st.rate_hz); ("passed", Bool st.passed);
        ("report", report_json st.step_report) ]
  in
  Obj
    [ ("steps", List (List.map step s.steps));
      ("knee_hz", match s.knee_hz with Some k -> Float k | None -> Null) ]
