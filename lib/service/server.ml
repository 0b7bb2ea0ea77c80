(* The verification daemon.

   One accept loop; one handler thread per connection (requests on a
   connection are answered in order); work requests funnel through an
   admission gate — a single execution slot plus a bounded,
   priority-aware wait queue, the explicit [Busy] response as
   backpressure beyond it.  One slot is deliberate: each exploration
   already parallelizes across the domain pool ([Config.domains]), and
   two heavy searches racing for the same cores just thrash — queueing
   preserves throughput and keeps memory bounded (docs/SERVICE.md).

   Fault tolerance (docs/ROBUSTNESS.md's service fault model):

   - every read and write on a connection carries a deadline: a peer
     that dribbles a frame (slowloris) or stops reading its reply is
     evicted, counted in [psopt_service_conn_evictions_total];
   - each queued work request carries a wall-clock deadline derived
     from the wire config (capped by [request_deadline_ms]) and a
     queue TTL; requests that expire while waiting are answered with
     a typed [Shed Expired] instead of occupying the slot;
   - when the queue is full, a high-priority arrival (cheap litmus
     work) preempts the youngest normal-priority waiter, which is
     answered [Shed Overload] — load degrades by shedding the most
     expensive work first, never by silent starvation;
   - a request that is admitted close to its deadline runs with its
     exploration budget shrunk to the remaining wall clock, so an
     overrun surfaces as the honest [Inconclusive] taxonomy rather
     than a dropped connection;
   - finished handler threads are reaped continuously (not just at
     shutdown) and a watchdog thread ticks the admission gate so
     queued deadlines fire even while the slot is busy.

   Store lookups happen *before* admission: a warm hit is a disk read
   plus a frame write, so cached traffic never queues behind a heavy
   miss.

   Shutdown (SIGINT, SIGTERM, or a [Shutdown] request) is graceful:
   stop accepting, answer queued clients' in-flight work, refuse new
   work, flush the store, unlink the socket. *)

type config = {
  socket : string;
  store_dir : string option;
  capacity : int;
  quiet : bool;
  io_timeout_s : float;
  idle_timeout_s : float;
  request_deadline_ms : int option;
  queue_ttl_ms : int option;
}

let default_capacity = 16

let default ~socket =
  {
    socket;
    store_dir = None;
    capacity = default_capacity;
    quiet = false;
    io_timeout_s = 10.0;
    idle_timeout_s = 600.0;
    request_deadline_ms = None;
    queue_ttl_ms = Some 60_000;
  }

(* ------------------------------------------------------------------ *)
(* The admission gate: one execution slot, a bounded priority-aware
   wait queue with per-waiter deadlines. *)

module Admission = struct
  type priority = High | Normal

  type waiter_state = Waiting | Admitted | Preempted | Expired

  type waiter = {
    prio : priority;
    seq : int;
    deadline_ns : int option;  (* absolute, Obs.Clock.now_ns scale *)
    mutable state : waiter_state;
  }

  type t = {
    m : Mutex.t;
    turn : Condition.t;
    capacity : int;  (* waiters allowed beyond the one running *)
    mutable running : bool;
    mutable next_seq : int;
    mutable waiters : waiter list;
  }

  let create ~capacity =
    {
      m = Mutex.create ();
      turn = Condition.create ();
      capacity = max 0 capacity;
      running = false;
      next_seq = 0;
      waiters = [];
    }

  let waiting_locked t =
    List.length (List.filter (fun w -> w.state = Waiting) t.waiters)

  let inflight t =
    Mutex.lock t.m;
    let n = (if t.running then 1 else 0) + waiting_locked t in
    Mutex.unlock t.m;
    n

  let expire_locked t now =
    List.iter
      (fun w ->
        if w.state = Waiting then
          match w.deadline_ns with
          | Some d when now >= d -> w.state <- Expired
          | _ -> ())
      t.waiters

  (* The next waiter to admit: [High] before [Normal], FIFO within a
     priority. *)
  let pick_locked t =
    List.fold_left
      (fun best w ->
        if w.state <> Waiting then best
        else
          match best with
          | None -> Some w
          | Some b ->
              let better =
                match (w.prio, b.prio) with
                | High, Normal -> true
                | Normal, High -> false
                | High, High | Normal, Normal -> w.seq < b.seq
              in
              if better then Some w else best)
      None t.waiters

  (* The waiter to preempt for a high-priority arrival: the *youngest*
     normal-priority one — it has waited least, so shedding it wastes
     the least accumulated queue time. *)
  let pick_preemptable_locked t =
    List.fold_left
      (fun best w ->
        if w.state <> Waiting || w.prio <> Normal then best
        else
          match best with
          | None -> Some w
          | Some b -> if w.seq > b.seq then Some w else best)
      None t.waiters

  let remove_locked t w = t.waiters <- List.filter (fun x -> x != w) t.waiters

  (* Give the slot away: to the best waiter if there is one (handoff —
     [running] stays true), otherwise free it. *)
  let release t =
    Mutex.lock t.m;
    expire_locked t (Obs.Clock.now_ns ());
    (match pick_locked t with
    | Some w -> w.state <- Admitted
    | None -> t.running <- false);
    Condition.broadcast t.turn;
    Mutex.unlock t.m

  (* Wake waiters so they can notice their deadlines; called
     periodically by the server's watchdog thread (OCaml's [Condition]
     has no timed wait). *)
  let tick t =
    Mutex.lock t.m;
    expire_locked t (Obs.Clock.now_ns ());
    Condition.broadcast t.turn;
    Mutex.unlock t.m

  (* Park until admitted, preempted or expired.  Called with [t.m]
     held; returns with it released. *)
  let wait_turn t w =
    let rec loop () =
      match w.state with
      | Admitted -> `Run
      | Preempted -> `Shed
      | Expired -> `Expired
      | Waiting -> (
          match w.deadline_ns with
          | Some d when Obs.Clock.now_ns () >= d ->
              w.state <- Expired;
              loop ()
          | _ ->
              Condition.wait t.turn t.m;
              loop ())
    in
    let r = loop () in
    remove_locked t w;
    Mutex.unlock t.m;
    r

  (* Run [f] in the execution slot, waiting for a turn if the slot is
     taken and the queue has room.  The queue is bounded so a traffic
     burst degrades into fast explicit rejections instead of an
     unbounded convoy; a [High] arrival at a full queue preempts the
     youngest [Normal] waiter. *)
  let try_run ?(prio = Normal) ?deadline_ns t f =
    let expired_already () =
      match deadline_ns with
      | Some d -> Obs.Clock.now_ns () >= d
      | None -> false
    in
    if expired_already () then `Expired
    else begin
      Mutex.lock t.m;
      if not t.running then begin
        t.running <- true;
        Mutex.unlock t.m;
        let r = try f () with exn -> release t; raise exn in
        release t;
        `Done r
      end
      else begin
        let q = waiting_locked t in
        let room =
          if q < t.capacity then `Yes
          else
            match if prio = High then pick_preemptable_locked t else None with
            | Some victim ->
                victim.state <- Preempted;
                remove_locked t victim;
                Condition.broadcast t.turn;
                `Preempted
            | None -> `No
        in
        match room with
        | `No ->
            let n = 1 + q in
            Mutex.unlock t.m;
            `Busy n
        | `Yes | `Preempted -> (
            let w =
              { prio; seq = t.next_seq; deadline_ns; state = Waiting }
            in
            t.next_seq <- t.next_seq + 1;
            t.waiters <- w :: t.waiters;
            match wait_turn t w with
            | `Run ->
                let r = try f () with exn -> release t; raise exn in
                release t;
                `Done r
            | `Shed -> `Shed
            | `Expired -> `Expired)
      end
    end

  (* Block until the slot is free and nobody is waiting — the shutdown
     drain.  Requires the watchdog to keep ticking so expired waiters
     clear themselves out. *)
  let drain t =
    Mutex.lock t.m;
    while t.running || waiting_locked t > 0 do
      Condition.wait t.turn t.m
    done;
    Mutex.unlock t.m
end

(* Cheap corpus checks jump the queue ahead of open-ended
   explorations: a litmus program is small and bounded, an
   [Explore]/[Verify]/[Races] request ships an arbitrary program and
   may run for hours. *)
let priority_of_work = function
  | Proto.Litmus _ -> Admission.High
  | Proto.Explore _ | Proto.Verify _ | Proto.Races _ -> Admission.Normal

(* ------------------------------------------------------------------ *)
(* Executing one work item (no store, no queue): compute and render.
   Every predictable failure maps into the CLI exit taxonomy; only
   genuinely internal errors surface as [Error] (and are counted, not
   cached). *)

let run_work (w : Proto.work) (config : Explore.Config.t) :
    (string * int, string) result =
  Obs.Trace.span ~cat:"service" "work.run" @@ fun () ->
  let wf p = Lang.Wf.check_exn p in
  let render f = Obs.Trace.span ~cat:"service" "render" f in
  match
    match w with
    | Proto.Explore (d, p) ->
        let o = Explore.Enum.behaviors_exn ~config d (wf p) in
        Ok (render (fun () -> Render.explore d o))
    | Proto.Verify (pass, p) -> (
        match Sim.Verif.find pass with
        | None -> Error ("unknown optimizer: " ^ pass)
        | Some r ->
            let report = Sim.Verif.check ~explore_config:config r (wf p) in
            Ok (render (fun () -> Render.verify ~pass report)))
    | Proto.Races p ->
        let report = Race.check_all ~config (wf p) in
        Ok (render (fun () -> Render.races report))
    | Proto.Litmus name -> (
        match List.find_opt (fun t -> t.Litmus.name = name) Litmus.all with
        | None -> Error ("unknown litmus test: " ^ name)
        | Some t ->
            let r = Litmus.check ~config t in
            Ok (render (fun () -> Render.litmus t r)))
  with
  | result -> result
  | exception Lang.Wf.Ill_formed errs ->
      Ok ("ill-formed: " ^ Lang.Wf.errors_message errs ^ "\n", Render.exit_error)
  | exception Explore.Errors.Error (Explore.Errors.Budget_exhausted why) ->
      Ok ("inconclusive: " ^ why ^ "\n", Render.exit_inconclusive)
  | exception
      Explore.Errors.Error
        ((Explore.Errors.Parse_error _ | Explore.Errors.Ill_formed _) as e) ->
      Ok (Explore.Errors.to_string e ^ "\n", Render.exit_error)
  | exception exn ->
      Error (Explore.Errors.to_string (Explore.Errors.of_exn exn))

(* The store-aware serve path, shared by the daemon, the bench
   harness's cold/warm table and the unit tests: look up, else compute
   and record.  Conclusive verdicts (exit 0/1) are cached forever;
   inconclusive ones (exit 2) are cached with their budget so only a
   no-larger-budget request can reuse them; errors (exit 3) are never
   cached. *)
(* Work request service time, one sample per work request.  Recorded
   in [serve_work] — the path the batch client and direct embeddings
   like the bench take — and, by the daemon, around its store hits and
   around the misses it serves after its own lookup. *)
let request_hist =
  Obs.Metrics.histogram ~help:"Work request service time (store hit or full run)"
    "psopt_service_request_duration_ns"

(* The store key of a work request's program under [config]. *)
let work_key w prog config =
  Store.key
    ~program_digest:(Store.program_digest prog)
    ~kind:(Proto.kind_tag w)
    ~fingerprint:(Explore.Config.fingerprint config)

let lookup store ~key config =
  Obs.Trace.span ~cat:"service" "store.lookup" (fun () ->
      Store.find store ~key ~budget:(Store.budget_of_config config))

let cached_reply (e : Store.entry) =
  Proto.Reply
    {
      exit_code = e.Store.exit_code;
      output = e.Store.output;
      cached = true;
      conclusive = e.Store.conclusive;
    }

(* The daemon's counters: atomics, because one handler thread per
   connection bumps them and the [Stats] request reads them
   lock-free. *)
module Counters = struct
  type t = {
    served : int Atomic.t;
    store_hits : int Atomic.t;
    store_misses : int Atomic.t;
    busy : int Atomic.t;
    errors : int Atomic.t;
    sheds : int Atomic.t;
    expired : int Atomic.t;
    evictions : int Atomic.t;
  }

  let create () =
    {
      served = Atomic.make 0;
      store_hits = Atomic.make 0;
      store_misses = Atomic.make 0;
      busy = Atomic.make 0;
      errors = Atomic.make 0;
      sheds = Atomic.make 0;
      expired = Atomic.make 0;
      evictions = Atomic.make 0;
    }

  let pp ppf s =
    let ( ! ) = Atomic.get in
    Format.fprintf ppf
      "served=%d hits=%d misses=%d busy=%d errors=%d sheds=%d expired=%d \
       evictions=%d"
      !(s.served) !(s.store_hits) !(s.store_misses) !(s.busy) !(s.errors)
      !(s.sheds) !(s.expired) !(s.evictions)
end

(* A store miss: compute, and record what may be cached under [key]. *)
let serve_miss ?store ~(stats : Counters.t) ~key w config =
  match run_work w config with
  | Error msg ->
      Atomic.incr stats.errors;
      Proto.Refused msg
  | Ok (output, exit_code) ->
      Atomic.incr stats.store_misses;
      Atomic.incr stats.served;
      let conclusive = exit_code < Render.exit_inconclusive in
      if exit_code <> Render.exit_error then
        Option.iter
          (fun st ->
            Store.put st ~key
              {
                Store.exit_code;
                output;
                conclusive;
                budget = Store.budget_of_config config;
              })
          store;
      Proto.Reply { exit_code; output; cached = false; conclusive }

let serve_work ?store ~(stats : Counters.t) (w : Proto.work)
    (config : Explore.Config.t) : Proto.response =
  Obs.Metrics.time request_hist @@ fun () ->
  match Proto.program_of_work w with
  | Error msg ->
      Atomic.incr stats.errors;
      Proto.Refused msg
  | Ok prog -> (
      let key = work_key w prog config in
      match Option.bind store (fun st -> lookup st ~key config) with
      | Some e ->
          Atomic.incr stats.store_hits;
          Atomic.incr stats.served;
          cached_reply e
      | None -> serve_miss ?store ~stats ~key w config)

(* ------------------------------------------------------------------ *)
(* The daemon proper *)

type state = {
  cfg : config;
  store : Store.t option;
  stats : Counters.t;
  gate : Admission.t;
  stop : bool Atomic.t;
  conns : (Unix.file_descr list ref * Mutex.t);
}

(* Daemon diagnostics go through the structured logger; [--quiet]
   keeps the historical contract (nothing on stderr) regardless of the
   ambient level. *)
let log ?(level = Obs.Log.Info) st ?fields text =
  if not st.cfg.quiet then Obs.Log.msg level ~src:"serve" ?fields text

(* Service-level gauges, refreshed on each [Metrics] request from the
   live counters so the exposition and the [Stats] payload agree. *)
let g_served = Obs.Metrics.gauge ~help:"Work requests answered" "psopt_service_served_total"
let g_hits = Obs.Metrics.gauge ~help:"Requests answered from the store" "psopt_service_store_hits_total"
let g_misses = Obs.Metrics.gauge ~help:"Requests computed fresh" "psopt_service_store_misses_total"
let g_busy = Obs.Metrics.gauge ~help:"Requests rejected Busy by admission" "psopt_service_busy_total"
let g_errors = Obs.Metrics.gauge ~help:"Protocol or internal failures" "psopt_service_errors_total"
let g_entries = Obs.Metrics.gauge ~help:"Records in the result store" "psopt_service_store_entries"
let g_corrupt = Obs.Metrics.gauge ~help:"Damaged store records served as misses" "psopt_service_store_corrupt_total"
let g_inflight = Obs.Metrics.gauge ~help:"Admitted work requests (running + queued)" "psopt_service_inflight"
let g_capacity = Obs.Metrics.gauge ~help:"Admission queue bound" "psopt_service_queue_capacity"
let g_handlers = Obs.Metrics.gauge ~help:"Live connection handler threads" "psopt_service_handler_threads"

(* Fault-path counters (docs/ROBUSTNESS.md): sheds by reason,
   connection evictions by reason, deadline shrinks, queue wait. *)
let m_shed_overload =
  Obs.Metrics.counter ~help:"Queued requests preempted by higher priority"
    ~labels:[ ("reason", "overload") ] "psopt_service_shed_total"
let m_shed_expired =
  Obs.Metrics.counter ~help:"Queued requests dropped past their deadline"
    ~labels:[ ("reason", "expired") ] "psopt_service_shed_total"
let m_evict_slowloris =
  Obs.Metrics.counter ~help:"Connections evicted mid-frame by the I/O deadline"
    ~labels:[ ("reason", "slowloris") ] "psopt_service_conn_evictions_total"
let m_evict_idle =
  Obs.Metrics.counter ~help:"Connections evicted by the idle deadline"
    ~labels:[ ("reason", "idle") ] "psopt_service_conn_evictions_total"
let m_corrupt_frames =
  Obs.Metrics.counter ~help:"Connections dropped on an undecodable or checksum-failed frame"
    "psopt_service_corrupt_frames_total"
let m_deadline_shrunk =
  Obs.Metrics.counter
    ~help:"Admitted requests whose explore budget was shrunk by queue wait"
    "psopt_service_deadline_shrunk_total"
let queue_wait_hist =
  Obs.Metrics.histogram ~help:"Admission-queue wait before the slot"
    "psopt_service_queue_wait_ns"

let track_conn st fd =
  let l, m = st.conns in
  Mutex.lock m;
  l := fd :: !l;
  Mutex.unlock m

let untrack_conn st fd =
  let l, m = st.conns in
  Mutex.lock m;
  l := List.filter (fun f -> f != fd) !l;
  Mutex.unlock m

let stats_payload st =
  let ( ! ) = Atomic.get in
  {
    Proto.served = !(st.stats.served);
    store_hits = !(st.stats.store_hits);
    store_misses = !(st.stats.store_misses);
    busy_rejections = !(st.stats.busy);
    errors = !(st.stats.errors);
    store_entries = (match st.store with Some s -> Store.entries s | None -> 0);
    store_corrupt =
      (match st.store with Some s -> Store.corrupt_misses s | None -> 0);
    inflight = Admission.inflight st.gate;
    capacity = st.gate.Admission.capacity;
    sheds = !(st.stats.sheds);
    expired = !(st.stats.expired);
    evictions = !(st.stats.evictions);
  }

let metrics_payload st =
  let p = stats_payload st in
  Obs.Metrics.set g_served p.Proto.served;
  Obs.Metrics.set g_hits p.Proto.store_hits;
  Obs.Metrics.set g_misses p.Proto.store_misses;
  Obs.Metrics.set g_busy p.Proto.busy_rejections;
  Obs.Metrics.set g_errors p.Proto.errors;
  Obs.Metrics.set g_entries p.Proto.store_entries;
  Obs.Metrics.set g_corrupt p.Proto.store_corrupt;
  Obs.Metrics.set g_inflight p.Proto.inflight;
  Obs.Metrics.set g_capacity p.Proto.capacity;
  Obs.Metrics.render ()

let shed_reply st reason =
  Proto.Shed
    {
      reason;
      inflight = Admission.inflight st.gate;
      capacity = st.gate.Admission.capacity;
    }

let ms_to_ns ms = ms * 1_000_000

let handle_request st = function
  | Proto.Ping -> Proto.Pong Version.version
  | Proto.Stats -> Proto.Stats_reply (stats_payload st)
  | Proto.Metrics -> Proto.Metrics_reply (metrics_payload st)
  | Proto.Shutdown ->
      Atomic.set st.stop true;
      Proto.Shutting_down
  | Proto.Work (w, config, tctx) ->
      if Atomic.get st.stop then Proto.Refused "server is shutting down"
      else
        (* Every span below — store.lookup, queue.wait, work.run and
           its nested renders — runs under the caller's trace context,
           so the daemon side of the request carries the client's
           trace id and the merge tool can stitch both processes into
           one timeline. *)
        Obs.Trace.with_ctx tctx @@ fun () -> begin
        (* Cached answers bypass the gate entirely: a hit is a disk
           read, not a search.  This is the request's one store lookup:
           a miss goes through the gate with its key and is not looked
           up again.  The hit records its service time here, the miss
           around its run — one histogram sample per work request
           either way. *)
        let t0 = Obs.Clock.now_ns () in
        let looked_up =
          match (st.store, Proto.program_of_work w) with
          | Some store, Ok prog ->
              let key = work_key w prog config in
              Some (key, lookup store ~key config)
          | _ -> None
        in
        match looked_up with
        | Some (_, Some e) ->
            Atomic.incr st.stats.store_hits;
            Atomic.incr st.stats.served;
            Obs.Metrics.observe_ns request_hist (Obs.Clock.now_ns () - t0);
            cached_reply e
        | _ -> (
            let serve config =
              match looked_up with
              | Some (key, _) ->
                  Obs.Metrics.time request_hist (fun () ->
                      serve_miss ?store:st.store ~stats:st.stats ~key w config)
              | None -> serve_work ?store:st.store ~stats:st.stats w config
            in
            (* The effective request deadline: the client's wall-clock
               budget, capped by the server's own limit.  The queue
               deadline additionally folds in the queue TTL, so even
               deadline-less requests cannot wait forever. *)
            let request_deadline_ns =
              match
                (config.Explore.Config.deadline_ms, st.cfg.request_deadline_ms)
              with
              | None, None -> None
              | Some a, None -> Some (t0 + ms_to_ns a)
              | None, Some b -> Some (t0 + ms_to_ns b)
              | Some a, Some b -> Some (t0 + ms_to_ns (min a b))
            in
            let queue_deadline_ns =
              let ttl =
                Option.map (fun ms -> t0 + ms_to_ns ms) st.cfg.queue_ttl_ms
              in
              match (request_deadline_ns, ttl) with
              | Some a, Some b -> Some (min a b)
              | Some a, None -> Some a
              | None, other -> other
            in
            match
              Admission.try_run st.gate ~prio:(priority_of_work w)
                ?deadline_ns:queue_deadline_ns (fun () ->
                  let now = Obs.Clock.now_ns () in
                  let waited = now - t0 in
                  Obs.Metrics.observe_ns queue_wait_hist waited;
                  (* The wait is only known once the slot is granted,
                     so the span is recorded after the fact over the
                     [t0, now] interval it actually covered. *)
                  Obs.Trace.add ~cat:"service" ~name:"queue.wait" ~ts_ns:t0
                    ~dur_ns:waited ();
                  match request_deadline_ns with
                  | Some d when d - now < ms_to_ns 1 ->
                      (* admitted with (essentially) no wall clock
                         left: answer Shed rather than spinning up a
                         search that must immediately truncate *)
                      `Expired
                  | Some d ->
                      let remaining_ms = (d - now) / 1_000_000 in
                      if waited > ms_to_ns 1 then
                        Obs.Metrics.incr m_deadline_shrunk;
                      `Reply
                        (serve
                           {
                             config with
                             Explore.Config.deadline_ms = Some remaining_ms;
                           })
                  | None -> `Reply (serve config))
            with
            | `Done (`Reply r) -> r
            | `Done `Expired | `Expired ->
                Atomic.incr st.stats.expired;
                Obs.Metrics.incr m_shed_expired;
                shed_reply st Proto.Expired
            | `Shed ->
                Atomic.incr st.stats.sheds;
                Obs.Metrics.incr m_shed_overload;
                shed_reply st Proto.Overload
            | `Busy inflight ->
                Atomic.incr st.stats.busy;
                Proto.Busy { inflight; capacity = st.gate.Admission.capacity })
      end

let handle_connection st fd =
  let evict reason counter phase =
    Atomic.incr st.stats.evictions;
    Obs.Metrics.incr counter;
    log ~level:Obs.Log.Warn st "connection evicted"
      ~fields:[ ("reason", reason); ("phase", Proto.phase_to_string phase) ]
  in
  let rec loop () =
    match
      Proto.recv_request ~idle_timeout_s:st.cfg.idle_timeout_s
        ~io_timeout_s:st.cfg.io_timeout_s fd
    with
    | Error Proto.Closed -> ()  (* orderly disconnect *)
    | Error (Proto.Timed_out (Proto.Idle as phase)) ->
        evict "idle" m_evict_idle phase
    | Error (Proto.Timed_out phase) ->
        (* the peer started a frame and stalled: slowloris *)
        evict "slowloris" m_evict_slowloris phase
    | Error (Proto.Corrupt msg) ->
        (* after a bad frame the stream cannot be resynchronized *)
        Atomic.incr st.stats.errors;
        Obs.Metrics.incr m_corrupt_frames;
        log ~level:Obs.Log.Warn st "corrupt frame; dropping connection"
          ~fields:[ ("error", msg) ]
    | Error (Proto.Io msg) ->
        Atomic.incr st.stats.errors;
        log ~level:Obs.Log.Warn st "i/o error on connection"
          ~fields:[ ("error", msg) ]
    | Ok req -> (
        let resp =
          try handle_request st req
          with exn ->
            Atomic.incr st.stats.errors;
            Proto.Refused
              (Explore.Errors.to_string (Explore.Errors.of_exn exn))
        in
        match Proto.send_response ~timeout_s:st.cfg.io_timeout_s fd resp with
        | Ok () -> if not (Atomic.get st.stop) then loop ()
        | Error (Proto.Timed_out phase) ->
            (* the peer stopped draining its reply *)
            evict "slowloris" m_evict_slowloris phase
        | Error _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      untrack_conn st fd;
      try Unix.close fd with Unix.Unix_error _ -> ())
    loop

(* A live daemon already owns the socket iff connecting succeeds; a
   stale path from a crashed one is safe to unlink. *)
let claim_socket path =
  if Sys.file_exists path then begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let alive =
      try
        Unix.connect fd (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if alive then Error ("socket already served: " ^ path)
    else begin
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Ok ()
    end
  end
  else Ok ()

let run ?(on_ready = fun () -> ()) cfg =
  let ( let* ) = Result.bind in
  let* () = claim_socket cfg.socket in
  let store = Option.map Store.open_ cfg.store_dir in
  let st =
    {
      cfg;
      store;
      stats = Counters.create ();
      gate = Admission.create ~capacity:cfg.capacity;
      stop = Atomic.make false;
      conns = (ref [], Mutex.create ());
    }
  in
  (* A client vanishing mid-reply must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let request_stop _ = Atomic.set st.stop true in
  let previous_handlers =
    List.filter_map
      (fun s ->
        try
          let old = Sys.signal s (Sys.Signal_handle request_stop) in
          Some (s, old)
        with Invalid_argument _ | Sys_error _ -> None)
      [ Sys.sigint; Sys.sigterm ]
  in
  (* Handler threads carry a finished flag so the accept loop can reap
     them continuously — a long-running daemon must not accumulate one
     dead [Thread.t] per connection it ever served. *)
  let threads : (Thread.t * bool Atomic.t) list ref = ref [] in
  let threads_m = Mutex.create () in
  let reap () =
    Mutex.lock threads_m;
    let live, finished =
      List.partition (fun (_, fin) -> not (Atomic.get fin)) !threads
    in
    threads := live;
    Mutex.unlock threads_m;
    (* joining a finished thread is immediate *)
    List.iter (fun (t, _) -> Thread.join t) finished;
    Obs.Metrics.set g_handlers (List.length live)
  in
  let spawn_handler fd =
    let fin = Atomic.make false in
    let t =
      Thread.create
        (fun fd ->
          Fun.protect
            ~finally:(fun () -> Atomic.set fin true)
            (fun () -> handle_connection st fd))
        fd
    in
    Mutex.lock threads_m;
    threads := (t, fin) :: !threads;
    Mutex.unlock threads_m
  in
  (* The watchdog: wakes queued waiters so their deadlines fire even
     while the slot is busy (OCaml's [Condition] has no timed wait),
     and reaps finished handler threads between accepts.  It keeps
     running through the shutdown drain — expired waiters must still
     clear out — and stops only once the gate is empty. *)
  let watchdog_stop = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        while not (Atomic.get watchdog_stop) do
          Thread.delay 0.05;
          Admission.tick st.gate;
          reap ()
        done)
      ()
  in
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let result =
    try
      Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
      Unix.listen listen_fd 64;
      log st "listening"
        ~fields:
          [
            ("version", Version.version);
            ("socket", cfg.socket);
            ( "store",
              match cfg.store_dir with Some d -> d | None -> "off" );
            ("queue", string_of_int cfg.capacity);
            ("io_timeout_s", string_of_float cfg.io_timeout_s);
            ("idle_timeout_s", string_of_float cfg.idle_timeout_s);
          ];
      on_ready ();
      while not (Atomic.get st.stop) do
        (* a signal interrupting the poll is just an early wakeup: the
           loop condition re-reads the stop flag the handler set *)
        match
          try Unix.select [ listen_fd ] [] [] 0.2
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
        with
        | [], _, _ -> ()
        | _ :: _, _, _ ->
            let fd, _ =
              Obs.Trace.span ~cat:"service" "accept" (fun () ->
                  Unix.accept listen_fd)
            in
            track_conn st fd;
            spawn_handler fd
      done;
      log st "draining";
      (* stop accepting, let admitted work finish *)
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Admission.drain st.gate;
      Atomic.set watchdog_stop true;
      Thread.join watchdog;
      Option.iter Store.flush store;
      (* unblock handler threads still parked on reads *)
      let l, m = st.conns in
      Mutex.lock m;
      let open_fds = !l in
      Mutex.unlock m;
      List.iter
        (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
        open_fds;
      Mutex.lock threads_m;
      let remaining = !threads in
      threads := [];
      Mutex.unlock threads_m;
      List.iter (fun (t, _) -> Thread.join t) remaining;
      (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
      log st "bye"
        ~fields:
          [ ("stats", Format.asprintf "%a" Counters.pp st.stats) ];
      Ok ()
    with exn ->
      Atomic.set watchdog_stop true;
      (try Thread.join watchdog with _ -> ());
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
      Error (Printexc.to_string exn)
  in
  List.iter (fun (s, old) -> try Sys.set_signal s old with _ -> ()) previous_handlers;
  result
