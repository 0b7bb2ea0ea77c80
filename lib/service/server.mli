(** The verification daemon: accepts concurrent clients on a
    Unix-domain socket, answers {!Proto} requests, serves results out
    of the content-addressed {!Store}, and schedules fresh work
    through an admission gate — one execution slot (each search
    already parallelizes across the domain pool) plus a bounded,
    priority-aware wait queue with per-waiter deadlines.

    Fault tolerance (docs/ROBUSTNESS.md's service fault model): every
    connection read/write carries a deadline (slowloris and idle peers
    are evicted); queued work carries a wall-clock deadline and a
    queue TTL and is answered with a typed {!Proto.Shed} when either
    passes; a request admitted close to its deadline runs with its
    exploration budget shrunk to the remaining wall clock, so an
    overrun surfaces as the honest inconclusive taxonomy; finished
    handler threads are reaped continuously.

    Store lookups happen {e before} admission, so cached traffic never
    queues behind a heavy miss.  Shutdown — SIGINT, SIGTERM or a
    {!Proto.Shutdown} request — is graceful: stop accepting, drain
    admitted work, flush the store, unlink the socket
    (docs/SERVICE.md). *)

type config = {
  socket : string;  (** Unix-domain socket path *)
  store_dir : string option;  (** result store root; [None] disables *)
  capacity : int;  (** wait-queue bound beyond the execution slot *)
  quiet : bool;
  io_timeout_s : float;
      (** mid-frame read/write deadline per connection: a peer that
          stalls inside a frame (slowloris) or stops draining its
          reply is evicted after this many seconds *)
  idle_timeout_s : float;
      (** between-frames deadline: how long a keep-alive connection
          may sit idle before it is evicted *)
  request_deadline_ms : int option;
      (** server-side cap on each work request's wall clock; the
          effective deadline is the minimum of this and the client's
          [Config.deadline_ms] *)
  queue_ttl_ms : int option;
      (** how long a request may wait in the admission queue before it
          is answered [Shed Expired]; bounds waiting only — it never
          shrinks the execution budget *)
}

val default_capacity : int

val default : socket:string -> config
(** A production-shaped config: 10 s I/O deadline, 10 min idle
    deadline, 60 s queue TTL, no server-side deadline cap, store
    off. *)

(** The admission gate, exposed for direct testing: one execution
    slot, a bounded priority-aware wait queue with per-waiter
    deadlines, [`Busy] beyond it. *)
module Admission : sig
  (** [High] is admitted ahead of every [Normal] waiter and may
      preempt the youngest one out of a full queue; FIFO within a
      priority. *)
  type priority = High | Normal

  type waiter

  type t = {
    m : Mutex.t;
    turn : Condition.t;
    capacity : int;
    mutable running : bool;
    mutable next_seq : int;
    mutable waiters : waiter list;
  }

  val create : capacity:int -> t

  val inflight : t -> int
  (** Running (0 or 1) + waiting. *)

  val try_run :
    ?prio:priority ->
    ?deadline_ns:int ->
    t ->
    (unit -> 'a) ->
    [ `Done of 'a | `Busy of int | `Shed | `Expired ]
  (** Run in the slot, waiting for a turn if the queue has room.
      [`Busy n] — the queue was full (and, for a [High] arrival, held
      no preemptable [Normal] waiter).  [`Shed] — this waiter was
      preempted out of the full queue by a [High] arrival.
      [`Expired] — [deadline_ns] (absolute, {!Obs.Clock.now_ns} scale)
      passed before the slot was granted.  The deadline bounds
      {e waiting} only; once running, the thunk owns the slot until it
      returns. *)

  val tick : t -> unit
  (** Wake all waiters so expired deadlines fire; the daemon's
      watchdog thread calls this periodically (OCaml's [Condition] has
      no timed wait). *)

  val drain : t -> unit
  (** Block until the slot is free and the queue empty.  Requires
      {!tick}s to keep arriving so deadline-expired waiters clear
      themselves out. *)
end

val run_work :
  Proto.work -> Explore.Config.t -> (string * int, string) result
(** Execute one work item with no store and no queue: compute, render
    ({!Render}), and map every predictable failure into the exit-code
    taxonomy (ill-formed program → 3, exhausted budget → 2).  [Error]
    is reserved for internal failures and unknown pass/litmus names —
    the classes that must not be cached. *)

(** The daemon's counters: requests served, store hits and misses,
    admission-queue rejections and internal errors.  Atomics: one
    handler thread per connection bumps them, and the [Stats] request
    reads them lock-free (docs/SERVICE.md). *)
module Counters : sig
  type t = {
    served : int Atomic.t;  (** work requests answered with a result *)
    store_hits : int Atomic.t;  (** answered straight from the store *)
    store_misses : int Atomic.t;  (** computed (and recorded) fresh *)
    busy : int Atomic.t;  (** rejected with [Busy] by admission control *)
    errors : int Atomic.t;  (** protocol or internal failures *)
    sheds : int Atomic.t;
        (** queued requests preempted out of a full queue by a
            higher-priority arrival ([Shed Overload]) *)
    expired : int Atomic.t;
        (** queued requests dropped because their wall-clock deadline
            or the queue TTL passed while waiting ([Shed Expired]) *)
    evictions : int Atomic.t;
        (** connections closed by the server's I/O deadlines —
            slowloris or idle peers *)
  }

  val create : unit -> t
  val pp : Format.formatter -> t -> unit
end

val serve_work :
  ?store:Store.t ->
  stats:Counters.t ->
  Proto.work ->
  Explore.Config.t ->
  Proto.response
(** The store-aware serve path shared by the daemon, the bench
    harness's cold/warm table and the tests: look up
    (completeness-aware, {!Store.find}), else compute and record.
    Conclusive verdicts (exit 0/1) are cached unconditionally;
    inconclusive ones carry their budget; errors are never cached. *)

val run : ?on_ready:(unit -> unit) -> config -> (unit, string) result
(** Run the daemon until shutdown.  [on_ready] fires once the socket
    is listening (used by tests to sequence a client).  [Error] covers
    startup failures (socket already served) and unexpected crashes of
    the accept loop. *)
