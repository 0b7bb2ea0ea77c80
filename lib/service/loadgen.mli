(** The fleet load generator behind [psopt loadgen] and the bench
    loadgen table: drive a live daemon with thousands of concurrent
    synthetic clients and report honest tail latency.

    Two generation modes answer different questions.  {e Closed loop}
    ([Closed]) runs N persistent clients in lock step — offered load
    adapts to the server, so it measures "how fast can N well-behaved
    clients go" but structurally cannot see overload.  {e Open loop}
    ([Open]) fixes every request's intended start time in advance from
    a seeded arrival schedule and records latency against that
    schedule, not the actual send — the standard defense against
    coordinated omission: when the generator falls behind a stalled
    server, the backlog time lands in the tail where it belongs
    (docs/SERVICE.md "Load generation methodology").

    Latencies are raw samples, merged and sorted at the end: the
    reported quantiles are exact order statistics, with none of the
    2x bucket-interpolation error of the registry histograms. *)

type arrivals =
  | Poisson  (** exponential interarrivals (memoryless fleet traffic) *)
  | Uniform  (** fixed spacing (a metronome; adversarially bursty-free) *)

type mode = Closed | Open of { rate_hz : float; arrivals : arrivals }

(** Request classes of the mix: [High] draws a random litmus-corpus
    name (cache-friendly, High service priority); [Normal] ships a
    distinct stress-generated program per request index (uncached
    exploration work). *)
type klass = High | Normal

(** The seeded arrival schedule, exposed for the coordinated-omission
    tests. *)
module Schedule : sig
  val gen : seed:int -> arrivals:arrivals -> rate_hz:float -> n:int -> int array
  (** [n] intended start offsets in ns from the run start,
      nondecreasing, a pure function of [seed].  Raises
      [Invalid_argument] on a non-positive rate. *)

  val co_latency : intended_ns:int -> completion_ns:int -> int
  (** Completion against the schedule — never against the (possibly
      late) actual send. *)
end

module Quantiles : sig
  type t = {
    n : int;
    p50_ns : int;
    p90_ns : int;
    p99_ns : int;
    p999_ns : int;
    max_ns : int;
    mean_ns : float;
  }

  val zero : t

  val exact : int array -> float -> int
  (** Nearest-rank order statistic over a {e sorted} array:
      the ceil(q·n)-th smallest sample. *)

  val of_samples : int array -> t
  (** Sorts a copy; [zero] for an empty array. *)
end

type class_stats = {
  sent : int;
  ok : int;
  cached : int;  (** subset of [ok] answered from the store *)
  shed : int;
  busy : int;
  errors : int;  (** transport failures + [Refused] + protocol noise *)
  latency : Quantiles.t;  (** over [ok] answers only *)
}
(** Invariant (tested): [sent = ok + shed + busy + errors]. *)

type report = {
  mode : mode;
  clients : int;
  wall_s : float;  (** measured window actually covered *)
  throughput_rps : float;  (** ok answers per measured second *)
  high : class_stats;
  normal : class_stats;
  all : class_stats;
  retries : int;  (** client-library retries across all workers *)
  reconnects : int;
  transport_errors : int;  (** I/O-level failures only (gate: zero) *)
  late_sends : int;  (** open loop: sends that fell behind schedule *)
}

type config = {
  socket : string;
  clients : int;  (** concurrent connections (worker threads) *)
  mode : mode;
  warmup_s : float;  (** requests in this phase are sent but not counted *)
  duration_s : float;
  high_pct : int;  (** percentage of requests in the [High] class *)
  seed : int;
  io_timeout_s : float option;
  retries : int;  (** {!Client.rpc_wait} budget per request; 0 = single shot *)
  prewarm : bool;
      (** push the whole litmus corpus through one connection before
          the clock starts, so a store-backed daemon measures warm *)
  work_config : Explore.Config.t;
}

val default : socket:string -> config
(** 32 closed-loop clients, 2 s warmup + 10 s measure, 90% litmus,
    single-shot sends, no prewarm. *)

val default_work_config : Explore.Config.t
(** Small bounded explorations (quick profile, 400 steps, 2 s
    deadline, one domain) so Normal-class work is heterogeneous but
    cannot outlive the measurement window. *)

val request_of : seed:int -> high_pct:int -> int -> klass * Proto.work
(** The request mix as a pure function of (seed, request index) —
    every worker and every rerun agrees on what request [k] is. *)

val run : config -> (report, string) result
(** Drive the daemon.  Fails fast when the daemon is unreachable;
    per-request failures are accounted, not fatal.  Only requests
    whose (intended, for open loop) start falls inside the measure
    window are counted, and classification happens at completion, so
    the class invariant holds exactly. *)

(** {2 Saturation search} *)

type slo = {
  slo_p99_ms : float option;  (** ceiling on all-class p99 *)
  slo_shed_pct : float option;  (** ceiling on (shed+busy)/sent·100 *)
}

type sat_step = { rate_hz : float; step_report : report; passed : bool }

type saturation = {
  steps : sat_step list;  (** in offered-rate order, ends at first failure *)
  knee_hz : float option;  (** last offered rate that met the SLO *)
}

val shed_pct : report -> float

val saturation : config -> slo:slo -> rates:float list -> (saturation, string) result
(** Rerun [cfg] open-loop at each offered rate in order until the SLO
    breaks; the knee is the last passing rate ([None] when even the
    first step fails).  [cfg.mode]'s arrival process is kept when it
    is already open-loop; Poisson otherwise. *)

(** {2 JSON} *)

val report_json : report -> Obs.Json.t
(** The report as [psopt loadgen --json] writes it: mode, clients,
    wall time, throughput, retry/transport counters and the three
    class summaries (latencies in ms). *)

val saturation_json : saturation -> Obs.Json.t
(** The steps (offered rate, SLO verdict, report) and the knee. *)
