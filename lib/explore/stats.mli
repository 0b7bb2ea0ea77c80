(** Exploration statistics — the measurements behind experiments E9
    and E16 (state-space size of the interleaving vs the
    non-preemptive machine), the bench harness and its certification
    ablation, and the truncation-pressure counters the resilience
    layer reports.

    One plain mutable record.  Each worker of the domain-parallel
    engine owns one and bumps it without synchronization; the search's
    coordinator sums the workers' records with {!add} once, after
    joining them, so the totals are exact.

    Certification accounting is partitioned exactly: every consistency
    check requested bumps [cert_checks] and then exactly one of
    [cert_cache_hits], [cert_runs], [cert_trivial], or [cert_faults] —
    so [cert_checks = cert_cache_hits + cert_runs + cert_trivial +
    cert_faults] always holds (asserted in the test suite). *)

type t = {
  mutable nodes : int;  (** distinct machine states visited *)
  mutable transitions : int;  (** micro-steps enumerated *)
  mutable memo_hits : int;
  mutable memo_size : int;
      (** distinct memoized machine states at the end of the search:
          the suffix-set memo table of worker 0, which at [j > 1] has
          absorbed every other worker's entries after the join *)
  mutable cert_checks : int;  (** consistency checks requested *)
  mutable cert_cache_hits : int;
      (** consistency checks answered by the certification cache
          without re-running {!Ps.Cert.consistent} *)
  mutable cert_runs : int;
      (** consistency checks that actually ran {!Ps.Cert.consistent} *)
  mutable cert_trivial : int;
      (** consistency checks on promise-free thread states, trivially
          true without consulting the cache *)
  mutable cert_faults : int;
      (** consistency checks answered [false] by the fault injector
          (these bypass the cache and also count in
          [faults_injected]) *)
  mutable cand_cache_hits : int;
      (** promise-candidate sets answered by the candidate cache
          (previously conflated with [cert_cache_hits]) *)
  mutable cert_cache_size : int;
      (** distinct [(thread-state, memory)] configurations certified *)
  mutable cycles : int;  (** back-edges (divergence points) found *)
  mutable cuts : int;  (** paths truncated by the step budget *)
  mutable promises : int;  (** promise steps explored *)
  mutable peak_depth : int;  (** deepest micro-step stack reached *)
  mutable deadline_hits : int;
      (** subtrees abandoned because [Config.deadline_ms] passed *)
  mutable node_budget_hits : int;
      (** subtrees abandoned because [Config.max_nodes] was reached *)
  mutable oom_hits : int;
      (** subtrees abandoned because the live-word budget
          [Config.max_live_words] was exceeded *)
  mutable promise_budget_hits : int;
      (** nonempty certifiable-promise candidate sets suppressed by
          [Config.max_promises] (counted only under
          [Config.strict_promises]) *)
  mutable faults_injected : int;
      (** injected faults that fired ([Config.fault] mode) *)
  mutable sleep_prunes : int;
      (** switch successors dropped by the symmetric-sibling rule of
          the partial-order reduction ([Config.reduction.por],
          docs/REDUCTION.md): switch targets whose thread record is
          literally equal to an already-kept sibling's *)
  mutable persistent_prunes : int;
      (** switch successors dropped by the ample-set rule: the current
          thread's only regular step is a deterministic in-block local
          τ, so every switch commutes past it *)
  mutable symmetry_folds : int;
      (** memo-table lookups answered only thanks to symmetry
          canonicalization ([Config.reduction.symmetry]) — the probe
          hit under the canonical key where the raw key would have
          missed *)
  mutable promise_bound_hits : int;
      (** nonempty certifiable-promise candidate sets suppressed by
          [Config.reduction.bound_promises]; each also counts in
          [promise_budget_hits], which drives the [Promise_budget]
          truncation reason *)
  mutable domains_used : int;
      (** effective pool width this search ran with ([Config.domains]
          after clamping) *)
  started_ns : int;
      (** {!Obs.Clock.now_ns} stamp taken at {!create} — the same
          clock the span tracer uses, so the stats line and a [--trace]
          of the same run measure the same interval *)
  mutable elapsed_ns : int;
      (** wall-clock duration of the search, set by {!finish} *)
}

(** Counters of the verification service ({!module:Service} in
    [lib/service]): requests served, content-addressed store hits and
    misses, admission-queue rejections and internal errors.  These
    stay atomics: the daemon bumps them from one handler thread per
    connection and reports them lock-free via the [Stats] request
    (docs/SERVICE.md). *)
module Service : sig
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

val create : unit -> t

val add : into:t -> t -> unit
(** [add ~into w] adds worker record [w]'s counters into [into];
    [peak_depth] takes the maximum.  [memo_size], [cert_cache_size],
    [domains_used], [started_ns] and [elapsed_ns] describe the search,
    not a worker, and are left alone. *)

val truncation_reasons : t -> Errors.reason list
(** The distinct reasons this search was incomplete — empty iff the
    exploration was exhaustive.  Derived from the counters, so callers
    of {!Enum.iter_reachable} (which streams states instead of
    returning an {!Enum.outcome}) can judge completeness too. *)

val finish : t -> unit
(** Stamp [elapsed_ns] from the shared clock and publish this search's
    counters into the process-global {!Obs.Metrics} registry
    (cumulative [psopt_explore_*] families; the exact cert partition
    becomes the [outcome] label of
    [psopt_explore_cert_outcomes_total]).  Called once per search by
    [Enum]. *)

val elapsed_ms : t -> int

val pp : Format.formatter -> t -> unit
