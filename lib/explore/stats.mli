(** Exploration statistics — the measurements behind experiments E9
    and E16 (state-space size of the interleaving vs the
    non-preemptive machine), the bench harness and its certification
    ablation, and the truncation-pressure counters the resilience
    layer reports.

    Each worker of the domain-parallel engine owns one record and
    bumps it without synchronization; the search's coordinator sums
    the workers' records with {!add} once, after joining them, so the
    totals are exact.

    Certification accounting is partitioned exactly: every consistency
    check requested bumps [cert_checks] and then exactly one of
    [cert_cache_hits], [cert_runs], [cert_trivial], or [cert_faults] —
    so [cert_checks = cert_cache_hits + cert_runs + cert_trivial +
    cert_faults] always holds (asserted in the test suite). *)

type t
(** One search's (or one worker's) counters, plus the clock stamps
    {!create} and {!finish} take. *)

(** {1 Counters}

    Each counter is declared once in [stats.ml] — printed name, merge
    rule under {!add}, {!pp} group, truncation reason and metric —
    and everything below is derived from that table. *)

type counter

val nodes : counter
(** distinct machine states visited *)

val transitions : counter
(** micro-steps enumerated *)

val memo_hits : counter
(** suffix-set memo lookups that hit *)

val memo_size : counter
(** distinct memoized machine states at the end of the search: the
    suffix-set memo table of worker 0, which at [j > 1] has absorbed
    every other worker's entries after the join *)

val cert_checks : counter
(** consistency checks requested *)

val cert_cache_hits : counter
(** consistency checks answered by the certification cache without
    re-running {!Ps.Cert.consistent} *)

val cert_runs : counter
(** consistency checks that actually ran {!Ps.Cert.consistent} *)

val cert_trivial : counter
(** consistency checks on promise-free thread states, trivially true
    without consulting the cache *)

val cand_cache_hits : counter
(** promise-candidate sets answered by the candidate cache *)

val cert_cache_size : counter
(** distinct [(thread-state, memory)] configurations certified *)

val cycles : counter
(** back-edges (divergence points) found *)

val cuts : counter
(** paths truncated by the step budget *)

val promises : counter
(** promise steps explored *)

val peak_depth : counter
(** deepest micro-step stack reached *)

val domains_used : counter
(** effective pool width this search ran with ([Config.domains] after
    clamping); printed as [domains] *)

val deadline_hits : counter
(** subtrees abandoned because [Config.deadline_ms] passed *)

val node_budget_hits : counter
(** subtrees abandoned because [Config.max_nodes] was reached *)

val oom_hits : counter
(** subtrees abandoned because the live-word budget
    [Config.max_live_words] was exceeded *)

val promise_budget_hits : counter
(** nonempty certifiable-promise candidate sets suppressed by
    [Config.max_promises] (counted only under
    [Config.strict_promises]) *)

val faults_injected : counter
(** injected faults that fired ([Config.fault] mode) *)

val cert_faults : counter
(** consistency checks answered [false] by the fault injector (these
    bypass the cache and also count in [faults_injected]) *)

val sleep_prunes : counter
(** switch successors dropped by the symmetric-sibling rule of the
    partial-order reduction ([Config.reduction.por],
    docs/REDUCTION.md): switch targets whose thread record is literally
    equal to an already-kept sibling's *)

val persistent_prunes : counter
(** switch successors dropped by the ample-set rule: the current
    thread's only regular step is a deterministic in-block local τ, so
    every switch commutes past it *)

val symmetry_folds : counter
(** memo-table lookups answered only thanks to symmetry
    canonicalization ([Config.reduction.symmetry]) — the probe hit
    under the canonical key where the raw key would have missed *)

val promise_bound_hits : counter
(** nonempty certifiable-promise candidate sets suppressed by
    [Config.reduction.bound_promises]; each also counts in
    [promise_budget_hits], which drives the [Promise_budget]
    truncation reason *)

val output_cycles : counter
(** back-edges that close a cycle with an output, plus the subtrees
    abandoned after the first one stopped the search *)

val all : counter list
(** Every counter, in declaration order. *)

val name : counter -> string
(** The printed name, as {!pp} shows it. *)

val get : t -> counter -> int
val set : t -> counter -> int -> unit
val incr : t -> counter -> unit
val bump : t -> counter -> int -> unit

val create : unit -> t
(** All counters zero but [domains_used] (1); stamps the start time on
    the same clock as the span tracer ({!Obs.Clock.now_ns}), so the
    stats line and a [--trace] of the same run measure the same
    interval. *)

val add : into:t -> t -> unit
(** [add ~into w] adds worker record [w]'s counters into [into];
    [peak_depth] takes the maximum.  [memo_size], [cert_cache_size],
    [domains_used] and the clock stamps describe the search, not a
    worker, and are left alone. *)

val truncation_reasons : t -> Errors.reason list
(** The distinct reasons this search was incomplete, in
    {!Errors.reason}'s constructor order — empty iff the exploration
    was exhaustive.  Each reason is declared by one counter and listed
    when that counter is nonzero, so callers of {!Enum.iter_reachable}
    (which streams states instead of returning an {!Enum.outcome}) can
    judge completeness too. *)

val finish : t -> unit
(** Stamp the elapsed time from the shared clock and publish this
    search's counters into the process-global {!Obs.Metrics} registry
    (cumulative [psopt_explore_*] families; the exact cert partition
    becomes the [outcome] label of
    [psopt_explore_cert_outcomes_total]).  Called once per search by
    [Enum]. *)

val elapsed_ms : t -> int

val pp : Format.formatter -> t -> unit
