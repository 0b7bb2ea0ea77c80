(** Exploration configuration: the bounds that make PS2.1's infinite
    branching finite, and the switches for the ablation experiments.

    Defaults are tuned so that every litmus program of the paper
    explores exhaustively (no [Cut] traces) in well under a second.
    The optional resource budgets ([deadline_ms], [max_nodes],
    [max_live_words]) are off by default; when one trips, the search
    degrades explicitly — the affected subtree becomes a [Cut] trace,
    the {!Stats} counter for the reason increments, and the
    {!Enum.outcome} reports [Truncated] so downstream verdicts become
    inconclusive instead of over-claiming (docs/ROBUSTNESS.md). *)

type promise_mode =
  | No_promises
      (** promise-free exploration (an ablation: loses LB-style
          behaviours, experiment E2 demonstrates the difference) *)
  | Semantic
      (** candidates are the certifiable writes discovered by isolated
          runs from capped memory ({!Ps.Cert.certifiable_writes}) *)
  | Syntactic
      (** candidates are constant stores syntactically reachable in
          the thread's remaining code *)

type fault = {
  fault_seed : int;  (** PRNG seed — the schedule is a pure function of it *)
  fault_rate : float;
      (** probability in [0,1] that any given enumeration or
          certification step is killed *)
}
(** Deterministic fault injection: with probability [fault_rate], an
    enumeration step is cut (as if a budget had tripped there) or a
    certification query answers "inconsistent".  Both moves only
    remove behaviours, so completed traces under any schedule are a
    subset of the fault-free run and verdicts can only degrade toward
    inconclusive — the property test in test/test_robustness.ml. *)

type reduction = {
  por : bool;
      (** certification-aware partial-order reduction: ample-set
          pruning of switch successors under a deterministic local τ
          step, plus sleep-set style pruning of switch targets whose
          thread records are literally equal (docs/REDUCTION.md).
          Preserves completed traces exactly; [Open] divergence
          prefixes may differ, so compare reduced vs. unreduced runs
          with {!Traceset.equal_behaviour}. *)
  symmetry : bool;
      (** canonicalize memo-table keys under permutations of
          syntactically identical threads, so N identical threads cost
          one orbit of subtree explorations instead of N!
          (docs/REDUCTION.md).  Raw-traceset preserving: traces carry
          no thread identifiers. *)
  bound_promises : int option;
      (** [Some k] caps outstanding promise steps per thread at [k]
          (overriding [max_promises]) and forces strict reporting:
          exhaustive for the bound, honest [Truncated
          [Promise_budget]] whenever the cap suppressed a nonempty
          candidate set — the bounded-promise exploration mode of "The
          Decidability of Verification under Promising 2.0". *)
}
(** The state-space reduction layer (docs/REDUCTION.md).  All three
    techniques compose with each other, with memoization and with the
    parallel engine ([-j]); the traceset at a {e fixed} reduction
    setting is deterministic across widths as usual. *)

val no_reduction : reduction
(** All techniques off — the default, and the reference semantics. *)

val full_reduction : reduction
(** [por] and [symmetry] on, no promise bound. *)

type t = {
  max_steps : int;
      (** depth bound on micro-steps along one path; exceeding it
          yields a [Cut] trace, never silent truncation *)
  max_promises : int;  (** promise steps per thread along a path *)
  promise_mode : promise_mode;
  reservations : bool;
      (** enumerate reserve/cancel steps (off by default: reservations
          only matter for RMW-heavy certification races, and they are
          exercised directly by unit tests) *)
  cert_fuel : int;  (** step bound inside one certification search *)
  cap_certification : bool;
      (** certify against capped memory (PS2.1); [false] is the
          ablation of Sec. 2.4's discussion *)
  memoize : bool;
      (** memoize suffix sets per machine state (exact for acyclic
          state spaces; divergence is reported as [Open] prefixes) *)
  cert_cache : bool;
      (** cache certification verdicts per [(thread-state, memory)]
          configuration, so {!Ps.Cert.consistent} — the dominant cost
          of the hot path, forced for every output, switch and promise
          candidate — runs once per distinct configuration instead of
          once per successor.  Sound: the verdict is a pure function
          of the configuration (fuel and capping are fixed per
          search).  [false] is the bench ablation. *)
  deadline_ms : int option;
      (** wall-clock budget for one exploration, measured from the
          start of the search *)
  max_nodes : int option;  (** budget on distinct states expanded *)
  max_live_words : int option;
      (** abandon the search when the major heap's live words exceed
          this (checked periodically via [Gc.quick_stat]) *)
  strict_promises : bool;
      (** also report [Promise_budget] truncation when [max_promises]
          suppresses a nonempty certifiable-candidate set.  Off by
          default: the bounded-promise exploration is the intended
          semantics for the paper's experiments, not a truncation. *)
  fault : fault option;  (** fault-injection mode (testing only) *)
  domains : int;
      (** requested width of the domain pool for the parallel engine;
          [1] — the default unless the [PSOPT_J] environment variable
          is set — runs on the calling domain alone.  The effective
          width is [min domains (Pool.recommended ())] unless
          [oversubscribe] is set: running more domains than cores
          cannot help (the OS time-slices them over the same
          hardware) and actively hurts (every minor GC is a
          stop-the-world sync across all domains, and cross-domain
          cache publication lags by whole scheduler quanta), so a
          width the hardware cannot deliver is treated as a request
          for "as parallel as profitable".  The returned traceset and
          completeness are identical for every width
          (docs/PARALLEL.md). *)
  oversubscribe : bool;
      (** run all [domains] workers even beyond the hardware core
          count.  Off by default; the test suite switches it on so the
          multi-domain engine is genuinely exercised (stealing and
          cache publication) even on single-core CI runners. *)
  reduction : reduction;
      (** state-space reduction (off by default); {e included} in
          {!fingerprint} — [bound_promises] changes completeness and
          [por] changes the reported [Open] prefixes, so cached
          results must not cross reduction modes. *)
}

val parse_jobs : string -> int option
(** The syntax of a [PSOPT_J] value: a positive decimal integer,
    surrounding whitespace allowed. *)

val env_jobs : int option
(** [$PSOPT_J] parsed with {!parse_jobs}, read once at start-up.
    [None] when unset, or when the value does not parse — which is
    reported by one [Obs.Log] warning rather than silently taken as a
    width. *)

val default : t
(** [domains] defaults to {!env_jobs} when set (the CI matrix runs the
    whole test suite parallel this way), [1] otherwise.  Setting
    [PSOPT_J] also sets [oversubscribe]: it is an explicit request to
    run the parallel engine, even on a runner with fewer cores than
    that. *)

val quick : t
(** Promise-free, shallower: for smoke tests and benches. *)

val fingerprint : t -> string
(** A hex digest of the {e semantic} fields only — the ones that can
    change a search's result rather than its speed: [max_promises],
    [promise_mode], [reservations], [cert_fuel], [cap_certification],
    [strict_promises], [fault] and the [reduction] knobs.  Excluded are [memoize],
    [cert_cache], [domains] and [oversubscribe] (pure performance switches, identical
    results by the determinism contract of docs/PARALLEL.md) and the
    four budgets [max_steps]/[deadline_ms]/[max_nodes]/[max_live_words]
    (an [Exhaustive] outcome is the same under every sufficient
    budget).  The content-addressed result store keys on this
    fingerprint and tracks budgets separately — docs/SERVICE.md. *)

val with_promises : int -> t -> t
val with_deadline_ms : int -> t -> t
val with_reduction : reduction -> t -> t
val pp : Format.formatter -> t -> unit
