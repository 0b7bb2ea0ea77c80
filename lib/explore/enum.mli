(** Bounded-exhaustive behaviour enumeration for both machines.

    [behaviors disc p] computes the set of observable event traces of
    [p] under the chosen machine discipline:

    - {!Interleaving} implements Fig. 9: any thread step of the
      current thread may run; context switches, outputs and
      termination are only taken at configurations where the current
      thread passes the [consistent] check — precisely the committed
      points reachable by sequences of [(τ-step)], [(out-step)] and
      [(sw-step)] machine steps.
    - {!Non_preemptive} implements Fig. 10: additionally threads the
      switch bit [β] through thread steps ({!Npsem.bit_after}) and
      only switches when the bit is on.

    The search is a depth-first traversal of the machine state space
    computing, per state, the set of trace {e suffixes} from it.
    Suffix sets are memoized per state (promise budget included in the
    key), with Tarjan-style taint tracking so that results depending
    on a cycle (divergence) or on the depth budget are never reused
    unsoundly.  Divergence contributes the honest prefix trace ending
    {!Ps.Event.Open}; budget exhaustion contributes a trace ending
    {!Ps.Event.Cut} and clears {!outcome.exact}.

    {!Config.reduction} layers three state-space reductions over the
    same traversal (docs/REDUCTION.md): certification-aware
    partial-order reduction (ample thread-local steps defer context
    switches; symmetric switch siblings collapse), symmetry reduction
    (memo keys are canonicalized under permutation of
    identical-program threads, so N replicated threads cost one
    orbit), and bounded-promise mode (exhaustive within the bound,
    honest [Truncated] above it).  Symmetry alone preserves the raw
    traceset; the partial-order rules preserve behaviour
    ({!Traceset.equal_behaviour}) and completeness.  At a fixed
    reduction config the result stays deterministic across pool
    widths.  {!iter_reachable} ignores the reduction request: race
    checking must see every reachable state. *)

type discipline = Interleaving | Non_preemptive

(** Whether the traceset covers the whole (bounded-promise) state
    space.  Any verdict derived from a [Truncated] outcome must
    degrade to inconclusive — {!Refine}, {!Race}, [Sim.Verif] and
    [Litmus] all enforce this (docs/ROBUSTNESS.md). *)
type completeness =
  | Exhaustive
  | Truncated of Errors.reason list
      (** the distinct reasons subtrees were abandoned: step budget,
          wall-clock deadline, node budget, heap budget, suppressed
          promises (strict mode) or injected faults *)

type outcome = {
  traces : Traceset.t;
  completeness : completeness;
  exact : bool;
      (** [completeness = Exhaustive]: for programs with finite (up to
          silent divergence) behaviour this is the full PS2.1
          behaviour set under the configured promise bound *)
  stats : Stats.t;
}

val pp_completeness : Format.formatter -> completeness -> unit

val completeness_of : Stats.t -> completeness
(** A search's completeness, from its truncation counters
    ({!Stats.truncation_reasons}): how a caller of {!iter_reachable}
    judges its walk. *)

val behaviors :
  ?config:Config.t ->
  ?observe:(Ps.Machine.world -> unit) ->
  discipline ->
  Lang.Ast.program ->
  (outcome, string) result
(** [observe], when given, is called with every committed state the
    walk expands, in depth-first order: at least once per reachable
    committed state when the outcome is [Exhaustive] (a state expanded
    again, because its suffix set could not be memoized, is observed
    again).  This lets one walk both compute the behaviour set and
    evaluate a per-state predicate such as {!Race}'s.  An observed
    walk runs on one domain whatever [config.domains] says, so the
    order is deterministic; on {!Interleaving} its {!Stats} equal the
    unobserved walk's.  Requires [config.reduction =
    Config.no_reduction] (reduction prunes states a per-state
    predicate must see).
    @raise Invalid_argument when [observe] is given with reduction
    on. *)

val behaviors_exn :
  ?config:Config.t -> discipline -> Lang.Ast.program -> outcome
(** @raise Errors.Error [(Ill_formed _)] when the program's machine
    cannot be initialised. *)

val iter_reachable :
  ?config:Config.t ->
  discipline ->
  Lang.Ast.program ->
  f:(committed:bool -> Ps.Machine.world -> unit) ->
  (Stats.t, string) result
(** Visit every distinct reachable machine state once, depth-first
    over the same successor relation as {!behaviors}, calling [f] on
    each state the first time the walk expands it.

    A state met again is expanded again only when it is met at a
    shallower depth than before {e and} the walk has already cut a
    state at [config.max_steps]; before the first cut, a second
    expansion could reach nothing new, so every state is expanded
    once.  After a cut, re-expansion on a shallower path keeps the walk
    budget-complete: every state reachable within [max_steps] steps is
    visited.  Either way the states reach [f] in the order in which a
    walk that always re-expanded on a shallower path would first visit
    them, with the same node and transition counts.  A step cut (the
    [cuts] counter of {!Stats}, which makes the walk [Truncated
    [Step_budget]]) is counted only for a state met at the budget that
    was never expanded: a state met again there loses nothing.

    [committed] is true when the current thread passes the
    consistency check — exactly the
    machine configurations reachable by Fig. 9/Fig. 10 machine steps,
    which is where the race predicate of Fig. 11 is evaluated
    ({!Race}).  Returns the exploration statistics (the state-space
    measurements of experiments E9/E16). *)

val pp_discipline : Format.formatter -> discipline -> unit

(** {2 The successor relation}

    The one machine-step relation of this library: {!behaviors} and
    {!iter_reachable} walk it, and so, through {!Stepper}, do the
    witness search, the replay recorder and debugger, and the
    shrinker. *)

(** A search node: a machine world, the non-preemptive switch bit [β]
    (always [true] under {!Interleaving}) and the promise steps spent
    per thread. *)
module Node : sig
  type t

  val world : t -> Ps.Machine.world
  val equal : t -> t -> bool

  val hash : t -> int
  (** Memoized.  A node that {!successors} returned and that has not
      been expanded yet carries the leaf hashes of its world
      ({!Ps.Machine.leaves}), built from its parent's: then its hash
      costs the leaves its step changed and a combine per leaf.
      Expanding a node fixes its hash and drops its leaves. *)

  val scratch_hash : t -> int
  (** What {!hash} must equal: computed from the whole world, bit and
      budget, without leaves or the memoized value. *)
end

type kind = Thread_step | Promise_step | Switch_step

type succ = {
  kind : kind;
  choice : int;
      (** the step's index among the candidates of its kind, taken
          before any filtering: in {!Ps.Thread.steps} for thread
          steps; in {!Ps.Thread.promise_steps} for promise steps, with
          reserve then cancel steps continuing that numbering; the
          target thread id for switches *)
  event : Ps.Event.te option;  (** [None] exactly for switches *)
  next : Node.t;
  renumbering : Ps.Memory.renumbering option;
      (** the timestamp renumbering {!Ps.Machine.install} applied *)
}

type stepper
(** One single-domain search worker over a program, whose
    certification and promise-candidate caches persist across
    {!successors} calls. *)

val stepper : config:Config.t -> discipline -> Lang.Ast.program -> stepper
val root : Ps.Machine.world -> Node.t
(** The initial node: switch bit on, no promises spent. *)

val successors : stepper -> Node.t -> succ list
(** Every successor the search expands from a node, in the search's
    order: thread steps, promise steps, reserve and cancel steps (when
    [config.reservations]), then switches in descending thread id —
    after the configured reduction's pruning and the promise bound. *)

val config_hash : Node.t -> int
(** The hash of the certification-cache key of the node's own
    configuration (its current thread's state and the memory), taken
    from the node's leaf hashes while it has them. *)

val scratch_config_hash : Node.t -> int
(** What {!config_hash} must equal: the same key hashed from the
    thread state and memory themselves. *)
