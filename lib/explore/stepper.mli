(** The deterministic machine-stepping core shared by the witness
    search and the replay debugger ([lib/replay]).

    A {!state} is a machine world plus the two pieces of search-side
    bookkeeping that gate successor steps: the non-preemptive switch
    bit [β] (Fig. 10) and the per-thread promise-budget spent.
    {!successors} enumerates every machine step allowed from a state —
    regular thread steps first (in {!Ps.Thread.steps} order), then
    promise steps, then context switches in ascending thread id — with
    exactly the gating of {!Enum}/{!Witness}: outputs and switches only
    at configurations where the current thread is consistent, promises
    only within the budget and (non-preemptively) when the bit is on.

    Because the enumeration is a pure function of the state and the
    configuration, a [(kind, choice)] pair identifies one successor
    {e deterministically}: recording those pairs is enough to replay an
    execution step-for-step without search, which is what the replay
    store persists ([docs/REPLAY.md]). *)

module TidMap = Ps.Machine.TidMap

type state = {
  world : Ps.Machine.world;
  bit : bool;  (** the non-preemptive switch bit [β]; always [true]
                   under the interleaving discipline *)
  promised : int TidMap.t;  (** promise steps spent, per thread *)
}

(** How a successor was taken. *)
type kind = Thread_step | Promise_step | Switch_step

type succ = {
  kind : kind;
  choice : int;
      (** index of this candidate inside the deterministic enumeration
          of its kind: position in the {!Ps.Thread.steps} /
          {!Ps.Thread.promise_steps} list, or the target thread id for
          switches.  [(kind, choice)] replayed through {!apply} from
          the same state yields the same successor. *)
  tid : int;  (** acting thread: current for steps, target for switches *)
  event : Ps.Event.te option;  (** [None] exactly for switches *)
  state : state;
  renumbering : Ps.Memory.renumbering option;
      (** how the step renumbered the timestamps it found
          ({!Ps.Machine.install}): the map that relates [state]'s
          messages to those of the state the step left *)
}

val init : Lang.Ast.program -> (state, string) result
(** Initial state: machine init, bit on, no promises spent. *)

val equal_state : state -> state -> bool
val compare_state : state -> state -> int

val committed : config:Config.t -> program:Lang.Ast.program -> state -> bool
(** Whether the current thread passes promise certification — the gate
    on outputs, switches and termination. *)

val committed_stats :
  config:Config.t -> program:Lang.Ast.program -> state -> bool * int
(** {!committed} plus the certification-search state count
    ({!Ps.Cert.consistent_stats}). *)

val successors :
  config:Config.t ->
  discipline:Enum.discipline ->
  program:Lang.Ast.program ->
  state ->
  succ list
(** All allowed machine steps, deterministically ordered: thread
    steps, then promise steps, then switches. *)

val apply :
  config:Config.t ->
  discipline:Enum.discipline ->
  program:Lang.Ast.program ->
  state ->
  kind ->
  choice:int ->
  succ option
(** Replay one recorded choice: the successor of that [kind] whose
    {!succ.choice} matches, or [None] if the enumeration from this
    state has no such candidate (a corrupt or mismatched trace). *)

val drive :
  config:Config.t ->
  discipline:Enum.discipline ->
  program:Lang.Ast.program ->
  (int * Ps.Event.te) list ->
  (state * succ list) option
(** Schedule-constrained execution: find (by backtracking over the
    successor enumeration) a machine run whose thread/promise steps
    follow the given [(tid, event)] schedule exactly — context
    switches are inserted implicitly whenever the scheduled thread is
    not current — and whose final state is terminal.  Returns the
    initial state and the full trail (switches included), or [None] if
    no run realizes the schedule.  This is how shrinking candidates
    are re-validated: only schedules that genuinely execute survive. *)

val trail_states : state -> succ list -> state list
(** The [n+1] states along a trail, initial state first. *)

val pp_kind : Format.formatter -> kind -> unit
