(** The deterministic machine-stepping core of the witness search and
    the replay debugger ([lib/replay]): a projection of {!Enum}'s
    successor relation, not a copy of it.

    A {!state} is {!Enum}'s search node: a machine world plus the two
    pieces of search-side bookkeeping that gate successor steps, the
    non-preemptive switch bit [β] (Fig. 10) and the promise steps spent
    per thread.  {!successors} is {!Enum.successors} on one
    single-domain worker ({!t}), so it has exactly the gating of the
    explorer: outputs and switches only where the current thread is
    consistent, promises within the budget ([reduction.bound_promises]
    included) and (non-preemptively) while the bit is on, reserve and
    cancel steps when [config.reservations] is set, and the configured
    reduction's pruning.  The order is the explorer's: thread steps,
    promise steps (reserve and cancel last among them), then switches
    in descending thread id.  The worker's certification and candidate
    caches are shared by every call on the same {!t}.

    Because the enumeration is a pure function of the state and the
    configuration, a [(kind, choice)] pair identifies one successor
    {e deterministically}: recording those pairs is enough to replay an
    execution step-for-step without search, which is what the replay
    store persists ([docs/REPLAY.md]). *)

type state = Enum.Node.t

(** How a successor was taken: reserve and cancel steps are
    [Promise_step]s. *)
type kind = Enum.kind = Thread_step | Promise_step | Switch_step

type succ = Enum.succ = {
  kind : kind;
  choice : int;
      (** index of this candidate inside the deterministic enumeration
          of its kind, before filtering: position in the
          {!Ps.Thread.steps} list; position in the
          {!Ps.Thread.promise_steps} list, continued by the reserve and
          cancel steps; or the target thread id for switches.
          [(kind, choice)] replayed through {!apply} from the same state
          yields the same successor. *)
  event : Ps.Event.te option;  (** [None] exactly for switches *)
  next : state;
  renumbering : Ps.Memory.renumbering option;
      (** how the step renumbered the timestamps it found
          ({!Ps.Machine.install}): the map that relates [next]'s
          messages to those of the state the step left *)
}

type t
(** A stepper over one program, configuration and discipline. *)

val create :
  ?config:Config.t -> discipline:Enum.discipline -> Lang.Ast.program -> t

val init : Lang.Ast.program -> (state, string) result
(** Initial state: machine init, bit on, no promises spent. *)

val world : state -> Ps.Machine.world

val tid : succ -> int
(** The acting thread: the current one for steps, the target for
    switches. *)

val equal_state : state -> state -> bool
val hash_state : state -> int

val successors : t -> state -> succ list
(** All allowed machine steps, in the explorer's order. *)

val apply : t -> state -> kind -> choice:int -> succ option
(** Replay one recorded choice: the successor of that [kind] whose
    {!succ.choice} matches, or [None] if the enumeration from this
    state has no such candidate (a corrupt or mismatched trace). *)

val drive : t -> (int * Ps.Event.te) list -> (state * succ list) option
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
