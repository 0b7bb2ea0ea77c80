(** Whole-machine configurations [W = (TP, t, M)] (Fig. 8/9).

    This module defines the world state shared by the interleaving
    machine (Fig. 9) and the non-preemptive machine (Fig. 10; see
    {!Npsem}), plus the initialization from a program.  Step
    {e enumeration} lives in {!Explore}, which needs bounds and
    configuration; the machine-step {e rules} are documented there and
    tested against the paper's examples.

    Interleaving-machine discipline implemented by the explorer, in
    one sentence: any thread step of the current thread may run, but a
    context switch, an observable output and termination are only
    permitted at configurations where the current thread is
    [consistent] — exactly the reachable committed points of Fig. 9's
    [(τ-step)]/[(out-step)]/[(sw-step)] rules. *)

module TidMap : Map.S with type key = int

module Tids : module type of Share.Map (TidMap)
(** {!Share.Map} over thread-id maps: the thread pool's, and the
    explorer's per-thread promise budgets. *)

type world = {
  tp : Thread.ts TidMap.t;  (** thread pool [TP] *)
  cur : int;  (** current thread id [t] *)
  mem : Memory.t;  (** shared memory [M] *)
}

val init : Lang.Ast.program -> (world, string) result
(** Initial world: one thread per entry of [P.threads] (tids 0, 1, …),
    all variables mentioned anywhere in the program initialized to 0,
    thread 0 current.  [Error] if some thread's function is missing
    (ruled out by {!Lang.Wf}). *)

val tids : world -> int list
val cur_ts : world -> Thread.ts
val install :
  world -> Thread.ts -> Memory.t -> world * Memory.renumbering option
(** [install w ts mem] makes [ts] the current thread's state and [mem]
    the memory — the result of one thread step — and puts the world
    into canonical form: every location's endpoints back on the grid
    [0, K, 2K, …], every view, promise and message view renumbered
    through the same map ({!Memory.renumbering}).  Returns the map when
    it was not the identity, so that callers comparing the states
    before and after the step can relate their messages.  When [mem]
    is already canonical (every append keeps it so) this costs one
    allocation-free scan.  The one place the explorers (Enum, Stepper,
    Random_run) install a stepped memory. *)

val switch : world -> int -> world
val all_finished : world -> bool

val terminal : world -> bool
(** All threads finished with empty (concrete) promise sets: the
    configuration emits [done]. *)

val compare : world -> world -> int

val equal : world -> world -> bool
(** [compare a b = 0]: [==], then [cur], then each layer's own
    [equal], each of which tries [==] first; allocation-free except as
    {!Share.Map.equal} says. *)

val hash : world -> int
(** Consistent with {!equal}; the key of the hashed exploration
    tables in {!Explore.Enum}. *)

val pp : Format.formatter -> world -> unit
