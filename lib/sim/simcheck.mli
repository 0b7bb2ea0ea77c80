(** A bounded checker for the thread-local upward simulation
    [I, ι |= π_t ≼ π_s] of Sec. 6 (Def. 6.1), played as a game over
    concrete thread configurations.

    For a function [f], the checker explores every execution of the
    target thread in isolation (the non-preemptive thread-step
    relation, promises included) and searches, for each target step, a
    source response matching the simulation diagrams of Fig. 14:

    - {b non-atomic step} (Fig. 14(a)): the source replies with zero
      or more non-atomic steps; a target non-atomic write enters the
      delayed write set [D] with a fresh index ((tgt-D), Fig. 13), a
      source non-atomic write discharges the oldest pending item on
      its location and extends the timestamp mapping [φ]; the indexes
      of the remaining items must strictly decrease ((src-D)), bounding
      how long the source may lag;
    - {b atomic step} (Fig. 14(b)): after source non-atomic catch-up
      steps, the source performs {e the same} atomic event (same
      access, mode, location, values — outputs must match exactly);
      [D] must be empty, the switch bit turns on, and [I] together
      with the structural [wf] conditions on [φ] must hold over the
      resulting memories;
    - {b promise step} (Fig. 14(c)): the source promises a write with
      the same location and value, [φ] is extended, and [I] must be
      re-established (switch bits on).

    Termination: when the target thread is finished with an empty
    promise set, the source must wind down to a finished, promise-free
    state with [D] empty and [I] re-established.

    The game is solved coinductively (greatest fixpoint): a state
    revisited along the current path is assumed to satisfy the
    simulation, and the depth budget makes the whole search bounded —
    exhausting it yields [Unknown], never a spurious verdict.  Refuted
    states are memoized, and so are proven ones whose proof rested on
    no assumption about a state above them on the path (the taint
    discipline of {!Explore.Enum}): such an assumption may still prove
    false.

    This is the paper's simulation with the environment instantiated
    to the empty rely (the thread runs in isolation): it exercises
    every diagram, [φ]/[D] bookkeeping rule and invariant check of
    Sec. 6, while parallel contexts are covered by the whole-program
    refinement checker {!Explore.Refine} — DESIGN.md discusses the
    substitution. *)

type config = {
  max_depth : int;
  src_burst : int;  (** max source NA steps per response *)
  wind_down : int;  (** max source steps to finish at termination *)
  max_promises : int;  (** target promise steps explored *)
}

val default_config : config

type verdict =
  | Holds
  | Fails of string  (** which diagram failed, human-readable *)
  | Unknown of string  (** budget exhausted *)

val check :
  ?config:config ->
  ?scenarios:Scenario.t list ->
  inv:Invariant.t ->
  atomics:Lang.Ast.VarSet.t ->
  target:Lang.Ast.code ->
  source:Lang.Ast.code ->
  Lang.Ast.fname ->
  verdict
(** [check ~inv ~atomics ~target ~source f]: does
    [I, ι |= (π_t, f) ≼ (π_s, f)] hold on the bounded game?  The game
    is played once per environment {!Scenario} (plus once with no
    interference); all must hold.  Always plays; recorded as one
    [sim.game] span (cat [sim]). *)

val check_program :
  ?config:config ->
  inv:Invariant.t ->
  target:Lang.Ast.program ->
  source:Lang.Ast.program ->
  unit ->
  (Lang.Ast.fname * verdict) list
(** Play {!check} for every thread entry function (Def. 6.1
    quantifies over the functions threads run), each against the
    {!Scenario}s of the source's other threads.  Every function gets
    its game, changed or not. *)

val identity :
  target:Lang.Ast.program -> source:Lang.Ast.program -> Lang.Ast.fname -> bool
(** The identity rule: [f]'s call closure — [f] and every function
    reachable from it through [call] — is the same code in both
    programs, and the programs have the same atomics.  The identity is
    then a simulation for [f] (docs/SEMANTICS.md, "Unchanged
    functions"): the source answers every target step with the same
    step, so both memories stay equal, [D] empties within each move
    and [φ] stays the identity. *)

val check_changed :
  ?config:config ->
  inv:Invariant.t ->
  target:Lang.Ast.program ->
  source:Lang.Ast.program ->
  unit ->
  (Lang.Ast.fname * verdict) list
(** {!check_program} under the identity rule: a function {!identity}
    answers gets [Holds] and no game (no scenarios are built for it);
    the others play their game.  Answers are counted in
    [psopt_sim_functions_total{answer="identity"|"game"}]; each game
    {!check} plays is a [sim.game] span. *)

val pp_verdict : Format.formatter -> verdict -> unit
