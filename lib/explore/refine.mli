(** Event-trace refinement checking [P_s ⊇ P_t] (Sec. 2.2).

    The soundness statement of an optimization is that the target
    program produces no observable trace the source cannot produce.
    On the bounded-exhaustive behaviour sets of {!Enum} this is a
    decidable inclusion check; both sides are explored with the same
    configuration and discipline so the comparison is apples to
    apples.

    Completed ([done]) traces are compared exactly.  [Open] prefixes
    (divergence) are compared as prefixes: an open target trace must
    be a prefix of some source trace.  If either exploration was cut
    by the step budget the verdict is downgraded to [Inconclusive]
    rather than silently trusted. *)

type verdict =
  | Refines
  | Violates of Ps.Event.trace list
      (** target traces (worst offenders first) the source cannot
          produce *)
  | Inconclusive of string

type report = {
  verdict : verdict;
  target : Enum.outcome;
  source : Enum.outcome;
}

val check :
  ?config:Config.t ->
  ?discipline:Enum.discipline ->
  target:Lang.Ast.program ->
  source:Lang.Ast.program ->
  unit ->
  report

val of_outcomes : target:Enum.outcome -> source:Enum.outcome -> verdict
(** The comparison half of {!check}, on two explorations already
    made (same configuration and discipline): [Inconclusive] when
    either is truncated, else [Refines] or [Violates] by prefix-closed
    inclusion.  Pure. *)

val refines :
  ?config:Config.t ->
  ?discipline:Enum.discipline ->
  target:Lang.Ast.program ->
  source:Lang.Ast.program ->
  unit ->
  bool
(** [true] iff the verdict is [Refines]. *)

val equivalent :
  ?config:Config.t ->
  ?discipline:Enum.discipline ->
  Lang.Ast.program ->
  Lang.Ast.program ->
  bool
(** Refinement in both directions ([P ≈ P'] on the bounded sets). *)

val equivalent_disciplines : ?config:Config.t -> Lang.Ast.program -> verdict
(** Theorem 4.1, checked: [Refines] when the interleaving and
    non-preemptive behaviour sets of one program coincide (as
    prefix-closed sets, each refining the other), [Violates] with the
    traces of one side the other lacks (interleaving's first), and
    [Inconclusive] when either exploration was truncated. *)

val safe : ?config:Config.t -> Lang.Ast.program -> bool
(** [Safe(P)] (Sec. 6.3): no execution aborts.  CSimpRTL as modelled
    here has no undefined behaviour, so every well-formed program is
    safe; the check is still performed against the explored trace set
    so that the premise of Def. 6.4 is established rather than
    assumed. *)

val pp_verdict : Format.formatter -> verdict -> unit
