(** Write-write race freedom (Sec. 5, Fig. 11) and read-write race
    reporting (Sec. 2.5).

    A machine state [W = (TP, t, M)] {e generates a write-write race}
    when some thread's next operation is a non-atomic write to [x]
    while the memory holds a concrete message on [x], outside the
    thread's own promise set, that the thread has not observed
    ([V.Trlx(x) < m.to]).  [ww-RF(P)] holds when no reachable machine
    state generates one.

    The subtlety of Fig. 4 is reachability: machine states are reached
    by machine steps, and a [(τ-step)] must end in a {e consistent}
    configuration — so races are checked "only when promises are
    certified".  We therefore evaluate the predicate exactly at the
    committed states enumerated by {!Explore.Enum.iter_reachable}, or
    expanded by an observed {!Explore.Enum.behaviors} walk
    ({!behaviors_ww_rf}) (every thread is checked at every committed
    state; the [(sw-step)] rule makes each of them the current thread
    of a reachable state with the same memory).

    [ww-NPRF] is the same predicate over the non-preemptive machine
    (Lemma 5.1 asserts it equivalent to [ww-RF]; experiment E10 checks
    that on the corpus).

    Read-write races are {e not} errors — sound optimizations
    introduce them (LInv, Sec. 2.5) — but they are worth reporting;
    {!rw_races} detects them with the mirror-image predicate on
    non-atomic reads. *)

type kind = WW | RW

type race = {
  kind : kind;
  tid : int;  (** the thread about to perform the non-atomic access *)
  var : Lang.Ast.var;
  message : Ps.Message.t;  (** the unobserved concurrent write *)
}

val race_at : kind -> Ps.Machine.world -> race option
(** Evaluate the race predicate at one machine state (all threads). *)

type verdict =
  | Free
  | Racy of race
  | Inconclusive of string
      (** no race found, but the reachability walk was truncated
          (budget, deadline or injected fault) — race freedom cannot
          be claimed.  [Racy] by contrast is always trustworthy: the
          racy state was genuinely reached. *)

val ww_rf :
  ?config:Explore.Config.t -> Lang.Ast.program -> (verdict, string) result
(** [ww-RF]: write-write race freedom over the interleaving machine. *)

val ww_nprf :
  ?config:Explore.Config.t -> Lang.Ast.program -> (verdict, string) result
(** [ww-NPRF]: the non-preemptive counterpart. *)

val behaviors_ww_rf :
  ?config:Explore.Config.t ->
  Lang.Ast.program ->
  (Explore.Enum.outcome * verdict, string) result
(** The interleaving behaviour set and [ww-RF] from one walk:
    {!Explore.Enum.behaviors} observing the race predicate at every
    committed state it expands.  The first race in depth-first order
    is kept and the walk runs on, so the behaviour set is complete.
    When the outcome is [Exhaustive] the walk expanded every
    reachable state, and the verdict (witness included) is the one
    {!ww_rf} gives; when it is truncated and no race was seen, the
    verdict is [Inconclusive].  Runs on one domain; requires
    [config.reduction = Explore.Config.no_reduction]. *)

val rw_races :
  ?config:Explore.Config.t -> Lang.Ast.program -> (race list, string) result
(** All distinct read-write race points found (by thread and
    location).  Over a truncated walk the list may be incomplete;
    {!check_all} reports that. *)

val is_ww_rf : ?config:Explore.Config.t -> Lang.Ast.program -> bool

type report = {
  ww : (verdict, string) result;
  ww_np : (verdict, string) result;
  rw : (race list * Explore.Enum.completeness, string) result;
      (** the rw race points and the completeness of the walk that
          found them: over a [Truncated] walk an empty list is not a
          claim of rw freedom *)
}
(** The three verdicts bundled: interleaving ww, non-preemptive ww, rw. *)

val check_all : ?config:Explore.Config.t -> Lang.Ast.program -> report
(** The three verdicts from two walks: one interleaving walk evaluates
    both the ww and the rw predicate (its ww verdict and witness are
    {!ww_rf}'s, its rw list {!rw_races}'), and {!ww_nprf} is the
    other.  The two run as pool tasks when [config.domains > 1], at
    the width {!Explore.Pool.split} gives (the walks themselves are
    single-domain). *)

val pp_race : Format.formatter -> race -> unit
val pp_verdict : Format.formatter -> verdict -> unit
