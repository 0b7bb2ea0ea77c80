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
    committed states enumerated by {!Explore.Enum.iter_reachable}
    (every thread is checked at every committed state; the [(sw-step)]
    rule makes each of them the current thread of a reachable state
    with the same memory).

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

val rw_races :
  ?config:Explore.Config.t -> Lang.Ast.program -> (race list, string) result
(** All distinct read-write race points found (by thread and
    location). *)

val is_ww_rf : ?config:Explore.Config.t -> Lang.Ast.program -> bool

type report = {
  ww : (verdict, string) result;
  ww_np : (verdict, string) result;
  rw : (race list, string) result;
}
(** The three scans bundled: interleaving ww, non-preemptive ww, rw. *)

val check_all : ?config:Explore.Config.t -> Lang.Ast.program -> report
(** Run all three scans — [ww_rf], [ww_nprf], [rw_races] — as
    independent pool tasks when [config.domains > 1], at the width
    {!Explore.Pool.split} gives (the walks themselves are
    single-domain; this parallelizes across scans). *)

val pp_race : Format.formatter -> race -> unit
val pp_verdict : Format.formatter -> verdict -> unit
