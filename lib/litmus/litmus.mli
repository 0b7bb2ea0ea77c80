(** The litmus-program corpus: every example of the paper plus the
    classic weak-memory shapes, as ready-made CSimpRTL programs.

    Each program prints the registers the paper annotates, so that its
    behaviour set directly exhibits the claimed outcome.  The [expected]
    / [forbidden] output lists state the paper's claim, and the test
    suite checks them against {!Explore.Enum}. *)

type t = {
  name : string;
  descr : string;  (** where in the paper, and what it demonstrates *)
  prog : Lang.Ast.program;
  expected : Lang.Ast.value list list;
      (** sorted output multisets the paper says are observable (print
          order across threads is scheduling noise, so outcomes are
          compared as sorted multisets) *)
  forbidden : Lang.Ast.value list list;
      (** sorted output multisets the paper says must not occur *)
  needs_promises : bool;
      (** whether the expected outcomes require promise steps *)
}

val sb : t
(** Store buffering (Sec. 2.1): both threads may read 0. *)

val lb : t
(** Load buffering (Sec. 2.1): both threads may read 1, via a
    promise. *)

val lb_oota : t
(** Load buffering with a dependency ([y := r1]): the out-of-thin-air
    outcome 1/1 is forbidden — certification cannot justify the
    promise. *)

val cas_exclusive : t
(** Two concurrent CAS on the same initial value (Sec. 3): at most one
    may succeed. *)

val mp_rel_acq : t
(** Message passing with release/acquire: the acquire reader that sees
    the flag must see the payload. *)

val mp_rlx : t
(** Message passing with relaxed flag: stale payload observable. *)

val fig1_foo : t
(** Fig. 1 source: LICM's soundness counterexample context — [foo() ∥
    g()] with an acquire flag read; [r2 = 0] is forbidden. *)

val fig1_foo_opt : t
(** Fig. 1 target [foo_opt() ∥ g()]: hoisting the read of [y] makes
    [r2 = 0] observable — the refinement violation of Fig. 1. *)

val fig1_foo_rlx : t
(** Fig. 1 source with the acquire read weakened to relaxed: now
    [r2 = 0] is observable already in the source, so the hoisting
    becomes sound. *)

val fig1_foo_opt_rlx : t
(** Fig. 1 target with the relaxed flag read. *)

val reorder_src : t
(** (Reorder) source (Sec. 2.3): [r := x_na; y_na := 2] with an
    observer. *)

val reorder_tgt : t
(** (Reorder) target: [y_na := 2; r := x_na]. *)

val fig4 : t
(** Fig. 4: the subtle non-ww-race program (races are only checked
    when promises certify). *)

val fig15_src : t
(** Fig. 15 source: DCE across a release write would be unsound; the
    source keeps both writes to [y]. *)

val fig15_bad_tgt : t
(** Fig. 15's incorrect target: first write to [y] eliminated across
    the release write; observer can print 0, which the source never
    does. *)

val fig16_src : t
(** The two-writes example of Fig. 16: [x_na := 1; x_na := 2]. *)

val fig16_tgt : t
(** Its DCE target: [skip; x_na := 2]. *)

val coherence : t
(** Per-location coherence: after reading 2 from [x], a thread cannot
    read an older write. *)

val corw : t
(** Read-own-write coherence: the writer cannot read back the initial
    value. *)

val lb_ctrl_dep : t
(** LB with a control dependency guarding the write: promising it
    would be out-of-thin-air — forbidden. *)

val lb_ctrl_indep : t
(** The inverted branch: the promise certifies, the reader may see it,
    and reading it back at the promiser strands the promise. *)

val release_seq : t
(** A relaxed write after a release write to the same location carries
    the release view (release sequences). *)

val release_seq_rmw : t
(** Release sequences extend through RMW steps by other threads. *)

val spinlock : t
(** A CAS spinlock protecting a non-atomic counter: mutual exclusion
    and ww-race freedom through lock synchronization. *)

val mp_fences : t
(** Message passing through a release fence + relaxed write and a
    relaxed read + acquire fence (footnote 1's fence semantics). *)

val iriw : t
(** IRIW with release/acquire accesses: the split outcome is
    observable in PS (forbidding it needs SC accesses, which PS2.1 —
    and this reproduction — excludes). *)

val wrc : t
(** Write-to-read causality: release/acquire chains compose. *)

val ww_racy : t
(** Two threads write the same non-atomic location with no
    synchronization: the canonical write-write race ([ww-RF] fails). *)

val ww_sync : t
(** The same two writes ordered by release/acquire message passing:
    write-write race free. *)

val fig5_src : t
(** Fig. 5(b) source: the loop body reads [x] only under the acquire
    guard, so the source has no read-write race. *)

val fig5_tgt : t
(** Fig. 5(b) target (after LInv): the hoisted read of [x] races with
    [g()]'s unsynchronized write — yet the transformation is sound
    (the racy read's value is never used). *)

val all : t list
(** The whole corpus (used by equivalence and race experiments). *)

val find : string -> t
(** @raise Not_found on unknown name. *)

(** The paper's claim, checked against the explorer. *)
type verdict =
  | Pass
  | Mismatch of {
      unexpected : Lang.Ast.value list list;
          (** forbidden outcomes that were observed — decisive even on
              a truncated exploration (observed means producible) *)
      missing : Lang.Ast.value list list;
          (** expected outcomes that never showed up *)
    }
  | Inconclusive of string
      (** the exploration was truncated and no forbidden outcome was
          observed: absence claims cannot be trusted *)

type result = {
  verdict : verdict;
  observed : Lang.Ast.value list list;
      (** sorted output multisets of completed traces *)
}

val check : ?config:Explore.Config.t -> t -> result

val check_all :
  ?config:Explore.Config.t -> ?j:int -> unit -> (t * result) list
(** Check the whole corpus, one program per {!Explore.Pool} task.
    [j] (default [config.domains]) is the domain budget, split by
    {!Explore.Pool.split}; results are in corpus order and identical
    at every [j]. *)

val pp_verdict : Format.formatter -> verdict -> unit

val interleaved_worlds : unit -> Ps.Machine.world * Ps.Machine.world
(** Two equal worlds reached by different interleavings of one
    two-thread program: each thread runs its four steps (two local
    assignments, two stores to its own locations), thread 0 first in
    one world and thread 1 first in the other, and both end on thread
    1.  They share no message list, so {!Ps.Machine.equal} walks them:
    the pair the allocation test of [Machine.equal] and the bench's
    [ps_machine_equal] timing both measure. *)
