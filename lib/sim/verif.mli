(** Verified optimizers (Def. 6.3) and the correctness pipeline
    (Sec. 2.6, Fig. 6), in executable form.

    The paper defines [Verif(Opt)]: for every source [π_s] there is an
    invariant [I] with [I, ι |= Opt(π_s) ≼ π_s]; Theorem 6.5 then
    gives [Correct(Opt)] — refinement for every write-write race-free,
    safe source program.  Here each optimizer is registered with the
    invariant its simulation uses (the paper's Sec. 7 choices:
    ConstProp/CSE/LInv with [Iid], DCE with [Idce], LICM composed of
    verified passes), and [check] runs the whole proof path of Fig. 6
    on one concrete program:

    + ww-RF of the source (premise of Theorem 6.5, checked, not
      assumed);
    + the thread-local simulation for every thread function
      (Def. 6.1): the identity for a function whose call closure the
      pass left as it was ({!Simcheck.identity}), a game for the
      others;
    + whole-program refinement of the bounded behaviour sets (the
      conclusion, checked independently);
    + ww-RF of the target (Lemma 6.2's preservation conclusion).

    A [Fail _] in any stage names the stage — which is exactly how the
    paper's counterexamples (Figs. 1 and 15) surface.

    The stages share explorations (docs/SEMANTICS.md, "One walk per
    program"): when the pass leaves the program unchanged, refinement
    holds by reflexivity and the target's ww-RF is the source's, so
    the source's race scan is the only walk and no simulation game is
    played; otherwise, without
    reduction, the target's behaviour walk also decides its ww-RF, for
    three walks in all.  With reduction on, the four stages walk
    separately.  The verdict is the same either way. *)

type stage =
  | Source_ww_rf
  | Simulation of Lang.Ast.fname
  | Refinement
  | Target_ww_rf

type verdict = Verified | Fail of stage * string | Inconclusive of string

type registered = {
  name : string;
  transform : Lang.Ast.program -> Lang.Ast.program;
  invariant : Invariant.t;
}

val registry : registered list
(** constprop, dce, cse, copyprop, linv, licm, cleanup — each with the
    invariant its simulation uses. *)

val find : string -> registered option

val check :
  ?sim_config:Simcheck.config ->
  ?explore_config:Explore.Config.t ->
  registered ->
  Lang.Ast.program ->
  verdict
(** Run the full Fig. 6 pipeline of [registered] on one program. *)

val pp_verdict : Format.formatter -> verdict -> unit
val pp_stage : Format.formatter -> stage -> unit
