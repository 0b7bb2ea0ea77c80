(** Crash-safe batch stress runner: seeded random CSimpRTL programs
    fed through an optimize-then-verify cycle under per-case deadlines,
    with bounded budget-escalating retries and an [Internal]-error
    quarantine (docs/ROBUSTNESS.md).

    The verification pipeline itself lives above this library
    ([Sim.Verif]), so the runner is parameterized over a [check]
    callback; [bin/psopt.ml]'s [stress] subcommand wires the two
    together. *)

val generate : seed:int -> Lang.Ast.program
(** A small well-formed two-thread program, a pure function of
    [seed]: two non-atomic locations, one atomic flag, every access
    mode, each thread ending in a print. *)

val reduction_of_seed : int -> Config.reduction
(** The case's state-space reduction mode, a pure function of the
    seed like the program itself (the random config matrix cycles
    through off / por / symmetry / full / full+bounded-promises).
    Replaying a quarantined case means
    [generate ~seed:case_seed] under [reduction_of_seed case_seed] —
    both are also recorded in the persisted artifacts. *)

val reduction_tag : Config.reduction -> string
(** One-line rendering used in artifacts and the summary,
    e.g. ["por=true sym=false bound=none"]. *)

type case_verdict =
  | Verified
  | Refuted of string  (** includes racy-source rejections *)
  | Inconclusive of string  (** still truncated after all retries *)
  | Quarantined of string
      (** the checker crashed or reported [Errors.Internal]; the
          program was persisted as a [.sexp] artifact *)

type case_result = {
  id : int;
  case_seed : int;  (** regenerate with {!generate}[ ~seed:case_seed] *)
  attempts : int;  (** 1 + retries used *)
  verdict : case_verdict;
  reduction : Config.reduction;
      (** the mode the case ran under ([reduction_of_seed case_seed]) *)
}

type summary = {
  cases : int;
  verified : int;
  refuted : int;
  inconclusive : int;
  quarantined : int;
  results : case_result list;  (** in case order *)
}

val run :
  ?config:Config.t ->
  ?retries:int ->
  ?quarantine_dir:string ->
  ?j:int ->
  ?on_quarantine:
    (dir:string -> base:string -> config:Config.t -> Lang.Ast.program -> unit) ->
  cases:int ->
  seed:int ->
  deadline_ms:int ->
  check:
    (config:Config.t ->
    Lang.Ast.program ->
    [ `Verified | `Refuted of string | `Inconclusive of string ]) ->
  unit ->
  summary
(** Run [cases] seeded cases (seeds [seed..seed+cases-1]).  Each case
    runs [check] with a config whose [max_steps] and [deadline_ms]
    double on every retry (at most [retries] extra attempts, default
    2, taken only while the verdict is inconclusive) and whose
    [reduction] is overridden with {!reduction_of_seed} — the random
    config matrix covers every reduction mode.  A case whose
    checker raises anything but [Errors.Budget_exhausted] is
    quarantined: the program and the reason are persisted under
    [quarantine_dir] (default [_stress_quarantine]).  [on_quarantine]
    (if given) then runs once per quarantined case with the directory,
    the artifact base name, the exact config the case ran under
    (reduction override included) and the program — [bin/psopt.ml]
    uses it to drop a replayable [.trace] next to the [.sexp]
    (docs/REPLAY.md); exceptions it raises are swallowed.

    [j] (default 1) is the domain budget, split by {!Pool.split}:
    whole cases are dispatched across [min j cases] domains, and each
    case's own explorations get the remainder ([config.domains] is
    overridden).
    Per-case verdicts are a pure function of the seed, so the summary
    is identical at every [j].

    Crash safety: the in-flight program is written to
    [<quarantine_dir>/inflight.sexp] ([inflight-<case>.sexp] per case
    under parallel dispatch) before its check starts and removed
    after, so a hard crash of the whole process still leaves the
    offending case(s) on disk. *)

val pp_case_verdict : Format.formatter -> case_verdict -> unit
val pp_summary : Format.formatter -> summary -> unit
