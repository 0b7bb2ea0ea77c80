(** Canonical report renderings shared by the CLI and the daemon, so
    service replies are byte-identical to direct subcommand output and
    safe to replay from the result store.

    Every function returns the rendered report together with its exit
    code in the uniform taxonomy: 0 verified / claim holds, 1 refuted
    / race, 2 inconclusive, 3 error.  The text is a pure function of
    the verdict — no stats counters, timings, pool widths or file
    paths (the cache-soundness requirement of docs/SERVICE.md). *)

val exit_ok : int
val exit_fail : int
val exit_inconclusive : int
val exit_error : int

val litmus : Litmus.t -> Litmus.result -> string * int
(** Exactly the per-test block `psopt litmus` prints: the verdict
    line, then one indented line per observed outcome. *)

val races : Race.report -> string * int
(** Exactly the race report `psopt races` prints. *)

val explore : Explore.Enum.discipline -> Explore.Enum.outcome -> string * int
(** Discipline, completeness and the behaviour set ({e without} the
    config and stats lines the CLI adds — those are not pure functions
    of the result). *)

val verify : pass:string -> Sim.Verif.verdict -> string * int
(** The Fig. 6 pipeline verdict, identified by pass name only. *)
