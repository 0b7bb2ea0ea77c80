(** Promise certification (Sec. 3, "Promise certification").

    [consistent(TS, M, ι)] holds iff the thread, executing in
    isolation from the {e capped} memory [M̂], can reach a state with
    an empty promise set.  Capping models the worst-case interference
    of the environment: the thread may not slot future writes between
    existing messages, only beyond the cap — so a certification cannot
    rely on winning a timestamp race (e.g. a CAS) that another thread
    might win first.

    The search is a depth-bounded DFS over the thread-step relation
    with promise and reservation steps excluded (new obligations never
    help to discharge existing ones) and cancellation allowed.  States
    are memoized.  The default fuel (128 steps) is ample for the
    bounded programs this library explores; a certification that
    exhausts fuel is reported as inconsistent, which errs on the safe
    (fewer-behaviours) side and is flagged by {!Explore} statistics. *)

val default_fuel : int

val consistent :
  ?fuel:int -> ?cap:bool -> code:Lang.Ast.code -> Thread.ts -> Memory.t -> bool
(** [consistent ~code ts mem] — the paper's [consistent(TS, M, ι)].
    [cap:false] certifies against the plain current memory instead of
    [M̂] (used by the ablation experiment of DESIGN.md and by the
    write-write-race-freedom discussion of Sec. 2.4). *)

val consistent_stats :
  ?fuel:int ->
  ?cap:bool ->
  code:Lang.Ast.code ->
  Thread.ts ->
  Memory.t ->
  bool * int
(** {!consistent} plus the number of isolation states the search
    expanded (0 when the promise set is empty and the answer is
    immediate) — the "certification sub-steps" surfaced per step by
    the replay recorder. *)

val certifiable_writes :
  ?fuel:int ->
  ?cap:bool ->
  code:Lang.Ast.code ->
  Thread.ts ->
  Memory.t ->
  (Lang.Ast.var * Lang.Ast.value) list
(** The [(x, v)] pairs of non-atomic/relaxed write events occurring in
    any bounded isolation run of the thread from the capped memory (the
    raw memory with [~cap:false], as {!consistent}) — exactly the
    writes a certifiable promise could announce.  Used by {!Explore} to
    enumerate promise candidates. *)
