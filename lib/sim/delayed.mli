(** The delayed write set [D] (Sec. 6.2, Fig. 13).

    [D] maps each non-atomic write performed by the target but not yet
    matched by the source to a well-founded index; the simulation
    decreases the indexes of pending items on every source step that
    does not discharge them, forcing the source to catch up within
    finitely many steps — this is what makes the simulation preserve
    write-write race freedom.

    Executably, indexes are countdown budgets initialized to
    [initial_index]; {!decrease} fails (returns [None]) when a pending
    item's budget is exhausted, exactly refuting the existence of a
    well-founded index assignment within that bound. *)

type t

val empty : t
val is_empty : t -> bool

val initial_index : int

val record_target_write :
  ?index:int -> Lang.Ast.var -> Ps.Time.t -> t -> t
(** The (tgt-D) rule: the target performed the non-atomic write
    identified by [(x, t)] (a fresh message or a fulfilled promise). *)

val oldest_on : Lang.Ast.var -> t -> Ps.Time.t option
(** The pending target write on [x] that a source write to [x] would
    discharge (lowest timestamp first). *)

val discharge : Lang.Ast.var -> t -> t
(** The (src-D) rule: the source performed a non-atomic write to [x];
    the pending item on [x] (if any) is removed.  The paper identifies
    delayed items by [(x, t)]; since a source thread's writes to the
    same location discharge them in order, matching by location is
    equivalent for the checker's purposes. *)

val decrease : t -> t option
(** [D' < D]: same domain, all indexes strictly decreased; [None]
    when some index hits zero. *)

val size : t -> int
val renumber : (Lang.Ast.var -> Ps.Time.t -> Ps.Time.t) -> t -> t
(** Every key through the game's map ({!Ps.Memory.apply}); [d] itself
    when it moves none. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
