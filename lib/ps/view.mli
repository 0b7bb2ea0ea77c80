(** Time maps and views (Fig. 8 of the paper).

    A time map [T ∈ Var → Time] records, per location, a timestamp;
    absent locations implicitly map to timestamp 0 (the timestamp of
    the initialization message).  A thread view [V = (Tna, Trlx)] keeps
    two time maps: the most recent write the thread has observed with
    non-atomic reads and with relaxed/acquire reads respectively.
    Message views use the same structure. *)

module TimeMap : sig
  type t

  val bot : t
  (** [T⁰ = {x ↦ 0 | x ∈ Var}], represented sparsely. *)

  val get : Lang.Ast.var -> t -> Time.t
  val set : Lang.Ast.var -> Time.t -> t -> t

  val join : t -> t -> t
  (** Pointwise maximum [T1 ⊔ T2]. *)

  val le : t -> t -> bool
  (** Pointwise order. *)

  val equal : t -> t -> bool
  (** [compare a b = 0]; allocation-free except as {!Share.Map.equal} says. *)

  val compare : t -> t -> int

  val hash : t -> int
  (** Consistent with {!equal} (folds bindings in key order). *)

  val bindings : t -> (Lang.Ast.var * Time.t) list

  val renumber : (Lang.Ast.var -> Time.t -> Time.t) -> t -> t
  (** Maps every binding through a per-location timestamp map that
      fixes 0 ({!Memory.apply}); the argument itself when the map
      moves none of its timestamps. *)

  val pp : Format.formatter -> t -> unit
end

type t = { na : TimeMap.t; rlx : TimeMap.t }
(** Invariant maintained by the semantics: [na ⊑ rlx] — a relaxed
    observation subsumes non-atomic knowledge.  (Non-atomic reads
    consult [na]; relaxed and acquire reads consult [rlx].) *)

val bot : t
(** [V⊥ = (T⁰, T⁰)]. *)

val join : t -> t -> t
val le : t -> t -> bool

val equal : t -> t -> bool
(** [compare a b = 0]; allocation-free except as {!Share.Map.equal} says. *)

val compare : t -> t -> int

val hash : t -> int
(** Consistent with {!equal}. *)

val read_ts : Lang.Modes.read -> Lang.Ast.var -> t -> Time.t
(** The lower bound the semantics imposes on the timestamp of a
    message read from [x]: [Tna(x)] for [na] reads, [Trlx(x)] for
    [rlx]/[acq] reads. *)

val observe_read : Lang.Modes.read -> Lang.Ast.var -> Time.t -> t -> t
(** View update after reading a message of [x] with "to"-timestamp
    [t]: non-atomic reads record [t] in [Trlx] only, atomic reads in
    both maps (Sec. 3, read step). *)

val observe_write : Lang.Ast.var -> Time.t -> t -> t
(** View update after writing [x] at timestamp [t]: both maps. *)

val renumber : (Lang.Ast.var -> Time.t -> Time.t) -> t -> t
(** Both time maps through {!TimeMap.renumber}; the argument itself
    when neither moves. *)

val pp : Format.formatter -> t -> unit

val delta :
  prev:t -> t -> (Lang.Ast.var * Time.t option * Time.t option) list
(** The locations whose [na]/[rlx] timestamp changed between [prev]
    and the new view, with the new value per changed component.  Empty
    iff the views are equal. *)

val pp_delta : prev:t -> Format.formatter -> t -> unit
(** Renders {!delta} as [x: na->t rlx->t', ...] (["(unchanged)"] when
    empty) — the per-step view annotation of the replay debugger. *)
