(** The timestamp mapping [φ ∈ (Var × Time) ⇀ Time] (Fig. 12),
    relating "to"-timestamps of target messages to source
    timestamps. *)

type t

val empty : t

val init : Lang.Ast.var list -> t
(** [φ0 = {(x, 0) ↦ 0 | x ∈ Var}]: initialization messages map to
    initialization messages. *)

val find : Lang.Ast.var -> Ps.Time.t -> t -> Ps.Time.t option
val add : Lang.Ast.var -> Ps.Time.t -> Ps.Time.t -> t -> t

val mon : t -> bool
(** [mon(φ)]: strictly increasing on timestamps, per location. *)

val dom_covers : Ps.Memory.t -> t -> bool
(** [dom(φ) = ⌊M_t⌋]: the domain is exactly the (var, "to") pairs of
    the concrete messages of the target memory. *)

val image_in : Ps.Memory.t -> t -> bool
(** [φ(M_t) ⊆ ⌊M_s⌋] — here checked as: every timestamp in the image
    of [φ] names a concrete message of the given (source) memory. *)

val is_identity_on : Ps.Memory.t -> t -> bool
(** Every concrete message of the memory maps to its own timestamp —
    the [Iid] shape. *)

val renumber : (Lang.Ast.var -> Ps.Time.t -> Ps.Time.t) -> t -> t
(** Keys and values through one map ({!Ps.Memory.apply}): the one that
    renumbers both sides of the game, so cross-side equalities such as
    [Iid]'s [φ = id] survive.  [m] itself when it moves nothing. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
