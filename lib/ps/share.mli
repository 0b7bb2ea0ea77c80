(** Sharing-preserving maps and allocation-free equalities for the
    machine-state stack ({!Local}, {!View}, {!Message}, {!Memory},
    {!Thread}, {!Machine}).

    The explorer's hashed tables ({!Explore.Enum}) compare states that
    are usually equal and largely shared: two interleavings reaching
    one world leave most of it physically the same.  So every [equal]
    tries [==] first and then walks the structure, allocating nothing
    unless two equal maps differ in shape (where [Map.equal] and
    [Map.compare] allocate an enumeration per call), and every
    renumbering returns what it did not move physically unchanged, so
    that the [==] tests keep succeeding across a step's
    canonicalization. *)

module Map (M : Stdlib.Map.S) : sig
  val equal : ('a -> 'a -> bool) -> 'a M.t -> 'a M.t -> bool
  (** [M.equal eq], for an [eq] that holds of structurally equal
      values: [==] first, then identical trees (allocation-free), and
      only for differently shaped trees the same number of bindings
      with each binding of one found with an [eq] value in the other
      (one closure, no enumeration). *)

  val mapi : (M.key -> 'a -> 'a) -> 'a M.t -> 'a M.t
  (** [M.mapi f m], but the bindings [f] returns physically unchanged
      stay shared, and [m] itself comes back when [f] changes none. *)
end

module Vars : module type of Map (Lang.Ast.VarMap)
(** For the maps keyed by locations and registers. *)

val list_equal : ('a -> 'a -> bool) -> 'a list -> 'a list -> bool
(** [List.equal eq], with [==] first at every tail. *)

val list_map : ('a -> 'a) -> 'a list -> 'a list
(** [List.map f l], sharing the longest tail [f] returns physically
    unchanged; [l] itself when [f] changes no element.  Not
    tail-recursive: for the short lists of one location or one promise
    set. *)
