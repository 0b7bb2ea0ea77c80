(** Memory messages (Fig. 8).

    A concrete message [⟨x : v@(f, t], V⟩] records a write of value [v]
    to [x] over the timestamp interval [(f, t]] with message view [V];
    a reservation [⟨x : (f, t]⟩] blocks an interval without carrying a
    value.  The initialization message of every location is
    [⟨x : 0@(0, 0], V⊥⟩]: its interval is the single point 0, and it is
    the only message allowed to have [f = t]. *)

type t =
  | Msg of {
      var : Lang.Ast.var;
      value : Lang.Ast.value;
      from_ : Time.t;
      to_ : Time.t;
      view : View.t;
    }
  | Rsv of { var : Lang.Ast.var; from_ : Time.t; to_ : Time.t }

val msg :
  var:Lang.Ast.var ->
  value:Lang.Ast.value ->
  from_:Time.t ->
  to_:Time.t ->
  view:View.t ->
  t

val rsv : var:Lang.Ast.var -> from_:Time.t -> to_:Time.t -> t

val init : Lang.Ast.var -> t
(** [⟨x : 0@(0,0], V⊥⟩]. *)

val var : t -> Lang.Ast.var
val from_ : t -> Time.t
val to_ : t -> Time.t
val value : t -> Lang.Ast.value option
val view : t -> View.t option
val is_concrete : t -> bool
val is_reservation : t -> bool

val overlaps : t -> t -> bool
(** Two messages of the same location overlap if their half-open
    intervals [(f, t]] intersect.  The zero-width initialization
    interval [(0, 0]] never overlaps anything. *)

val equal : t -> t -> bool
(** [compare a b = 0]; allocation-free except as {!Share.Map.equal} says. *)

val compare : t -> t -> int

val hash : t -> int
(** Consistent with {!equal}; mixes the location, interval, value and
    message view. *)

val renumber : (Lang.Ast.var -> Time.t -> Time.t) -> t -> t
(** The interval and the message view through a per-location
    timestamp map ({!Memory.apply}); the argument itself when the map
    moves nothing in it. *)

val pp : Format.formatter -> t -> unit
