(** The global memory [M]: all historical writes as time-stamped
    messages, per location (Fig. 8), with the operations the thread
    steps need — readable-message lookup, disjoint insertion, gap
    ("slot") enumeration for fresh writes, and the capped memory
    [M̂] used by promise certification (Sec. 3).

    Representation: a map from location to its messages sorted by
    "to"-timestamp.  Invariant: intervals of one location are pairwise
    disjoint ({!Message.overlaps}); every location present carries its
    initialization message [⟨x:0@(0,0],V⊥⟩].

    {2 Canonical slotting}

    Timestamps are dense in PS2.1, so "choose a fresh disjoint
    interval" has infinitely many solutions.  Only the relative order
    of messages and exact endpoint adjacency (for CAS/reservations) are
    observable, so {!write_slots} enumerates one canonical
    representative per distinguishable placement: a detached interval
    strictly inside every gap (leaving room on both sides for later
    writes, CAS and reservations of other threads) and one after the
    last message.  Exact adjacency, which CAS and reservations require,
    is provided separately by {!attach_slot}.  This finitization is
    what makes bounded-exhaustive exploration of PS2.1 possible
    (DESIGN.md, "Canonical timestamp slotting").

    {2 Integer timestamps}

    For the same reason a timestamp is a plain [int] ({!Time}).  In
    canonical form the sorted distinct endpoints of each location are
    [0, K, 2K, …] with [K = ]{!Time.grid}; the slot constants sit on
    that grid (the after-slot is [(last+K, last+2K)], a free tail
    [(after, after+K)], the cap [(t, t+K)]), and a gap's middle third
    and midpoint are integers.  A step may leave endpoints off the
    grid; {!renumbering} and {!renumber} map them back to their ranks,
    which changes no order and no adjacency.  Order-isomorphic
    memories thus have one representation.  Slot functions require
    every gap to be a multiple of [K], which canonical form (and any
    number of appends to it) guarantees. *)

type t

val init : Lang.Ast.var list -> t
(** Memory [M0] holding the initialization message of each listed
    location. *)

val vars : t -> Lang.Ast.var list
val messages : t -> Message.t list

val per_loc : Lang.Ast.var -> t -> Message.t list
(** Messages of [x] sorted by "to"-timestamp (empty if unknown). *)

val concrete : Lang.Ast.var -> t -> Message.t list

val find : Lang.Ast.var -> Time.t -> t -> Message.t option
(** Message of [x] with the given "to"-timestamp. *)

val contains : Message.t -> t -> bool

val add : Message.t -> t -> (t, Message.t) result
(** [add m mem] inserts [m]; [Error m'] if [m] overlaps existing
    [m'].  Locations never seen before are implicitly initialized
    first, so that reads of a location always find at least the
    initialization message. *)

val add_exn : Message.t -> t -> t
val remove : Message.t -> t -> t

val readable : Lang.Modes.read -> Lang.Ast.var -> View.t -> t -> Message.t list
(** Concrete messages of [x] a thread with the given view may read:
    "to"-timestamp at least [View.read_ts mode x view]. *)

val last_ts : Lang.Ast.var -> t -> Time.t
(** Greatest "to"-timestamp of [x] (0 if only initialization). *)

val write_slots : Lang.Ast.var -> min:Time.t -> t -> (Time.t * Time.t) list
(** Canonical [(from, to]] placements for a fresh write of [x] with
    ["to" > min] (the writer's view constraint): one detached interval
    per gap plus one beyond the last message. *)

val attach_slot : Lang.Ast.var -> after:Time.t -> t -> (Time.t * Time.t) option
(** The canonical placement whose "from" is exactly [after] — as
    required for the write part of a successful CAS reading the message
    ending at [after], and for reservations.  [None] if the adjacent
    space is occupied. *)

val cap : t -> t
(** The capped memory [M̂]: every gap between two messages of the same
    location is filled by a reservation, and a cap reservation
    [⟨x:(t,t+K]⟩] is appended after the last message of every
    location. *)

val canonical : t -> bool
(** Every location's distinct endpoints are [0, K, 2K, …]: the
    allocation-free test behind {!renumbering}'s fast path. *)

type renumbering
(** A per-location monotone map from timestamps to grid ranks. *)

val renumbering : t list -> renumbering option
(** The map that sends, per location, the [i]-th of the sorted
    distinct endpoints of all the given memories to [i * K]; [None]
    when that map is the identity (in particular when every memory is
    {!canonical}).  Renumbering several memories through one map keeps
    timestamps comparable across them (the two sides of a simulation
    game). *)

val apply : renumbering -> Lang.Ast.var -> Time.t -> Time.t
(** The map itself: total, monotone, and strictly monotone on the
    endpoints it was built from.  A timestamp that is not one of them
    (that of a message the step removed) lands strictly between the
    ranks of its neighbouring endpoints. *)

val renumber : renumbering -> t -> t
(** Every interval and message view through {!apply}.  What the map
    moves nothing in stays physically shared: a message list, a
    message, or the memory itself. *)

val equal : t -> t -> bool
(** [compare a b = 0], [==] first at every level down to single
    messages; allocation-free except as {!Share.Map.equal} says. *)

val compare : t -> t -> int

val hash : t -> int
(** Consistent with {!equal}; folds locations and their message lists
    in key order.  Linear in the number of messages — the basis of the
    hashed state memoization in {!Explore}. *)

val fold : (Message.t -> 'a -> 'a) -> t -> 'a -> 'a
val pp : Format.formatter -> t -> unit

val added : ?renumbering:renumbering -> prev:t -> t -> Message.t list
(** Messages present in the new memory but not in [prev], sorted —
    the write/promise/reservation a single step performed.  (Promise
    fulfillment leaves memory unchanged: the message merely leaves the
    thread's promise set.)  [renumbering] is the step's own
    ({!Machine.install}): [prev] is read through it, so a message
    that merely moved to its new rank is not reported. *)

val removed : ?renumbering:renumbering -> prev:t -> t -> Message.t list
(** Messages of [prev] no longer present (reservation cancels), in
    [prev]'s numbering. *)
