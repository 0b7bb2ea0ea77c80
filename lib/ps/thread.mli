(** Thread states and the PS2.1 thread-step relation
    [ι ⊢ (TS, M) --te--> (TS', M')] (Sec. 3).

    A thread state [TS = (σ, V, P)] holds the local state, the thread
    view and the promise set.  Following footnote 1 of the paper (and
    its Coq artifact), we also model fences; this adds two auxiliary
    views: [vacq] accumulates the message views observed by relaxed
    reads (an acquire fence folds it into [V]), and [vrel] is the view
    frozen by the last release fence (relaxed writes stamp it on their
    messages).  Programs without fences never move either away from
    [V⊥]/[⊥], and the state degenerates to the paper's [(σ, V, P)].

    [steps] enumerates every possible next non-promise step — reads
    enumerate readable messages, writes enumerate canonical slots and
    fulfillable promises (see {!Memory} on why this enumeration is
    finite and complete).  Promise and reservation steps are enumerated
    separately so that callers (the machines, certification) control
    where they are allowed. *)

type ts = {
  local : Local.t;
  view : View.t;
  vacq : View.t;  (** accumulated acquire view (fence support) *)
  vrel : View.t;  (** view frozen at the last release fence *)
  vrel_loc : View.t Lang.Ast.VarMap.t;
      (** per-location release views (release sequences): a release
          write to [x] records its message view here, and later
          relaxed writes to [x] carry it; updates additionally inherit
          the view of the message they read from, extending release
          sequences through RMW chains *)
  prm : Message.t list;  (** the promise set [P], sorted *)
}

val init : Lang.Ast.code -> Lang.Ast.fname -> ts option
(** Initial thread state [((σ, V⊥, ∅))] for a thread running [f]. *)

val compare : ts -> ts -> int

val equal : ts -> ts -> bool
(** [compare a b = 0]; allocation-free except as {!Share.Map.equal} says. *)

val hash : ts -> int
(** Consistent with {!equal}; mixes the local state, all views and
    the promise set. *)

val pp : Format.formatter -> ts -> unit

val renumber : (Lang.Ast.var -> Time.t -> Time.t) -> ts -> ts
(** Every view and promise through a per-location timestamp map
    ({!Memory.apply}).  A monotone map keeps the promise set sorted.
    The argument itself when the map moves none of its timestamps. *)

val canonical : ts -> Memory.t -> ts * Memory.t
(** A lone thread and its memory renumbered into canonical form
    ({!Memory.renumbering}); [ts] and [mem] themselves when the memory
    is already canonical. *)

val concrete_promises : ts -> Message.t list
val has_promise_on : Lang.Ast.var -> ts -> bool

val is_terminal : ts -> bool
(** Finished and no outstanding concrete promise. *)

type step = { event : Event.te; ts : ts; mem : Memory.t }

val steps : code:Lang.Ast.code -> ts -> Memory.t -> step list
(** All non-[PRC] steps: local computation, jumps, reads, writes
    (fresh and promise-fulfilling), CAS, fences, output. *)

val promise_steps :
  candidates:(Lang.Ast.var * Lang.Ast.value) list ->
  atomics:Lang.Ast.VarSet.t ->
  ts ->
  Memory.t ->
  step list
(** Promise steps for the candidate location/value pairs.  Only
    non-atomic and relaxed writes can be promised (Sec. 3), i.e.
    promises carry the bottom message view; release writes are never
    promisable. *)

val reserve_steps : ts -> Memory.t -> step list
(** Reservations attached behind each concrete message. *)

val cancel_steps : ts -> Memory.t -> step list
(** Cancellation of each owned reservation. *)

val writes_in_code : code:Lang.Ast.code -> ts -> (Lang.Ast.var * Lang.Ast.value) list
(** Syntactic over-approximation helper for promise candidates: the
    [(x, v)] pairs of store instructions with constant right-hand sides
    reachable from the thread's current position (callees included).
    The explorer combines this with semantic candidates gathered from
    certification runs. *)
