(** The stepping engine: machine state reconstructed at any step of a
    recorded trace by snapshot-plus-replay.

    Loading validates the whole trace once — every record's [(kind,
    choice)] is applied through {!Explore.Stepper.apply} and its event
    cross-checked — and captures a keyframe (an in-memory machine
    state) every [keyframe_every] steps.  After that, [jump n] replays
    at most [keyframe_every - 1] steps from the nearest snapshot at or
    below [n] (or continues from the current position when that is
    closer), so navigation is O(K), not O(n) — the cost model of
    docs/REPLAY.md.  {!replayed_steps} counts every step re-executed
    since load, which is how the O(K) bound is asserted in tests. *)

type t

val load : ?keyframe_every:int -> string -> (t, Store.error) result
(** Read ({!Store.read}), validate and index the trace at a path
    ([keyframe_every] defaults to 16; it must be positive).  Fails
    with the store's error, or with [Corrupt_record] if some record
    does not apply from its pre-state or applies to a different event
    than recorded. *)

val header : t -> Trace.header
val length : t -> int
(** Number of steps; positions run from [0] (initial state) to
    [length]. *)

val pos : t -> int
val state : t -> Explore.Stepper.state
val world : t -> Ps.Machine.world

val record_at : t -> int -> Trace.record option
(** The step taken from position [n] (so [record_at t (pos t)] is the
    {e next} step; [None] at the end). *)

val jump : t -> int -> (unit, string) result
val step : t -> (Trace.record option, string) result
(** Advance one step; returns the record crossed ([Ok None] at the
    end). *)

val back : t -> (Trace.record option, string) result
(** Retreat one step; returns the record un-done ([Ok None] at 0). *)

val replayed_steps : t -> int
(** Total steps re-executed since load (excluding the validation
    pass): the measured cost of all navigation so far. *)

val find_from : t -> from:int -> f:(Trace.record -> bool) -> int option
(** First record number [>= from] satisfying [f]. *)
