(** The on-disk trace store: a magic line, then the header and each
    step record as one {!Service.Frame} (a 20-byte binary header — the
    payload's 4-byte big-endian length and 16-byte MD5 — then the
    payload, an s-expression), with a sidecar index mapping step
    number, thread id, step kind and location to file offsets
    (docs/REPLAY.md).

    {v
    psopt-replay/2
    <frame: header sexp>
    <frame: step-0 sexp>
    …
    v}

    {!write_all} builds the file in memory and publishes it in one
    shot ({!Service.Frame.publish}) — a crash mid-write never leaves a
    half-written trace under the final name.  The index
    ([<path>.idx], one frame) is advisory: it records the data file's
    byte size, so a missing, unreadable, stale or damaged index is
    detected and silently rebuilt by scanning (flagged via
    {!index_rebuilt}); damage to the {e data} file itself surfaces as
    a typed {!error}, never as a silently different execution (every
    record read re-checks its digest). *)

type error =
  | Missing of string  (** no such file *)
  | Bad_magic of string  (** not a replay trace (or future version) *)
  | Bad_header of string  (** header frame damaged or undecodable *)
  | Truncated of int
      (** data ran out mid-frame at this byte offset — a partially
          written or cut-off trace *)
  | Corrupt_record of int * string
      (** record [n] failed its digest or did not decode *)

val error_to_string : error -> string

(** {1 Writing} *)

val write_all :
  string -> Trace.header -> Trace.record list -> (unit, string) result
(** Write a trace at the given path in one {!Service.Frame.publish}
    (nothing appears at the path unless the whole file does), then
    its sidecar index.  [Ok] once the data file is in place: a sidecar
    that cannot be written is dropped (no temp file, no stale index
    left), and the next {!open_} rebuilds it. *)

(** {1 Reading} *)

type ix = {
  off : int;  (** byte offset of the record's frame *)
  ix_tid : int;
  ix_kind : Trace.kind;
  ix_loc : string option;
}
(** One index entry — enough to answer "next promise" / "next event
    at location" queries without touching the data file. *)

type reader

val open_ : string -> (reader, error) result
val close_reader : reader -> unit
val header : reader -> Trace.header
val length : reader -> int

val index_rebuilt : reader -> bool
(** The sidecar index was missing, stale or damaged and the reader
    fell back to a full scan of the data file. *)

val read_all : reader -> (Trace.record list, error) result

val find_ix : reader -> from:int -> f:(ix -> bool) -> int option
(** First record number [>= from] whose index entry satisfies [f] —
    the O(1)-per-entry query path. *)

val find_scan :
  reader -> from:int -> f:(Trace.record -> bool) -> (int option, error) result
(** Same search reading full records — the reference the index is
    tested against (index-vs-scan agreement). *)
