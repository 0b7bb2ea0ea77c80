(** The on-disk trace store: a magic line, then the header and each
    step record as one {!Service.Frame} (a 20-byte binary header — the
    payload's 4-byte big-endian length and 16-byte MD5 — then the
    payload, an s-expression; docs/REPLAY.md).

    {v
    psopt-replay/2
    <frame: header sexp>
    <frame: step-0 sexp>
    …
    v}

    {!write_all} builds the file in memory and publishes it in one
    shot ({!Service.Frame.publish}) — a crash mid-write never leaves a
    half-written trace under the final name.  {!read} reads the whole
    file in order; damage to it surfaces as a typed {!error}, never as
    a silently different execution (every frame's digest is
    checked). *)

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

val write_all :
  string -> Trace.header -> Trace.record list -> (unit, string) result
(** Write a trace at the given path in one {!Service.Frame.publish}:
    nothing appears at the path unless the whole file does. *)

val read : string -> (Trace.header * Trace.record list, error) result
(** The header and every record of the trace at the given path, in
    order: checks the magic line, decodes the header frame, then each
    record frame, whose number must be its position. *)
