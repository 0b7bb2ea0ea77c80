(** A minimal JSON value type with one printer and one reader.

    Every JSON document the project writes goes through {!to_string}
    or {!output}: the Chrome trace export ({!Trace}), [psopt loadgen
    --json] and the bench summary.  {!of_string} reads them back for
    [psopt trace-check], [trace-merge] and the tests. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val escape : string -> string
(** The body of a JSON string literal for [s], without the quotes:
    quotes, backslashes and control characters escaped, every other
    byte copied. *)

val to_string : t -> string
(** One line, with [": "] after a key and [", "] between members and
    elements.  An [Int] prints in decimal, a [Float] as the shortest
    decimal that reads back to the same float (an integral one keeps
    a [".0"]), and a non-finite [Float] as [null]. *)

val output : out_channel -> t -> unit
(** The document layout: like {!to_string}, except that each member
    of a top-level object goes on its own line, and so does each
    element of an array that is such a member's value.  Ends with a
    newline. *)

val to_document : t -> string
(** What {!output} writes, as a string. *)

val of_string : string -> (t, string) result
(** Parse one JSON value (surrounding whitespace allowed).  A number
    without a fraction or exponent that fits an [int] reads as [Int],
    any other as [Float].  A [\u] escape outside ASCII decodes to
    UTF-8. *)

val member : string -> t -> t option
(** [member k v] is the first value under key [k] when [v] is an
    object. *)

val number : t -> float option
(** The value of an [Int] or a [Float]. *)
