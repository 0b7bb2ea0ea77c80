(** The typed error taxonomy of the exploration stack, and the
    truncation vocabulary shared by every budget-aware component.

    Library modules never [failwith] on predictable failures: they
    return or raise one of these four classes so callers (the CLI, the
    stress runner, CI scripts) can branch on the {e kind} of failure —
    a syntax error is the user's problem, [Budget_exhausted] means the
    verdict is [Inconclusive], and [Internal] means quarantine the
    input and file a bug. *)

(** Why an exploration is incomplete.  A verdict derived from a
    traceset truncated for any of these reasons must degrade to
    inconclusive — see {!Enum.completeness} and docs/ROBUSTNESS.md. *)
type reason =
  | Step_budget  (** a path hit [Config.max_steps] *)
  | Promise_budget
      (** a certifiable promise was suppressed by [Config.max_promises]
          (only reported under [Config.strict_promises]) *)
  | Deadline  (** the wall-clock deadline [Config.deadline_ms] passed *)
  | Node_budget  (** [Config.max_nodes] distinct states were expanded *)
  | Oom  (** the live-word budget [Config.max_live_words] was exceeded *)
  | Fault  (** a fault-injection schedule fired ([Config.fault]) *)
  | Output_cycle
      (** the walk met a cycle that prints, whose behaviour set is
          infinite; the search stops at the first one *)

val reason_to_string : reason -> string
val pp_reasons : Format.formatter -> reason list -> unit

type pos = { line : int; col : int }

type t =
  | Parse_error of pos * string
  | Ill_formed of string  (** well-formedness / machine-init failures *)
  | Budget_exhausted of string
  | Internal of string  (** a bug in this library; quarantine-worthy *)

exception Error of t

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val ill_formed : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error}[ (Ill_formed _)] with a formatted message. *)

val internal : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error}[ (Internal _)] with a formatted message. *)

val of_exn : exn -> t
(** Classify an escaped exception; unrecognized ones become
    [Internal]. *)

val guard : (unit -> 'a) -> ('a, t) result
(** Run [f], catching {!Error}, [Invalid_argument], [Failure],
    [Stack_overflow] and [Out_of_memory] into the taxonomy.  Genuinely
    unexpected exceptions still escape (the stress runner catches and
    quarantines those separately). *)
