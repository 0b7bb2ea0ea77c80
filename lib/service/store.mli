(** The content-addressed on-disk result store.

    Results are keyed by [(program digest, subcommand tag, semantic
    config fingerprint)] — see {!Explore.Config.fingerprint} for what
    the fingerprint covers — and stored one record per file under a
    256-way sharded directory tree: a {!Frame} whose payload is a
    versioned s-expression.  Writes are atomic ({!Frame.publish});
    reads are corruption-tolerant (a missing, truncated, garbled,
    digest-failing or version-mismatched record is a miss, never an
    error).

    Reuse is completeness-aware: a {e conclusive} verdict (exit code 0
    or 1 — verified or refuted) holds under every budget and is served
    forever; an {e inconclusive} record is served only to requests
    whose budget the cached run already covers, so a larger-budget
    request always re-runs (docs/SERVICE.md's cache-soundness
    argument). *)

type budget = {
  steps : int;  (** [Config.max_steps] *)
  deadline_ms : int option;
  max_nodes : int option;
  max_live_words : int option;
}
(** The four budget fields of {!Explore.Config.t} — everything the
    config fingerprint deliberately excludes.  [None] = unlimited. *)

val budget_of_config : Explore.Config.t -> budget

val covers : cached:budget -> request:budget -> bool
(** Componentwise: every budget of [cached] is at least as generous as
    [request]'s ([None] dominates). *)

type entry = {
  exit_code : int;
  output : string;
  conclusive : bool;  (** [exit_code < 2] at record time *)
  budget : budget;  (** the budget the recorded run was given *)
}

type t

val open_ : string -> t
(** Create or reopen a store rooted at the given directory. *)

val program_digest : Lang.Ast.program -> string
(** Hex digest of the program's canonical s-expression — the
    content-address component, independent of file paths and of the
    human-facing concrete syntax. *)

val key : program_digest:string -> kind:string -> fingerprint:string -> string
(** The record key (hex); [kind] is {!Proto.kind_tag}, [fingerprint]
    is {!Explore.Config.fingerprint}. *)

val find : t -> key:string -> budget:budget -> entry option
(** Completeness-aware lookup (see the module doc).  Never raises. *)

val peek : t -> string -> entry option
(** Raw lookup without the budget rule (tests, inspection). *)

val put : t -> key:string -> entry -> unit
(** Atomic record write ({!Frame.publish}). *)

val entries : t -> int
(** Number of records on disk (walks the shard directories). *)

val corrupt_misses : t -> int
(** Lookups (since [open_]) that found a record on disk that was not
    one intact frame (truncated, bad length, digest mismatch) or whose
    payload did not decode — each one was served as a clean miss.  A
    missing file does not count.  Surfaced in the daemon's [Stats]
    payload and the [psopt batch] report. *)

val flush : t -> unit
(** Push the root directory entry to stable storage.  Record writes
    are already synchronous and atomic; this is the graceful-shutdown
    hook. *)
