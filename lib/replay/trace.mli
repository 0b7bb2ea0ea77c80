(** The replay trace model: one header describing the recorded
    execution, then one record per machine step (docs/REPLAY.md).

    A record stores the {e choice}, not the resulting state: the
    successor enumeration of {!Explore.Stepper} is a pure function of
    the pre-state and the configuration, so [(kind, choice)] pairs
    replay the execution deterministically — the store stays compact
    (no machine states on disk) and replay is exact by construction.
    The remaining fields (event, location, memory/view deltas,
    certification cost) are the human-facing annotations the debugger
    surfaces without re-deriving them.

    Serialization is {!Lang.Sexp} with the same total encoders /
    typed-error decoders discipline as {!Service.Proto} (arbitrary
    strings travel percent-encoded behind the ["s:"] sigil). *)

type kind = Explore.Stepper.kind = Thread_step | Promise_step | Switch_step

type record = {
  num : int;  (** 0-based step number: the step from state [num] to
                  state [num+1] *)
  tid : int;  (** acting thread (switch target for switches) *)
  kind : kind;
  choice : int;  (** index within the deterministic successor
                     enumeration — see {!Explore.Stepper.succ} *)
  event : Ps.Event.te option;  (** [None] exactly for switches *)
  loc : Lang.Ast.var option;
      (** shared location the step touched (promises/reservations: the
          announced message's location) — the index key of
          "next event at location" queries *)
  committed : bool;  (** pre-state promise-certification verdict *)
  cert_states : int;
      (** states the certification search expanded at this step's gate
          (0: the promise set was empty, no search ran) *)
  msgs_added : string list;
      (** rendered messages this step added to memory *)
  view_delta : string option;
      (** rendered view change of the acting thread ([None] if its
          view was unchanged) *)
}

type header = {
  version : int;
  program : Lang.Ast.program;
  discipline : Explore.Enum.discipline;
  outs : Lang.Ast.value list;  (** the outputs the execution prints *)
  config : Explore.Config.t;
      (** full exploration configuration — replay re-enumerates
          successors, so the configuration must travel with the trace
          (a quarantined stress case replays under its exact reduction
          mode and budgets) *)
  note : string;  (** free-form origin: ["witness"],
                      ["stress-quarantine seed=…"], … *)
}

val current_version : int

val sexp_of_kind : kind -> Lang.Sexp.t
val kind_of_sexp : Lang.Sexp.t -> (kind, string) result
val sexp_of_opt : ('a -> Lang.Sexp.t) -> 'a option -> Lang.Sexp.t

val opt_of_sexp :
  (Lang.Sexp.t -> ('a, string) result) ->
  Lang.Sexp.t ->
  ('a option, string) result

val sexp_of_record : record -> Lang.Sexp.t
val record_of_sexp : Lang.Sexp.t -> (record, string) result
val sexp_of_header : header -> Lang.Sexp.t
val header_of_sexp : Lang.Sexp.t -> (header, string) result

val equal_record : record -> record -> bool
val pp_record : Format.formatter -> record -> unit
(** One line: step number, thread, event, then the non-empty
    annotations ([mem +⟨…⟩], [view x: rlx->1], [cert n]). *)
