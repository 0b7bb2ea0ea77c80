(** Low-overhead span tracing.

    Spans are recorded into per-domain buffers (no cross-domain
    contention on the hot path) and merged at export.  Tracing is off
    by default; when disabled, {!span} costs a single branch on an
    [Atomic.get] before running its thunk, so instrumented code can
    stay instrumented in production builds.

    Export is Chrome [trace_event] JSON (complete events, [ph:"X"],
    microsecond timestamps), the format Perfetto and chrome://tracing
    open directly: each domain appears as one track ([tid] = domain
    id), spans nest by time inclusion. *)

val on : unit -> bool
(** Whether tracing is currently enabled (one [Atomic.get]). *)

val start : unit -> unit
(** Clear all recorded spans and enable recording. *)

val stop : unit -> unit
(** Disable recording; recorded spans remain available for export. *)

(** {2 Trace contexts}

    A context names one logical request: [trace_id] groups every span
    the request touched — across retries, connections and processes —
    and [span_id] names the request's root span on the side that
    minted it.  The context travels over the wire in
    [Service.Proto]'s optional trace field, so daemon-side spans can
    be stamped with the caller's ids and {!merge_files} can stitch
    client- and server-side traces into one timeline per request. *)

type ctx = { trace_id : string; span_id : string }

val genid : unit -> string
(** A fresh 16-hex-digit random id (thread-safe). *)

val new_ctx : unit -> ctx

val current : unit -> ctx option
(** The calling thread's ambient context, if tracing is on and
    {!with_ctx} is active somewhere up the stack. *)

val with_ctx : ctx option -> (unit -> 'a) -> 'a
(** [with_ctx c f] runs [f] with the calling thread's ambient context
    set to [c] ([None] clears it); spans recorded inside are stamped
    with [trace_id]/[span_id] args.  The previous context is restored
    afterwards, also on exceptions.  When tracing is off this is just
    [f ()]. *)

val span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; when tracing is on, the call is
    recorded as a complete event (also when [f] raises).  [cat] is the
    trace_event category (defaults to ["psopt"]); [args] become the
    event's [args] object, after any ambient-context stamp. *)

val add :
  ?cat:string ->
  ?args:(string * string) list ->
  name:string ->
  ts_ns:int ->
  dur_ns:int ->
  unit ->
  unit
(** Record an explicit span for an interval not shaped like a thunk —
    the admission gate's queue wait, a load generator's intended-start
    anchoring.  No-op while tracing is off, like {!span}. *)

type event = {
  name : string;
  cat : string;
  ts_ns : int;  (** absolute begin stamp from {!Clock.now_ns} *)
  dur_ns : int;
  tid : int;  (** recording domain id *)
  args : (string * string) list;  (** trace_event [args], string-valued *)
}

val events : unit -> event list
(** All recorded spans, merged across domains, in begin-stamp order. *)

val dropped : unit -> int
(** Spans discarded because a per-domain buffer hit its cap.  Also
    exported continuously as the [psopt_obs_spans_dropped_total]
    metric (which, unlike this post-hoc count, survives {!start}'s
    clear and is visible on a scrape mid-run). *)

val write_channel : out_channel -> int
(** Emit the trace_event JSON document; returns the event count. *)

val write_events : out_channel -> event list -> int
(** The same emission for an explicit event list — how [psopt witness
    --trace] exports a synthetic per-thread timeline of a witness
    schedule (events need not come from {!span}).  The document's
    timestamps are normalized to the first event; the subtracted
    absolute base is preserved as a top-level [baseNs] field so
    {!merge_files} can re-anchor documents from different processes
    onto one clock. *)

val write_file : string -> (int, string) result

val merge_files : inputs:string list -> output:string -> (int, string) result
(** [merge_files ~inputs ~output] stitches several trace documents
    into one timeline: each input's normalized timestamps are restored
    to absolute time via its [baseNs] field, every input becomes its
    own [pid] track group (file order, 1-based), and the merged
    document is re-normalized to the earliest event overall.  Returns
    the merged event count.  Spans of one logical request line up
    across processes by their [trace_id] arg. *)

(** {2 Shape checking}

    Used by [psopt trace-check] and the CI smoke jobs to validate
    emitted traces without external tooling; documents are read with
    {!Json.of_string}. *)

type shape = { n_events : int; names : string list (** distinct, sorted *) }

val validate_string : string -> (shape, string) result
(** Checks the document parses as JSON, has a [traceEvents] array, and
    that every event is an object with string [name]/[ph] ([ph] =
    ["X"]) and numeric [ts]/[dur]/[pid]/[tid]. *)

val validate_file : string -> (shape, string) result
