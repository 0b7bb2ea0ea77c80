(** The verification service's wire protocol: typed requests and
    responses serialized as {!Lang.Sexp} trees, one {!Frame} per
    message over a Unix-domain socket.

    One connection carries any number of request/response pairs in
    lock step (the client library is blocking; the server handles each
    connection on its own thread).  Responses to work requests carry
    the same exit-code taxonomy as the CLI — 0 verified, 1 refuted,
    2 inconclusive, 3 usage/parse error — plus the rendered report
    text, so [psopt submit]/[psopt batch] print byte-identical output
    to the direct subcommands (docs/SERVICE.md). *)

(** A verification query.  [Explore]/[Verify]/[Races] ship the program
    itself (as its canonical s-expression); [Litmus] names a program
    of the compiled-in corpus. *)
type work =
  | Explore of Explore.Enum.discipline * Lang.Ast.program
  | Verify of string * Lang.Ast.program  (** registered pass name *)
  | Races of Lang.Ast.program
  | Litmus of string  (** corpus name *)

type request =
  | Ping  (** liveness + version handshake *)
  | Stats  (** service counters snapshot *)
  | Metrics  (** full registry in Prometheus text format *)
  | Shutdown  (** graceful drain, then exit *)
  | Work of work * Explore.Config.t * Obs.Trace.ctx option
      (** a request is a complete description of the computation: the
          full configuration travels with it.  The optional trace
          context stamps daemon-side spans with the caller's
          trace/span ids so client and server Chrome traces stitch
          into one per-request timeline (docs/OBSERVABILITY.md).  The
          field is wire-compatible both ways: a context-free request
          encodes exactly as before this field existed, and decoders
          accept both shapes. *)

val kind_tag : work -> string
(** The store-key component naming the subcommand: ["explore:il"],
    ["explore:np"], ["verify:<pass>"], ["races"], ["litmus:<name>"]. *)

val program_of_work : work -> (Lang.Ast.program, string) result
(** The program a work item is about ([Litmus] resolves through the
    corpus; unknown names are an [Error]). *)

type reply = {
  exit_code : int;
      (** 0 verified / claim holds, 1 refuted, 2 inconclusive,
          3 usage or parse error *)
  output : string;  (** rendered report, byte-identical to the CLI's *)
  cached : bool;  (** answered from the content-addressed store *)
  conclusive : bool;
      (** [exit_code < 2]: the verdict cannot improve under a larger
          budget, so the store may serve it forever *)
}

type stats_payload = {
  served : int;
  store_hits : int;
  store_misses : int;
  busy_rejections : int;
  errors : int;
  store_entries : int;
  store_corrupt : int;
      (** store lookups that found a damaged record (served as a clean
          miss; the computation re-ran) *)
  inflight : int;  (** admitted work requests (running + queued) *)
  capacity : int;  (** admission-queue bound *)
  sheds : int;  (** queued requests preempted by higher priority *)
  expired : int;  (** queued requests dropped past their deadline/TTL *)
  evictions : int;
      (** connections closed by the server's I/O deadlines (slowloris
          or idle) *)
}

(** Why an admitted request was dropped without an answer:
    [Expired] — its wall-clock deadline (or the queue TTL) passed
    while it waited; [Overload] — it was preempted out of a full
    queue by a higher-priority request. *)
type shed_reason = Expired | Overload

val shed_reason_to_string : shed_reason -> string

type response =
  | Pong of string  (** server version (from dune-project) *)
  | Busy of { inflight : int; capacity : int }
      (** backpressure: the admission queue is full; retry later *)
  | Shed of { reason : shed_reason; inflight : int; capacity : int }
      (** the request was admitted to the queue but dropped before it
          could run — see {!shed_reason}.  [Overload] is retryable
          (with backoff); [Expired] means the deadline the request
          carried has already passed. *)
  | Stats_reply of stats_payload
  | Metrics_reply of string
      (** the daemon's {!Obs.Metrics.render} output, verbatim *)
  | Reply of reply
  | Shutting_down
  | Refused of string  (** protocol error, unknown pass/litmus name, … *)

(** {1 Serialization} — every encoder round-trips exactly
    (property-tested in test/test_service.ml). *)

val atom_of_string : string -> Lang.Sexp.t
(** Arbitrary strings as atoms: percent-encoded behind an ["s:"]
    sigil, since {!Lang.Sexp} atoms carry no quoting. *)

val string_of_atom : Lang.Sexp.t -> (string, string) result

val sexp_of_int : int -> Lang.Sexp.t
val int_of_sexp : Lang.Sexp.t -> (int, string) result
val sexp_of_int_opt : int option -> Lang.Sexp.t
val int_opt_of_sexp : Lang.Sexp.t -> (int option, string) result
val sexp_of_bool : bool -> Lang.Sexp.t
val bool_of_sexp : Lang.Sexp.t -> (bool, string) result

val sexp_of_config : Explore.Config.t -> Lang.Sexp.t
val config_of_sexp : Lang.Sexp.t -> (Explore.Config.t, string) result
val sexp_of_request : request -> Lang.Sexp.t
val request_of_sexp : Lang.Sexp.t -> (request, string) result
val sexp_of_response : response -> Lang.Sexp.t
val response_of_sexp : Lang.Sexp.t -> (response, string) result

(** {1 Transport} — one {!Frame} per message; the transport errors
    are {!Frame}'s. *)

type phase = Frame.phase = Idle | Header | Payload | Write

type error = Frame.error =
  | Closed
  | Timed_out of phase
  | Corrupt of string
  | Io of string

val phase_to_string : phase -> string
val error_to_string : error -> string

val send_request :
  ?timeout_s:float -> Unix.file_descr -> request -> (unit, error) result

val recv_request :
  ?idle_timeout_s:float ->
  ?io_timeout_s:float ->
  Unix.file_descr ->
  (request, error) result

val send_response :
  ?timeout_s:float -> Unix.file_descr -> response -> (unit, error) result

val recv_response :
  ?idle_timeout_s:float ->
  ?io_timeout_s:float ->
  Unix.file_descr ->
  (response, error) result
