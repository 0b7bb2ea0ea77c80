(** The one digest-checked frame of the wire, the result store and
    replay traces, and the one way a file is published on disk.

    A frame is a 20-byte header — 4-byte big-endian payload length,
    then the 16-byte MD5 of the payload — followed by the payload.
    The digest turns byte damage, in flight or on disk, into a typed
    error instead of a silently different (and possibly still
    decodable) message: the chaos suite's "never a wrong cached
    verdict" rule. *)

val max_frame : int
(** Upper bound (64 MiB) on one frame's payload: a corrupted length
    word is rejected instead of driving allocation. *)

val header_len : int
(** Bytes of framing overhead per frame (20). *)

val encode : string -> string
(** Header and payload as one buffer.  Raises [Invalid_argument] past
    {!max_frame}. *)

(** {1 Files and channels} *)

(** Why stored bytes are not a frame.  Each case carries the byte
    offset at which the damaged frame starts. *)
type damage =
  | Truncated of int  (** the input ends inside the frame *)
  | Bad_length of int
      (** the length word is out of range (or, for {!decode}, disagrees
          with the size of the string) *)
  | Bad_digest of int  (** the payload does not match its digest *)

val damage_to_string : damage -> string

val decode : string -> (string, damage) result
(** The payload of a string that is exactly one frame (a record
    file). *)

val input : in_channel -> (string, damage) result option
(** The frame at the channel's position.  [None] is a clean end of
    input exactly at a frame boundary. *)

(** {1 Sockets}

    All I/O takes optional wall-clock deadlines enforced with
    [select]; no call can block forever when a timeout is supplied. *)

(** Where in a frame an I/O deadline expired.  [Idle] is the
    between-frames wait (a keep-alive connection may sit there for
    minutes); [Header]/[Payload]/[Write] are mid-frame — the slowloris
    signature. *)
type phase = Idle | Header | Payload | Write

val phase_to_string : phase -> string

(** The closed taxonomy of transport failures, so callers pick a
    policy per class instead of string-matching: retry/reconnect on
    [Closed], evict on [Timed_out], drop the connection on [Corrupt]
    (the stream cannot be resynchronized after a bad frame). *)
type error =
  | Closed  (** EOF or reset from the peer *)
  | Timed_out of phase  (** an I/O deadline expired *)
  | Corrupt of string
      (** bad length word, checksum mismatch, or undecodable payload *)
  | Io of string  (** any other [Unix] error *)

val error_to_string : error -> string

val write :
  ?timeout_s:float -> Unix.file_descr -> string -> (unit, error) result
(** One frame, sent with one buffer. *)

val read :
  ?idle_timeout_s:float ->
  ?io_timeout_s:float ->
  Unix.file_descr ->
  (string, error) result
(** [idle_timeout_s] bounds the wait for the first header byte;
    [io_timeout_s] bounds every subsequent byte of the same frame. *)

(** {1 Publication} *)

val publish : string -> string -> unit
(** [publish path contents] writes [contents] to a temporary file in
    [path]'s directory, then renames it to [path] — rename within one
    directory is atomic, so a reader sees the old file or the new one,
    never a prefix, and a crashed writer leaves at worst an orphan
    [.*.tmp] file.  Callers build the whole file first: each store
    record and each replay trace is one call.  Every
    failure is a [Sys_error] and leaves no temporary file behind. *)
