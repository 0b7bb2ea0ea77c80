(* The one frame (see frame.mli).  The MD5 of a payload is computed
   here and nowhere else. *)

let max_frame = 64 * 1024 * 1024
let header_len = 20

let encode payload =
  let n = String.length payload in
  if n > max_frame then invalid_arg "Frame.encode: frame too large";
  let b = Bytes.create (header_len + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string (Digest.string payload) 0 b 4 16;
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

(* The payload length a header announces, if it is in range. *)
let length_of hdr =
  let n = Int32.to_int (String.get_int32_be hdr 0) in
  if n < 0 || n > max_frame then Error n else Ok n

let digest_ok hdr payload =
  String.equal (Digest.string payload) (String.sub hdr 4 16)

(* ------------------------------------------------------------------ *)
(* Files and channels *)

type damage = Truncated of int | Bad_length of int | Bad_digest of int

let damage_to_string = function
  | Truncated off -> Printf.sprintf "truncated frame at byte %d" off
  | Bad_length off -> Printf.sprintf "bad frame length at byte %d" off
  | Bad_digest off -> Printf.sprintf "frame checksum mismatch at byte %d" off

(* [take k] is the next [k] bytes, or [None] when the input ends
   first. *)
let parse ~off take =
  match take header_len with
  | None -> Error (Truncated off)
  | Some hdr -> (
      match length_of hdr with
      | Error _ -> Error (Bad_length off)
      | Ok n -> (
          match take n with
          | None -> Error (Truncated off)
          | Some payload ->
              if digest_ok hdr payload then Ok payload
              else Error (Bad_digest off)))

let decode s =
  let pos = ref 0 in
  let take k =
    if !pos + k > String.length s then None
    else begin
      pos := !pos + k;
      Some (String.sub s (!pos - k) k)
    end
  in
  match parse ~off:0 take with
  | Ok _ when !pos <> String.length s -> Error (Bad_length 0)
  | r -> r

let input ic =
  let off = pos_in ic in
  match input_char ic with
  | exception End_of_file -> None
  | _ ->
      seek_in ic off;
      Some
        (parse ~off (fun k ->
             try Some (really_input_string ic k) with End_of_file -> None))

(* ------------------------------------------------------------------ *)
(* Sockets.  [read] distinguishes the {e idle} deadline (waiting for
   the first header byte of the next frame) from the {e I/O} deadline
   (once a frame has started, every subsequent byte must arrive
   promptly — the slowloris defence). *)

type phase = Idle | Header | Payload | Write

let phase_to_string = function
  | Idle -> "idle"
  | Header -> "header"
  | Payload -> "payload"
  | Write -> "write"

type error = Closed | Timed_out of phase | Corrupt of string | Io of string

let error_to_string = function
  | Closed -> "connection closed"
  | Timed_out p -> Printf.sprintf "i/o timeout (%s)" (phase_to_string p)
  | Corrupt msg -> "corrupt frame: " ^ msg
  | Io msg -> "i/o error: " ^ msg

let ( let* ) = Result.bind

let deadline_of_timeout = function
  | None -> None
  | Some s -> Some (Unix.gettimeofday () +. s)

(* Wait until [fd] is ready in direction [dir], or the deadline
   passes.  EINTR is an early wakeup, not an error. *)
let wait_ready dir fd deadline =
  match deadline with
  | None -> Ok ()
  | Some d ->
      let rec go () =
        let remaining = d -. Unix.gettimeofday () in
        if remaining <= 0.0 then Error `Timeout
        else
          let r, w =
            match dir with `Read -> ([ fd ], []) | `Write -> ([], [ fd ])
          in
          match Unix.select r w [] remaining with
          | [], [], _ -> Error `Timeout
          | _ -> Ok ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ()

(* A deadline needs the fd in non-blocking mode: [select] only
   promises that {e some} progress is possible, and on Linux a
   blocking [write] of a large buffer keeps blocking after filling
   the socket buffer — past any deadline.  Non-blocking turns that
   into EAGAIN, which loops back to [select] where the deadline is
   enforced. *)
let with_nonblock deadline fd f =
  match deadline with
  | None -> f ()
  | Some _ ->
      (match Unix.set_nonblock fd with
      | () -> ()
      | exception Unix.Unix_error _ -> ());
      Fun.protect
        ~finally:(fun () ->
          try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
        f

(* Move [len] bytes through [op pos len] (one [Unix.read] or
   [Unix.write] call), waiting for readiness before each call. *)
let transfer dir ~phase ?deadline fd op len =
  let rec go pos =
    if pos >= len then Ok ()
    else
      match wait_ready dir fd deadline with
      | Error `Timeout -> Error (Timed_out phase)
      | Ok () -> (
          match op pos (len - pos) with
          | 0 when dir = `Read -> Error Closed
          | n -> go (pos + n)
          | exception
              Unix.Unix_error
                ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
              go pos
          | exception
              Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
              Error Closed
          | exception Unix.Unix_error (e, _, _) ->
              Error (Io (Unix.error_message e)))
  in
  with_nonblock deadline fd (fun () -> go 0)

let read_exact ?deadline ~phase fd len =
  let buf = Bytes.create len in
  let* () = transfer `Read ~phase ?deadline fd (Unix.read fd buf) len in
  Ok (Bytes.unsafe_to_string buf)

let write ?timeout_s fd payload =
  let buf = encode payload in
  transfer `Write ~phase:Write
    ?deadline:(deadline_of_timeout timeout_s)
    fd
    (Unix.write_substring fd buf)
    (String.length buf)

let read ?idle_timeout_s ?io_timeout_s fd =
  (* the gap between frames may be long (keep-alive); once the first
     byte of a header has arrived, the rest of the frame is on the
     short I/O clock *)
  let* first =
    read_exact
      ?deadline:(deadline_of_timeout idle_timeout_s)
      ~phase:Idle fd 1
  in
  let deadline = deadline_of_timeout io_timeout_s in
  let* rest = read_exact ?deadline ~phase:Header fd (header_len - 1) in
  let hdr = first ^ rest in
  match length_of hdr with
  | Error n -> Error (Corrupt (Printf.sprintf "bad frame length %d" n))
  | Ok n ->
      let* payload = read_exact ?deadline ~phase:Payload fd n in
      if digest_ok hdr payload then Ok payload
      else Error (Corrupt "frame checksum mismatch")

(* ------------------------------------------------------------------ *)
(* Publication: write to a temp file in the destination directory,
   then rename it into place — rename within one directory is atomic.
   The counter is shared by every domain of the process. *)

let tmp_counter = Atomic.make 0

let publish dest contents =
  let tmp =
    Filename.concat (Filename.dirname dest)
      (Printf.sprintf ".%s.%d.%d.tmp" (Filename.basename dest)
         (Unix.getpid ())
         (Atomic.fetch_and_add tmp_counter 1))
  in
  let oc = open_out_bin tmp in
  try
    output_string oc contents;
    close_out oc;
    Unix.rename tmp dest
  with exn -> (
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    match exn with
    | Unix.Unix_error (e, _, _) -> raise (Sys_error (Unix.error_message e))
    | exn -> raise exn)
