let magic = "psopt-replay/2"
let index_magic = "psopt-replay-idx/2"

type error =
  | Missing of string
  | Bad_magic of string
  | Bad_header of string
  | Truncated of int
  | Corrupt_record of int * string

let error_to_string = function
  | Missing p -> Printf.sprintf "no such trace: %s" p
  | Bad_magic p -> Printf.sprintf "%s: not a psopt replay trace" p
  | Bad_header m -> Printf.sprintf "damaged trace header: %s" m
  | Truncated off -> Printf.sprintf "trace truncated mid-record at byte %d" off
  | Corrupt_record (n, m) -> Printf.sprintf "corrupt record %d: %s" n m

module Frame = Service.Frame
module P = Service.Proto
module Sexp = Lang.Sexp

let ( let* ) = Result.bind

(* Every frame of a trace is a {!Service.Frame}; its payload is one
   s-expression. *)
let frame_of sexp = Frame.encode (Sexp.to_string sexp)

type ix = {
  off : int;
  ix_tid : int;
  ix_kind : Trace.kind;
  ix_loc : string option;
}

let index_path path = path ^ ".idx"

(* The sidecar is one frame too:
   [(psopt-replay-idx/2 <data size> ((<off> <tid> <kind> <loc>) …))]. *)
let write_index path (entries : ix list) ~data_size =
  let sexp_of_ix e =
    Sexp.List
      [
        P.sexp_of_int e.off;
        P.sexp_of_int e.ix_tid;
        Trace.sexp_of_kind e.ix_kind;
        Trace.sexp_of_opt P.atom_of_string e.ix_loc;
      ]
  in
  Frame.publish (index_path path)
    (frame_of
       (Sexp.List
          [
            Sexp.Atom index_magic;
            P.sexp_of_int data_size;
            Sexp.List (List.map sexp_of_ix entries);
          ]))

(* [None]: the index is unusable (missing, unreadable, damaged, or
   stale w.r.t. the data file's size) — callers rebuild by scanning
   instead. *)
let load_index path ~data_size =
  let ix_of_sexp acc = function
    | Sexp.List [ off; tid; kind; loc ] ->
        let* acc = acc in
        let* off = P.int_of_sexp off in
        let* ix_tid = P.int_of_sexp tid in
        let* ix_kind = Trace.kind_of_sexp kind in
        let* ix_loc = Trace.opt_of_sexp P.string_of_atom loc in
        Ok ({ off; ix_tid; ix_kind; ix_loc } :: acc)
    | _ -> Error "bad index entry"
  in
  let index =
    let* text =
      try Ok (In_channel.with_open_bin (index_path path) In_channel.input_all)
      with Sys_error m -> Error m
    in
    let* payload =
      Result.map_error Frame.damage_to_string (Frame.decode text)
    in
    match Sexp.parse payload with
    | Ok (Sexp.List [ Sexp.Atom m; size; Sexp.List entries ])
      when m = index_magic && P.int_of_sexp size = Ok data_size ->
        let* rev = List.fold_left ix_of_sexp (Ok []) entries in
        Ok (Array.of_list (List.rev rev))
    | _ -> Error "not an index of this trace"
  in
  Result.to_option index

(* ------------------------------------------------------------------ *)
(* Writer: the whole trace is built in memory, each index offset read
   off the buffer's length, and published in one shot. *)

let ix_of_record (r : Trace.record) ~off =
  { off; ix_tid = r.Trace.tid; ix_kind = r.Trace.kind; ix_loc = r.Trace.loc }

let write_all path header records =
  let b = Buffer.create 4096 in
  Buffer.add_string b (magic ^ "\n");
  Buffer.add_string b (frame_of (Trace.sexp_of_header header));
  let entries =
    List.fold_left
      (fun acc r ->
        let off = Buffer.length b in
        Buffer.add_string b (frame_of (Trace.sexp_of_record r));
        ix_of_record r ~off :: acc)
      [] records
  in
  match Frame.publish path (Buffer.contents b) with
  | exception Sys_error m -> Error m
  | () ->
      (* The trace is in place.  The sidecar is advisory: if it cannot
         be written, an older one must not outlive the data it
         described, and the next [open_] rebuilds by scanning. *)
      (try write_index path (List.rev entries) ~data_size:(Buffer.length b)
       with Sys_error _ -> (
         try Sys.remove (index_path path) with Sys_error _ -> ()));
      Ok ()

(* ------------------------------------------------------------------ *)
(* Reader. *)

type reader = {
  r_ic : in_channel;
  r_header : Trace.header;
  r_ix : ix array;
  r_rebuilt : bool;
}

let header r = r.r_header
let length r = Array.length r.r_ix
let index_rebuilt r = r.r_rebuilt
let close_reader r = close_in_noerr r.r_ic

(* The frame at the channel's position, decoded as record [n];
   [None] at a clean end of the data. *)
let input_record ic n =
  Frame.input ic
  |> Option.map (function
       | Error (Frame.Truncated off) -> Error (Truncated off)
       | Error d -> Error (Corrupt_record (n, Frame.damage_to_string d))
       | Ok payload -> (
           match Result.bind (Sexp.parse payload) Trace.record_of_sexp with
           | Error m -> Error (Corrupt_record (n, m))
           | Ok r when r.Trace.num <> n ->
               Error
                 (Corrupt_record
                    (n, Printf.sprintf "record numbered %d" r.Trace.num))
           | Ok r -> Ok r))

(* Scan every record frame from the current position, collecting index
   entries; decodes each record (a scan is also a full validation). *)
let scan_entries ic =
  let rec go n acc =
    let off = pos_in ic in
    match input_record ic n with
    | None -> Ok (Array.of_list (List.rev acc))
    | Some (Error e) -> Error e
    | Some (Ok r) -> go (n + 1) (ix_of_record r ~off :: acc)
  in
  go 0 []

let read_header path ic =
  let* () =
    match really_input_string ic (String.length magic + 1) with
    | m when m = magic ^ "\n" -> Ok ()
    | _ | (exception End_of_file) -> Error (Bad_magic path)
  in
  match Frame.input ic with
  | None -> Error (Bad_header "empty trace")
  | Some (Error d) -> Error (Bad_header (Frame.damage_to_string d))
  | Some (Ok payload) ->
      Result.map_error
        (fun m -> Bad_header m)
        (Result.bind (Sexp.parse payload) Trace.header_of_sexp)

let open_ path =
  if not (Sys.file_exists path) then Error (Missing path)
  else
    match open_in_bin path with
    | exception Sys_error m -> Error (Bad_header m)
    | ic ->
        let opened () =
          let* r_header = read_header path ic in
          let body_start = pos_in ic in
          match load_index path ~data_size:(in_channel_length ic) with
          | Some r_ix -> Ok { r_ic = ic; r_header; r_ix; r_rebuilt = false }
          | None ->
              seek_in ic body_start;
              let* r_ix = scan_entries ic in
              Ok { r_ic = ic; r_header; r_ix; r_rebuilt = true }
        in
        let opened = try opened () with Sys_error m -> Error (Bad_header m) in
        if Result.is_error opened then close_in_noerr ic;
        opened

let read r n =
  if n < 0 || n >= Array.length r.r_ix then
    Error (Corrupt_record (n, "record number out of range"))
  else begin
    seek_in r.r_ic r.r_ix.(n).off;
    match input_record r.r_ic n with
    | None -> Error (Truncated r.r_ix.(n).off)
    | Some res -> res
  end

let read_all r =
  let rec go n acc =
    if n = length r then Ok (List.rev acc)
    else
      let* rec_ = read r n in
      go (n + 1) (rec_ :: acc)
  in
  go 0 []

let find_ix r ~from ~f =
  let n = Array.length r.r_ix in
  let rec go i =
    if i >= n then None else if f r.r_ix.(i) then Some i else go (i + 1)
  in
  go (max 0 from)

let find_scan r ~from ~f =
  let n = Array.length r.r_ix in
  let rec go i =
    if i >= n then Ok None
    else
      match read r i with
      | Error e -> Error e
      | Ok rec_ -> if f rec_ then Ok (Some i) else go (i + 1)
  in
  go (max 0 from)
