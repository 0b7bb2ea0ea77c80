let magic = "psopt-replay/2"

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
module Sexp = Lang.Sexp

let ( let* ) = Result.bind

(* Every frame of a trace is a {!Service.Frame}; its payload is one
   s-expression. *)
let frame_of sexp = Frame.encode (Sexp.to_string sexp)

let write_all path header records =
  let b = Buffer.create 4096 in
  Buffer.add_string b (magic ^ "\n");
  Buffer.add_string b (frame_of (Trace.sexp_of_header header));
  List.iter
    (fun r -> Buffer.add_string b (frame_of (Trace.sexp_of_record r)))
    records;
  match Frame.publish path (Buffer.contents b) with
  | exception Sys_error m -> Error m
  | () -> Ok ()

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

let read_records ic =
  let rec go n acc =
    match input_record ic n with
    | None -> Ok (List.rev acc)
    | Some (Error e) -> Error e
    | Some (Ok r) -> go (n + 1) (r :: acc)
  in
  go 0 []

let read path =
  if not (Sys.file_exists path) then Error (Missing path)
  else
    match open_in_bin path with
    | exception Sys_error m -> Error (Bad_header m)
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            try
              let* header = read_header path ic in
              let* records = read_records ic in
              Ok (header, records)
            with Sys_error m -> Error (Bad_header m))
