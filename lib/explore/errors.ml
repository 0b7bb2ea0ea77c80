type reason =
  | Step_budget
  | Promise_budget
  | Deadline
  | Node_budget
  | Oom
  | Fault
  | Output_cycle

let reason_to_string = function
  | Step_budget -> "step-budget"
  | Promise_budget -> "promise-budget"
  | Deadline -> "deadline"
  | Node_budget -> "node-budget"
  | Oom -> "oom"
  | Fault -> "fault-injection"
  | Output_cycle -> "output-cycle"

let pp_reason ppf r = Format.pp_print_string ppf (reason_to_string r)

let pp_reasons ppf rs =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    pp_reason ppf rs

type pos = { line : int; col : int }

type t =
  | Parse_error of pos * string
  | Ill_formed of string
  | Budget_exhausted of string
  | Internal of string

exception Error of t

let to_string = function
  | Parse_error (p, msg) ->
      Printf.sprintf "parse error at %d:%d: %s" p.line p.col msg
  | Ill_formed msg -> "ill-formed program: " ^ msg
  | Budget_exhausted msg -> "budget exhausted: " ^ msg
  | Internal msg -> "internal error: " ^ msg

let pp ppf e = Format.pp_print_string ppf (to_string e)

let ill_formed fmt = Format.kasprintf (fun s -> raise (Error (Ill_formed s))) fmt

let internal fmt = Format.kasprintf (fun s -> raise (Error (Internal s))) fmt

(* Classification of escaped exceptions, for the boundaries (the CLI,
   the stress runner) that must never show a user an OCaml backtrace
   for a predictable failure.  Anything unrecognized is [Internal] —
   the quarantine-worthy class. *)
let of_exn = function
  | Error e -> e
  | Invalid_argument msg -> Ill_formed msg
  | Stack_overflow -> Internal "stack overflow"
  | Out_of_memory -> Internal "out of memory"
  | Not_found -> Internal "uncaught Not_found"
  | Failure msg -> Internal msg
  | exn -> Internal (Printexc.to_string exn)

let guard f =
  match f () with
  | v -> Ok v
  | exception ((Stack_overflow | Out_of_memory) as exn) -> Error (of_exn exn)
  | exception Error e -> Error e
  | exception Invalid_argument msg -> Error (Ill_formed msg)
  | exception Failure msg -> Error (Internal msg)
