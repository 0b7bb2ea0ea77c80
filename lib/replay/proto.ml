module TidMap = Ps.Machine.TidMap

type request =
  | Info
  | Where
  | Step
  | Back
  | Jump of int
  | Mem
  | Views
  | Why of string
  | Next_at of string
  | Next_promise
  | Schedule
  | Quit

type reply =
  | Ok of { pos : int; len : int; text : string }
  | Err of string
  | Bye

let help =
  String.concat "\n"
    [
      "s            step forward";
      "b            step back";
      "j N          jump to step N";
      "i            trace info (program, outputs, config)";
      "st           current position and the step about to run";
      "mem          memory at the current position";
      "views        per-thread views and promise sets";
      "why <loc>    messages, readability and promises of a location";
      "next <loc>   run to the next step touching a location";
      "prm          run to the next promise step";
      "sched        the whole recorded schedule";
      "q            quit";
    ]

let parse_command line =
  let words =
    List.filter
      (fun w -> w <> "")
      (String.split_on_char ' ' (String.trim line))
  in
  match words with
  | [ "s" ] | [ "step" ] -> Stdlib.Ok Step
  | [ "b" ] | [ "back" ] -> Stdlib.Ok Back
  | [ "j"; n ] | [ "jump"; n ] -> (
      match int_of_string_opt n with
      | Some n -> Stdlib.Ok (Jump n)
      | None -> Stdlib.Error (Printf.sprintf "j: not a step number: %s" n))
  | [ "i" ] | [ "info" ] -> Stdlib.Ok Info
  | [ "st" ] | [ "state" ] | [ "where" ] -> Stdlib.Ok Where
  | [ "mem" ] -> Stdlib.Ok Mem
  | [ "views" ] -> Stdlib.Ok Views
  | [ "why"; x ] -> Stdlib.Ok (Why x)
  | [ "next"; x ] -> Stdlib.Ok (Next_at x)
  | [ "prm" ] | [ "next-prm" ] -> Stdlib.Ok Next_promise
  | [ "sched" ] | [ "schedule" ] -> Stdlib.Ok Schedule
  | [ "q" ] | [ "quit" ] | [ "exit" ] -> Stdlib.Ok Quit
  | [ "h" ] | [ "help" ] | [ "?" ] -> Stdlib.Error help
  | _ -> Stdlib.Error ("unknown command; try:\n" ^ help)

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let where_text t =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "at step %d/%d" (Session.pos t) (Session.length t));
  (match Session.record_at t (Session.pos t) with
  | Some r ->
      Buffer.add_string b
        (Format.asprintf "@\nnext: %a" Trace.pp_record r)
  | None -> Buffer.add_string b "\nat end (terminal state)");
  Buffer.contents b

let info_text t =
  let h = Session.header t in
  Format.asprintf
    "note: %s@\ndiscipline: %a@\nouts: [%s]@\nsteps: %d@\nthreads: %d@\nconfig: %s"
    h.Trace.note Explore.Enum.pp_discipline h.Trace.discipline
    (String.concat "; " (List.map string_of_int h.Trace.outs))
    (Session.length t)
    (List.length h.Trace.program.Lang.Ast.threads)
    (Explore.Config.fingerprint h.Trace.config)

let mem_text t =
  Format.asprintf "%a" Ps.Memory.pp (Session.world t).Ps.Machine.mem

let views_text t =
  let w = Session.world t in
  let b = Buffer.create 256 in
  TidMap.iter
    (fun tid (ts : Ps.Thread.ts) ->
      Buffer.add_string b
        (Format.asprintf "t%d%s: view %a@\n" tid
           (if tid = w.Ps.Machine.cur then "*" else "")
           Ps.View.pp ts.Ps.Thread.view);
      match ts.Ps.Thread.prm with
      | [] -> ()
      | prm ->
          Buffer.add_string b
            (Format.asprintf "    promises: %a@\n"
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
                  Ps.Message.pp)
               prm))
    w.Ps.Machine.tp;
  String.trim (Buffer.contents b)

let why_text t x =
  let w = Session.world t in
  let mem = w.Ps.Machine.mem in
  let b = Buffer.create 256 in
  (match Ps.Memory.per_loc x mem with
  | [] -> Buffer.add_string b (Printf.sprintf "%s: no messages\n" x)
  | msgs ->
      Buffer.add_string b
        (Format.asprintf "%s messages: %a@\n" x
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
              Ps.Message.pp)
           msgs));
  let cur_ts = Ps.Machine.cur_ts w in
  let readable mode tag =
    match Ps.Memory.readable mode x cur_ts.Ps.Thread.view mem with
    | [] -> ()
    | msgs ->
        Buffer.add_string b
          (Format.asprintf "t%d may read (%s): %a@\n" w.Ps.Machine.cur tag
             (Format.pp_print_list
                ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
                Ps.Message.pp)
             msgs)
  in
  readable Lang.Modes.Na "na";
  readable Lang.Modes.Rlx "rlx";
  TidMap.iter
    (fun tid (ts : Ps.Thread.ts) ->
      if Ps.Thread.has_promise_on x ts then
        Buffer.add_string b
          (Printf.sprintf "t%d has an outstanding promise on %s\n" tid x))
    w.Ps.Machine.tp;
  (match
     Session.find_from t ~from:(Session.pos t)
       ~f:(fun r -> r.Trace.loc = Some x)
   with
  | Some i ->
      Buffer.add_string b (Printf.sprintf "next step touching %s: %d\n" x i)
  | None ->
      Buffer.add_string b
        (Printf.sprintf "no later step touches %s\n" x));
  String.trim (Buffer.contents b)

let schedule_text t =
  let b = Buffer.create 512 in
  let rec go i =
    match Session.record_at t i with
    | None -> ()
    | Some r ->
        Buffer.add_string b (Format.asprintf "%a@\n" Trace.pp_record r);
        go (i + 1)
  in
  go 0;
  String.trim (Buffer.contents b)

let ok t text = Ok { pos = Session.pos t; len = Session.length t; text }

let crossed t verb = function
  | None -> ok t (Printf.sprintf "%s: %s" verb (where_text t))
  | Some r -> ok t (Format.asprintf "%a@\n%s" Trace.pp_record r (where_text t))

(* Advance to the first record >= pos satisfying [f]; if that is the
   step already about to run, look strictly past it so repeated
   queries make progress. *)
let advance_to t f what =
  let from =
    match Session.record_at t (Session.pos t) with
    | Some r when f r -> Session.pos t + 1
    | _ -> Session.pos t
  in
  match Session.find_from t ~from ~f with
  | None -> ok t (Printf.sprintf "no %s after step %d" what (Session.pos t))
  | Some i -> (
      match Session.jump t i with
      | Stdlib.Error m -> Err m
      | Stdlib.Ok () -> ok t (where_text t))

let handle t = function
  | Info -> ok t (info_text t)
  | Where -> ok t (where_text t)
  | Step -> (
      match Session.step t with
      | Stdlib.Error m -> Err m
      | Stdlib.Ok r -> crossed t "at start of trace; nothing to step" r)
  | Back -> (
      match Session.back t with
      | Stdlib.Error m -> Err m
      | Stdlib.Ok r -> crossed t "at start" r)
  | Jump n -> (
      match Session.jump t n with
      | Stdlib.Error m -> Err m
      | Stdlib.Ok () -> ok t (where_text t))
  | Mem -> ok t (mem_text t)
  | Views -> ok t (views_text t)
  | Why x -> ok t (why_text t x)
  | Next_at x -> advance_to t (fun r -> r.Trace.loc = Some x)
                   (Printf.sprintf "step touching %s" x)
  | Next_promise ->
      advance_to t
        (fun r -> r.Trace.kind = Trace.Promise_step)
        "promise step"
  | Schedule -> ok t (schedule_text t)
  | Quit -> Bye
