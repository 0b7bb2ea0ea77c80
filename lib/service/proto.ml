(* The wire protocol of the verification service: typed requests and
   responses serialized as s-expressions (reusing Lang.Sexp's minimal
   tree), one {!Frame} per message over a Unix-domain socket.

   Lang.Sexp atoms carry no quoting, so arbitrary strings (rendered
   reports, error messages) travel percent-encoded behind an "s:"
   sigil — see [atom_of_string].  Every encoder has a matching decoder
   and the round-trip is exact (property-tested in
   test/test_service.ml). *)

module Sexp = Lang.Sexp
open Sexp

(* ------------------------------------------------------------------ *)
(* Strings as atoms.  Safe characters pass through; everything else —
   including '%', whitespace, parens — becomes %XX.  The "s:" prefix
   keeps the empty string representable (Lang.Sexp cannot print an
   empty atom). *)

let safe_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = '.' || c = '/'

let atom_of_string s =
  let b = Buffer.create (String.length s + 8) in
  Buffer.add_string b "s:";
  String.iter
    (fun c ->
      if safe_char c then Buffer.add_char b c
      else Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Atom (Buffer.contents b)

let hex_val c =
  match c with
  | '0' .. '9' -> Some (Char.code c - Char.code '0')
  | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
  | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
  | _ -> None

let string_of_atom = function
  | List _ -> Error "expected a string atom"
  | Atom a ->
      if String.length a < 2 || String.sub a 0 2 <> "s:" then
        Error ("string atom missing s: prefix: " ^ a)
      else begin
        let b = Buffer.create (String.length a) in
        let n = String.length a in
        let rec go i =
          if i >= n then Ok (Buffer.contents b)
          else if a.[i] = '%' then
            if i + 2 >= n then Error "truncated %XX escape"
            else
              match (hex_val a.[i + 1], hex_val a.[i + 2]) with
              | Some h, Some l ->
                  Buffer.add_char b (Char.chr ((h * 16) + l));
                  go (i + 3)
              | _ -> Error "bad %XX escape"
          else begin
            Buffer.add_char b a.[i];
            go (i + 1)
          end
        in
        go 2
      end

(* ------------------------------------------------------------------ *)
(* Shared small encoders *)

let ( let* ) = Result.bind

let sexp_of_bool v = Atom (string_of_bool v)

let bool_of_sexp = function
  | Atom "true" -> Ok true
  | Atom "false" -> Ok false
  | s -> Error ("expected bool, got " ^ to_string s)

let sexp_of_int v = Atom (string_of_int v)

let int_of_sexp = function
  | Atom a -> (
      match int_of_string_opt a with
      | Some v -> Ok v
      | None -> Error ("expected int, got " ^ a))
  | s -> Error ("expected int, got " ^ to_string s)

let sexp_of_int_opt = function None -> Atom "-" | Some v -> sexp_of_int v

let int_opt_of_sexp = function
  | Atom "-" -> Ok None
  | s -> Result.map Option.some (int_of_sexp s)

(* ------------------------------------------------------------------ *)
(* Explore.Config over the wire: every field travels, so a request is
   a complete description of the computation (the server has no
   configuration of its own beyond the admission queue). *)

let sexp_of_config (c : Explore.Config.t) =
  let open Explore.Config in
  let mode =
    match c.promise_mode with
    | No_promises -> "none"
    | Semantic -> "semantic"
    | Syntactic -> "syntactic"
  in
  let fault =
    match c.fault with
    | None -> Atom "-"
    | Some f ->
        List
          [
            sexp_of_int f.fault_seed;
            (* %h round-trips the float exactly *)
            Atom (Printf.sprintf "%h" f.fault_rate);
          ]
  in
  List
    [
      Atom "config";
      sexp_of_int c.max_steps;
      sexp_of_int c.max_promises;
      Atom mode;
      sexp_of_bool c.reservations;
      sexp_of_int c.cert_fuel;
      sexp_of_bool c.cap_certification;
      sexp_of_bool c.memoize;
      sexp_of_bool c.cert_cache;
      sexp_of_int_opt c.deadline_ms;
      sexp_of_int_opt c.max_nodes;
      sexp_of_int_opt c.max_live_words;
      sexp_of_bool c.strict_promises;
      fault;
      sexp_of_int c.domains;
      (* reduction knobs are semantic (they key the result store), so
         they must travel; "-" keeps the common all-off case short *)
      (if c.reduction = no_reduction then Atom "-"
       else
         List
           [
             sexp_of_bool c.reduction.por;
             sexp_of_bool c.reduction.symmetry;
             sexp_of_int_opt c.reduction.bound_promises;
           ]);
    ]

let config_of_sexp s =
  let open Explore.Config in
  match s with
  | List
      (Atom "config"
      :: steps
      :: promises
      :: Atom mode
      :: rsv
      :: fuel
      :: cap
      :: memo
      :: ccache
      :: deadline
      :: nodes
      :: live
      :: strict
      :: fault
      :: domains
      :: rest) ->
      let* max_steps = int_of_sexp steps in
      let* max_promises = int_of_sexp promises in
      let* promise_mode =
        match mode with
        | "none" -> Ok No_promises
        | "semantic" -> Ok Semantic
        | "syntactic" -> Ok Syntactic
        | m -> Error ("unknown promise mode " ^ m)
      in
      let* reservations = bool_of_sexp rsv in
      let* cert_fuel = int_of_sexp fuel in
      let* cap_certification = bool_of_sexp cap in
      let* memoize = bool_of_sexp memo in
      let* cert_cache = bool_of_sexp ccache in
      let* deadline_ms = int_opt_of_sexp deadline in
      let* max_nodes = int_opt_of_sexp nodes in
      let* max_live_words = int_opt_of_sexp live in
      let* strict_promises = bool_of_sexp strict in
      let* fault =
        match fault with
        | Atom "-" -> Ok None
        | List [ seed; Atom rate ] -> (
            let* fault_seed = int_of_sexp seed in
            match float_of_string_opt rate with
            | Some fault_rate -> Ok (Some { fault_seed; fault_rate })
            | None -> Error ("bad fault rate " ^ rate))
        | s -> Error ("bad fault " ^ to_string s)
      in
      let* domains = int_of_sexp domains in
      let* reduction =
        match rest with
        (* an empty tail is a frame from a pre-reduction peer *)
        | [] | [ Atom "-" ] -> Ok no_reduction
        | [ List [ por; sym; bound ] ] ->
            let* por = bool_of_sexp por in
            let* symmetry = bool_of_sexp sym in
            let* bound_promises = int_opt_of_sexp bound in
            Ok { por; symmetry; bound_promises }
        | _ -> Error ("bad reduction " ^ to_string s)
      in
      Ok
        {
          max_steps;
          max_promises;
          promise_mode;
          reservations;
          cert_fuel;
          cap_certification;
          memoize;
          cert_cache;
          deadline_ms;
          max_nodes;
          max_live_words;
          strict_promises;
          fault;
          domains;
          reduction;
          (* a pure performance knob (like [domains] it cannot change
             results), deliberately not on the wire: the server's
             default applies *)
          oversubscribe = default.oversubscribe;
        }
  | s -> Error ("bad config " ^ to_string s)

(* ------------------------------------------------------------------ *)
(* Requests *)

type work =
  | Explore of Explore.Enum.discipline * Lang.Ast.program
  | Verify of string * Lang.Ast.program  (** registered pass name *)
  | Races of Lang.Ast.program
  | Litmus of string  (** corpus name; the program is compiled in *)

type request =
  | Ping
  | Stats
  | Metrics
  | Shutdown
  | Work of work * Explore.Config.t * Obs.Trace.ctx option

let kind_tag = function
  | Explore (Explore.Enum.Interleaving, _) -> "explore:il"
  | Explore (Explore.Enum.Non_preemptive, _) -> "explore:np"
  | Verify (pass, _) -> "verify:" ^ pass
  | Races _ -> "races"
  | Litmus name -> "litmus:" ^ name

let program_of_work = function
  | Explore (_, p) | Verify (_, p) | Races p -> Ok p
  | Litmus name -> (
      match List.find_opt (fun t -> t.Litmus.name = name) Litmus.all with
      | Some t -> Ok t.Litmus.prog
      | None -> Error ("unknown litmus test: " ^ name))

let sexp_of_discipline = function
  | Explore.Enum.Interleaving -> Atom "interleaving"
  | Explore.Enum.Non_preemptive -> Atom "non-preemptive"

let discipline_of_sexp = function
  | Atom "interleaving" -> Ok Explore.Enum.Interleaving
  | Atom "non-preemptive" -> Ok Explore.Enum.Non_preemptive
  | s -> Error ("bad discipline " ^ to_string s)

let sexp_of_work = function
  | Explore (d, p) ->
      List [ Atom "explore"; sexp_of_discipline d; Sexp.sexp_of_program p ]
  | Verify (pass, p) ->
      List [ Atom "verify"; Atom pass; Sexp.sexp_of_program p ]
  | Races p -> List [ Atom "races"; Sexp.sexp_of_program p ]
  | Litmus name -> List [ Atom "litmus"; Atom name ]

let work_of_sexp = function
  | List [ Atom "explore"; d; p ] ->
      let* d = discipline_of_sexp d in
      let* p = Sexp.program_of_sexp p in
      Ok (Explore (d, p))
  | List [ Atom "verify"; Atom pass; p ] ->
      let* p = Sexp.program_of_sexp p in
      Ok (Verify (pass, p))
  | List [ Atom "races"; p ] ->
      let* p = Sexp.program_of_sexp p in
      Ok (Races p)
  | List [ Atom "litmus"; Atom name ] -> Ok (Litmus name)
  | s -> Error ("bad work " ^ to_string s)

let sexp_of_request = function
  | Ping -> List [ Atom "ping" ]
  | Stats -> List [ Atom "stats" ]
  | Metrics -> List [ Atom "metrics" ]
  | Shutdown -> List [ Atom "shutdown" ]
  | Work (w, c, tctx) -> (
      (* A context-free request keeps the exact pre-trace wire shape,
         so new clients stay compatible with old daemons unless they
         actually trace; the optional trailing element mirrors the
         config fingerprint field's evolution pattern. *)
      let base = [ Atom "work"; sexp_of_work w; sexp_of_config c ] in
      match tctx with
      | None -> List base
      | Some { Obs.Trace.trace_id; span_id } ->
          List (base @ [ List [ Atom "trace"; Atom trace_id; Atom span_id ] ]))

let trace_ctx_of_rest = function
  | [] | [ Atom "-" ] -> Ok None
  | [ List [ Atom "trace"; Atom trace_id; Atom span_id ] ] ->
      Ok (Some { Obs.Trace.trace_id; span_id })
  | s -> Error ("bad trace context " ^ to_string (List s))

let request_of_sexp = function
  | List [ Atom "ping" ] -> Ok Ping
  | List [ Atom "stats" ] -> Ok Stats
  | List [ Atom "metrics" ] -> Ok Metrics
  | List [ Atom "shutdown" ] -> Ok Shutdown
  | List (Atom "work" :: w :: c :: rest) ->
      let* w = work_of_sexp w in
      let* c = config_of_sexp c in
      let* tctx = trace_ctx_of_rest rest in
      Ok (Work (w, c, tctx))
  | s -> Error ("bad request " ^ to_string s)

(* ------------------------------------------------------------------ *)
(* Responses *)

type reply = {
  exit_code : int;
      (** the CLI taxonomy: 0 verified / claim holds, 1 refuted,
          2 inconclusive, 3 usage or parse error *)
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
  inflight : int;
  capacity : int;
  sheds : int;
  expired : int;
  evictions : int;
}

type shed_reason = Expired | Overload

let shed_reason_to_string = function
  | Expired -> "expired"
  | Overload -> "overload"

type response =
  | Pong of string  (** server version *)
  | Busy of { inflight : int; capacity : int }
  | Shed of { reason : shed_reason; inflight : int; capacity : int }
  | Stats_reply of stats_payload
  | Metrics_reply of string  (** Prometheus text exposition *)
  | Reply of reply
  | Shutting_down
  | Refused of string  (** protocol error, unknown pass/litmus, … *)

let sexp_of_response = function
  | Pong v -> List [ Atom "pong"; atom_of_string v ]
  | Busy { inflight; capacity } ->
      List [ Atom "busy"; sexp_of_int inflight; sexp_of_int capacity ]
  | Shed { reason; inflight; capacity } ->
      List
        [
          Atom "shed";
          Atom (shed_reason_to_string reason);
          sexp_of_int inflight;
          sexp_of_int capacity;
        ]
  | Stats_reply s ->
      List
        [
          Atom "stats";
          sexp_of_int s.served;
          sexp_of_int s.store_hits;
          sexp_of_int s.store_misses;
          sexp_of_int s.busy_rejections;
          sexp_of_int s.errors;
          sexp_of_int s.store_entries;
          sexp_of_int s.store_corrupt;
          sexp_of_int s.inflight;
          sexp_of_int s.capacity;
          sexp_of_int s.sheds;
          sexp_of_int s.expired;
          sexp_of_int s.evictions;
        ]
  | Metrics_reply text -> List [ Atom "metrics"; atom_of_string text ]
  | Reply r ->
      List
        [
          Atom "reply";
          sexp_of_int r.exit_code;
          sexp_of_bool r.cached;
          sexp_of_bool r.conclusive;
          atom_of_string r.output;
        ]
  | Shutting_down -> List [ Atom "shutting-down" ]
  | Refused msg -> List [ Atom "refused"; atom_of_string msg ]

let response_of_sexp = function
  | List [ Atom "pong"; v ] ->
      let* v = string_of_atom v in
      Ok (Pong v)
  | List [ Atom "busy"; i; c ] ->
      let* inflight = int_of_sexp i in
      let* capacity = int_of_sexp c in
      Ok (Busy { inflight; capacity })
  | List [ Atom "shed"; Atom reason; i; c ] ->
      let* reason =
        match reason with
        | "expired" -> Ok Expired
        | "overload" -> Ok Overload
        | r -> Error ("bad shed reason " ^ r)
      in
      let* inflight = int_of_sexp i in
      let* capacity = int_of_sexp c in
      Ok (Shed { reason; inflight; capacity })
  | List [ Atom "stats"; a; b; c; d; e; f; fc; g; h; sh; ex; ev ] ->
      let* served = int_of_sexp a in
      let* store_hits = int_of_sexp b in
      let* store_misses = int_of_sexp c in
      let* busy_rejections = int_of_sexp d in
      let* errors = int_of_sexp e in
      let* store_entries = int_of_sexp f in
      let* store_corrupt = int_of_sexp fc in
      let* inflight = int_of_sexp g in
      let* capacity = int_of_sexp h in
      let* sheds = int_of_sexp sh in
      let* expired = int_of_sexp ex in
      let* evictions = int_of_sexp ev in
      Ok
        (Stats_reply
           {
             served;
             store_hits;
             store_misses;
             busy_rejections;
             errors;
             store_entries;
             store_corrupt;
             inflight;
             capacity;
             sheds;
             expired;
             evictions;
           })
  | List [ Atom "metrics"; text ] ->
      let* text = string_of_atom text in
      Ok (Metrics_reply text)
  | List [ Atom "reply"; code; cached; conclusive; output ] ->
      let* exit_code = int_of_sexp code in
      let* cached = bool_of_sexp cached in
      let* conclusive = bool_of_sexp conclusive in
      let* output = string_of_atom output in
      Ok (Reply { exit_code; output; cached; conclusive })
  | List [ Atom "shutting-down" ] -> Ok Shutting_down
  | List [ Atom "refused"; msg ] ->
      let* msg = string_of_atom msg in
      Ok (Refused msg)
  | s -> Error ("bad response " ^ to_string s)

(* ------------------------------------------------------------------ *)
(* Transport: one {!Frame} per message. *)

type phase = Frame.phase = Idle | Header | Payload | Write
type error = Frame.error =
  | Closed
  | Timed_out of phase
  | Corrupt of string
  | Io of string

let phase_to_string = Frame.phase_to_string
let error_to_string = Frame.error_to_string

let send_request ?timeout_s fd r =
  Frame.write ?timeout_s fd (to_string (sexp_of_request r))

let send_response ?timeout_s fd r =
  Frame.write ?timeout_s fd (to_string (sexp_of_response r))

let decode of_sexp payload =
  match Sexp.parse payload with
  | Error msg -> Error (Corrupt ("undecodable payload: " ^ msg))
  | Ok s -> Result.map_error (fun msg -> Corrupt msg) (of_sexp s)

let recv_request ?idle_timeout_s ?io_timeout_s fd =
  let* payload = Frame.read ?idle_timeout_s ?io_timeout_s fd in
  decode request_of_sexp payload

let recv_response ?idle_timeout_s ?io_timeout_s fd =
  let* payload = Frame.read ?idle_timeout_s ?io_timeout_s fd in
  decode response_of_sexp payload
