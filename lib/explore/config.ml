type promise_mode = No_promises | Semantic | Syntactic

type fault = { fault_seed : int; fault_rate : float }

type reduction = {
  por : bool;
  symmetry : bool;
  bound_promises : int option;
}

let no_reduction = { por = false; symmetry = false; bound_promises = None }

type t = {
  max_steps : int;
  max_promises : int;
  promise_mode : promise_mode;
  reservations : bool;
  cert_fuel : int;
  cap_certification : bool;
  memoize : bool;
  cert_cache : bool;
  deadline_ms : int option;
  max_nodes : int option;
  max_live_words : int option;
  strict_promises : bool;
  fault : fault option;
  domains : int;
  oversubscribe : bool;
  reduction : reduction;
}

let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Some n
  | _ -> None

(* PSOPT_J lets the CI matrix (and users) run the entire test suite
   through the parallel engine without threading a flag into every
   call site that uses [default].  Read once, here; a value that does
   not parse is reported and otherwise ignored. *)
let env_jobs =
  match Sys.getenv_opt "PSOPT_J" with
  | None -> None
  | Some s -> (
      match parse_jobs s with
      | Some _ as j -> j
      | None ->
          Obs.Log.warn ~src:"config"
            "ignoring PSOPT_J: not a positive integer"
            ~fields:[ ("value", s) ];
          None)

let default_domains = match env_jobs with Some n -> n | None -> 1

(* PSOPT_J is an explicit request to exercise the parallel engine, so
   it also lifts the cores clamp — otherwise a single-core CI runner
   would silently run the whole matrix sequentially. *)
let default_oversubscribe = env_jobs <> None

let default =
  {
    max_steps = 400;
    max_promises = 1;
    promise_mode = Semantic;
    reservations = false;
    cert_fuel = 64;
    cap_certification = true;
    memoize = true;
    cert_cache = true;
    deadline_ms = None;
    max_nodes = None;
    max_live_words = None;
    strict_promises = false;
    fault = None;
    domains = default_domains;
    oversubscribe = default_oversubscribe;
    reduction = no_reduction;
  }

let quick =
  {
    default with
    max_steps = 200;
    max_promises = 0;
    promise_mode = No_promises;
  }

let with_promises n t =
  {
    t with
    max_promises = n;
    promise_mode = (if n = 0 then No_promises else t.promise_mode);
  }

let with_deadline_ms ms t = { t with deadline_ms = Some ms }

let with_reduction r t = { t with reduction = r }

let full_reduction = { por = true; symmetry = true; bound_promises = None }

(* The fingerprint covers exactly the fields that can change the
   *result* of a search (traceset / verdict), and none of the fields
   that only change how fast it is computed or when it gets truncated:

   - in:  max_promises, promise_mode, reservations, cert_fuel,
          cap_certification, strict_promises, fault, reduction.
          The reduction knobs are semantic even though the techniques
          preserve behaviour: [bound_promises] changes completeness
          (Truncated above the bound), por changes which Open chatter
          prefixes appear, and a store keyed without the knobs could
          hand a bounded result to an unbounded query.
   - out: memoize, cert_cache, domains, oversubscribe (the
          determinism contract of docs/PARALLEL.md: identical results
          at every width and with every cache setting)
   - out: max_steps, deadline_ms, max_nodes, max_live_words — the
          budgets.  An [Exhaustive] outcome is the same for every
          budget large enough to reach it, so the result store keys on
          the fingerprint and records the budget separately
          (docs/SERVICE.md's cache-soundness argument). *)
let fingerprint t =
  let b = Buffer.create 96 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b ';') fmt in
  add "psopt-config-fp/3";
  add "promises=%d" t.max_promises;
  add "mode=%s"
    (match t.promise_mode with
    | No_promises -> "none"
    | Semantic -> "semantic"
    | Syntactic -> "syntactic");
  add "rsv=%b" t.reservations;
  add "cert_fuel=%d" t.cert_fuel;
  add "cap=%b" t.cap_certification;
  add "strict=%b" t.strict_promises;
  (match t.fault with
  | None -> add "fault=none"
  | Some f -> add "fault=%d:%h" f.fault_seed f.fault_rate);
  add "por=%b" t.reduction.por;
  add "sym=%b" t.reduction.symmetry;
  (match t.reduction.bound_promises with
  | None -> add "bound=none"
  | Some k -> add "bound=%d" k);
  Digest.to_hex (Digest.string (Buffer.contents b))

let pp_opt ppf = function
  | None -> Format.pp_print_string ppf "-"
  | Some n -> Format.pp_print_int ppf n

let pp ppf t =
  Format.fprintf ppf
    "{steps=%d; promises=%d(%s); rsv=%b; cert_fuel=%d; cap=%b; memo=%b; \
     cert_cache=%b; j=%d"
    t.max_steps t.max_promises
    (match t.promise_mode with
    | No_promises -> "none"
    | Semantic -> "semantic"
    | Syntactic -> "syntactic")
    t.reservations t.cert_fuel t.cap_certification t.memoize t.cert_cache
    t.domains;
  (match (t.deadline_ms, t.max_nodes, t.max_live_words) with
  | None, None, None -> ()
  | d, n, w ->
      Format.fprintf ppf "; deadline_ms=%a; max_nodes=%a; max_live_words=%a"
        pp_opt d pp_opt n pp_opt w);
  if t.strict_promises then Format.fprintf ppf "; strict_promises";
  (match t.fault with
  | None -> ()
  | Some f ->
      Format.fprintf ppf "; fault={seed=%d; rate=%g}" f.fault_seed
        f.fault_rate);
  (if t.reduction <> no_reduction then
     let r = t.reduction in
     Format.fprintf ppf "; reduction={por=%b; sym=%b; bound=%a}" r.por
       r.symmetry pp_opt r.bound_promises);
  Format.fprintf ppf "}"
