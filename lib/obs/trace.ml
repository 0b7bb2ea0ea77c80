type event = {
  name : string;
  cat : string;
  ts_ns : int;
  dur_ns : int;
  tid : int;
  args : (string * string) list;
}

let enabled = Atomic.make false
let on () = Atomic.get enabled

(* ---- Trace contexts ----

   A context names one logical request: [trace_id] groups every span
   the request touched — across retries, connections and processes —
   and [span_id] names the request's root span on the side that minted
   it.  The context travels over the wire (Service.Proto's optional
   trace field) so daemon-side spans carry the caller's ids; the merge
   tool then stitches client- and server-side traces into one timeline
   per request. *)

type ctx = { trace_id : string; span_id : string }

(* Ids are minted from a process-global PRNG behind a mutex: minting
   happens once per logical request, not per span, so contention is
   irrelevant next to a connect round trip. *)
let id_state =
  lazy
    (Random.State.make
       [|
         int_of_float (Unix.gettimeofday () *. 1e6);
         Unix.getpid ();
         0x7ace1d;
       |])

let id_m = Mutex.create ()

let genid () =
  Mutex.lock id_m;
  let st = Lazy.force id_state in
  let a = Random.State.bits st and b = Random.State.bits st in
  Mutex.unlock id_m;
  Printf.sprintf "%08x%08x" (a land 0xffffffff) (b land 0xffffffff)

let new_ctx () = { trace_id = genid (); span_id = genid () }

(* The current context is per *thread*, not per domain: the daemon
   serves connections on sys-threads that all share domain 0, and two
   concurrent requests must not stamp each other's spans.  The table
   is only consulted while tracing is on, so the disabled hot path
   still costs one [Atomic.get]. *)
let ctxs : (int, ctx) Hashtbl.t = Hashtbl.create 64
let ctx_m = Mutex.create ()

let current () =
  if not (Atomic.get enabled) then None
  else begin
    Mutex.lock ctx_m;
    let r = Hashtbl.find_opt ctxs (Thread.id (Thread.self ())) in
    Mutex.unlock ctx_m;
    r
  end

let with_ctx c f =
  if not (Atomic.get enabled) then f ()
  else begin
    let id = Thread.id (Thread.self ()) in
    Mutex.lock ctx_m;
    let prev = Hashtbl.find_opt ctxs id in
    (match c with
    | Some c -> Hashtbl.replace ctxs id c
    | None -> Hashtbl.remove ctxs id);
    Mutex.unlock ctx_m;
    Fun.protect
      ~finally:(fun () ->
        Mutex.lock ctx_m;
        (match prev with
        | Some p -> Hashtbl.replace ctxs id p
        | None -> Hashtbl.remove ctxs id);
        Mutex.unlock ctx_m)
      f
  end

(* Per-domain buffers.  Each domain's first recorded span allocates a
   buffer through Domain.DLS and registers it in [all] under [lock];
   afterwards the recording path touches only domain-local state.  A
   cap bounds memory on runaway traces; overflow is counted, not
   silently dropped. *)
let max_events_per_domain = 1 lsl 18

type buf = {
  mutable evs : event list;
  mutable n : int;
  mutable dropped : int;
  (* Cleared buffers must not resurrect spans recorded before the
     clear; the generation stamp invalidates stale buffers instead of
     racing domains that are mid-record. *)
  mutable gen : int;
  dom : int;
}

let all : buf list ref = ref []
let lock = Mutex.create ()
let generation = Atomic.make 0

(* Buffer overflow is visible in the scraped registry too, not only in
   the CLI's post-run report: a fleet daemon that is quietly losing
   spans must show it on `psopt metrics`. *)
let m_dropped =
  Metrics.counter ~help:"Spans discarded because a per-domain buffer hit its cap"
    "psopt_obs_spans_dropped_total"

let key =
  Domain.DLS.new_key (fun () ->
    let b =
      { evs = []; n = 0; dropped = 0; gen = Atomic.get generation;
        dom = (Domain.self () :> int) }
    in
    Mutex.lock lock;
    all := b :: !all;
    Mutex.unlock lock;
    b)

let record ?(args = []) name cat t0 t1 =
  let b = Domain.DLS.get key in
  let gen = Atomic.get generation in
  if b.gen <> gen then begin
    b.gen <- gen;
    b.evs <- [];
    b.n <- 0;
    b.dropped <- 0
  end;
  if b.n >= max_events_per_domain then begin
    b.dropped <- b.dropped + 1;
    Metrics.incr m_dropped
  end
  else begin
    let args =
      match current () with
      | Some c ->
          ("trace_id", c.trace_id) :: ("span_id", c.span_id) :: args
      | None -> args
    in
    b.evs <-
      { name; cat; ts_ns = t0; dur_ns = t1 - t0; tid = b.dom; args } :: b.evs;
    b.n <- b.n + 1
  end

let span ?(cat = "psopt") ?args name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let t0 = Clock.now_ns () in
    match f () with
    | v ->
        record ?args name cat t0 (Clock.now_ns ());
        v
    | exception e ->
        record ?args name cat t0 (Clock.now_ns ());
        raise e
  end

(* An explicit span for intervals not shaped like a thunk — the
   admission gate's queue wait, a load generator's intended-start
   anchoring.  No-op while tracing is off, like [span]. *)
let add ?(cat = "psopt") ?args ~name ~ts_ns ~dur_ns () =
  if Atomic.get enabled then record ?args name cat ts_ns (ts_ns + dur_ns)

let start () =
  ignore (Atomic.fetch_and_add generation 1);
  Atomic.set enabled true

let stop () = Atomic.set enabled false

let live_bufs () =
  let gen = Atomic.get generation in
  Mutex.lock lock;
  let bufs = List.filter (fun b -> b.gen = gen) !all in
  Mutex.unlock lock;
  bufs

let events () =
  let evs = List.concat_map (fun b -> b.evs) (live_bufs ()) in
  List.stable_sort (fun a b -> compare (a.ts_ns, a.tid) (b.ts_ns, b.tid)) evs

let dropped () = List.fold_left (fun acc b -> acc + b.dropped) 0 (live_bufs ())

(* ---- Chrome trace_event JSON export ---- *)

let event_json ~pid ~t0 e =
  Json.Obj
    ([
       ("name", Json.String e.name);
       ("cat", Json.String e.cat);
       ("ph", Json.String "X");
       ("ts", Json.Float (Clock.us_of_ns (e.ts_ns - t0)));
       ("dur", Json.Float (Clock.us_of_ns e.dur_ns));
       ("pid", Json.Int pid);
       ("tid", Json.Int e.tid);
     ]
    @
    if e.args = [] then []
    else
      [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) e.args)) ])

(* Timestamps are normalized so the timeline starts at zero, but the
   subtracted base is preserved as a top-level [baseNs] field: that is
   what lets [merge] re-anchor traces from different processes onto
   one absolute clock ({!Clock.now_ns} is epoch-based on every side). *)
let output_document oc evs =
  let t0 = match evs with [] -> 0 | (_, e) :: _ -> e.ts_ns in
  Json.output oc
    (Json.Obj
       [
         ("displayTimeUnit", Json.String "ms");
         ("baseNs", Json.Int t0);
         ( "traceEvents",
           Json.List (List.map (fun (pid, e) -> event_json ~pid ~t0 e) evs) );
       ]);
  List.length evs

let write_events oc evs = output_document oc (List.map (fun e -> (1, e)) evs)
let write_channel oc = write_events oc (events ())

let write_file path =
  match open_out path with
  | exception Sys_error m -> Error m
  | oc ->
      let n = write_channel oc in
      close_out oc;
      Ok n

(* ---- Shape checking ---- *)

type shape = { n_events : int; names : string list }

let ( let* ) = Result.bind

(* The [traceEvents] array of a document, each event checked to be an
   object carrying numeric [ts]/[dur] and mapped through [f]. *)
let trace_events doc f =
  let* v =
    Result.map_error (fun m -> "not valid JSON: " ^ m) (Json.of_string doc)
  in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | (Json.Obj _ as e) :: rest ->
        let num k =
          match Option.bind (Json.member k e) Json.number with
          | Some f -> Ok f
          | None -> Error (Printf.sprintf "event %d: missing number %S" i k)
        in
        let* x = f i e num in
        go (i + 1) (x :: acc) rest
    | _ :: _ -> Error (Printf.sprintf "event %d: not an object" i)
  in
  match v with
  | Json.Obj _ -> (
      match Json.member "traceEvents" v with
      | Some (Json.List evs) -> Result.map (fun xs -> (v, xs)) (go 0 [] evs)
      | Some _ -> Error "traceEvents is not an array"
      | None -> Error "missing traceEvents key")
  | _ -> Error "top level is not an object"

let validate_string doc =
  let* _, names =
    trace_events doc (fun i e num ->
        let str k =
          match Json.member k e with
          | Some (Json.String s) -> Ok s
          | _ -> Error (Printf.sprintf "event %d: missing string %S" i k)
        in
        let* name = str "name" in
        let* ph = str "ph" in
        let* () =
          if ph = "X" then Ok ()
          else Error (Printf.sprintf "event %d: ph=%S, expected \"X\"" i ph)
        in
        let* _ = num "ts" in
        let* _ = num "dur" in
        let* _ = num "pid" in
        let* _ = num "tid" in
        Ok name)
  in
  Ok { n_events = List.length names; names = List.sort_uniq compare names }

let validate_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> Error m
  | doc -> validate_string doc

(* ---- Merging traces from several processes ----

   Each input document carries [baseNs] — the absolute {!Clock.now_ns}
   stamp its normalized timestamps were measured from — so events from
   a client and a daemon rebase onto one shared clock.  Every input
   file becomes its own [pid] track group (file order), which is how
   Perfetto shows the processes side by side; spans of one request
   line up by their [trace_id] arg. *)

let events_of_doc ~pid doc =
  let* v, evs =
    trace_events doc (fun _ e num ->
        let str k d =
          match Json.member k e with Some (Json.String s) -> s | _ -> d
        in
        let* ts_us = num "ts" in
        let* dur_us = num "dur" in
        let tid =
          match Option.bind (Json.member "tid" e) Json.number with
          | Some f -> int_of_float f
          | None -> 0
        in
        let args =
          match Json.member "args" e with
          | Some (Json.Obj kvs) ->
              List.filter_map
                (fun (k, v) ->
                  match v with Json.String s -> Some (k, s) | _ -> None)
                kvs
          | _ -> []
        in
        Ok
          {
            name = str "name" "?";
            cat = str "cat" "";
            ts_ns = int_of_float (ts_us *. 1e3);
            dur_ns = int_of_float (dur_us *. 1e3);
            tid;
            args;
          })
  in
  let base =
    match Json.member "baseNs" v with Some (Json.Int b) -> b | _ -> 0
  in
  Ok (List.map (fun e -> (pid, { e with ts_ns = base + e.ts_ns })) evs)

let merge_files ~inputs ~output =
  let rec read pid acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | path :: rest -> (
        match In_channel.with_open_bin path In_channel.input_all with
        | exception Sys_error m -> Error m
        | doc -> (
            match events_of_doc ~pid doc with
            | Ok evs -> read (pid + 1) (evs :: acc) rest
            | Error m -> Error (path ^ ": " ^ m)))
  in
  let* evs = read 1 [] inputs in
  let evs =
    List.stable_sort
      (fun (pa, a) (pb, b) -> compare (a.ts_ns, pa) (b.ts_ns, pb))
      evs
  in
  match open_out output with
  | exception Sys_error m -> Error m
  | oc ->
      let n = output_document oc evs in
      close_out oc;
      Ok n
