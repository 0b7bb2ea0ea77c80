(* The traced run's instrumentation.  Every span is recorded here, in
   the benchmark's own code, around a call into one layer's public
   functions; the program's own [Obs.Trace] spans stay off.  Spans
   stay in memory and are exported once, at exit. *)

type span = {
  id : int;
  layer : string;
  name : string;
  parent : int;  (** [-1] at top level *)
  t0 : int;  (** {!Obs.Clock.now_ns} *)
  t1 : int;
  words : float;  (** minor words allocated inside *)
}

(* The layers a span can belong to; "item" spans group one workload
   operation and belong to none. *)
let layers =
  [ "opt"; "race"; "sim"; "refine.explore"; "refine.compare"; "litmus"; "enum"; "service" ]

let recorded : span list ref = ref []
let next_id = ref 0
let current = ref (-1)

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let span ~layer name f =
  let id = fresh_id () in
  let parent = !current in
  current := id;
  let w0 = Gc.minor_words () in
  let t0 = Obs.Clock.now_ns () in
  let finish () =
    let t1 = Obs.Clock.now_ns () in
    current := parent;
    recorded := { id; layer; name; parent; t0; t1; words = Gc.minor_words () -. w0 } :: !recorded
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* A top-level span for an interval timed elsewhere (a daemon round
   trip, whose allocation happens in the daemon). *)
let add ~layer name ~t0 ~t1 =
  recorded := { id = fresh_id (); layer; name; parent = -1; t0; t1; words = 0. } :: !recorded

let item name f = span ~layer:"item" name f

(* ------------------------------------------------------------------ *)
(* Attribution *)

type attribution = {
  wall_s : float;
  self_s : (string * float) list;  (** per layer, every layer listed *)
  alloc_mwords : (string * float) list;
  calls : (string * int) list;
  unexplained_s : float;  (** wall time covered by no layer span *)
}

let s_of_ns ns = float_of_int ns /. 1e9

(* Length of the union of [t0, t1) intervals. *)
let covered intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, max lb b))
        | Some (la, lb) -> (total + (lb - la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0, None) sorted
  in
  match last with Some (a, b) -> total + (b - a) | None -> total

(* Over every recorded span.  With item spans the wall time is
   theirs, so the heap collection before each item is not part of the
   work; without (daemon round trips) it runs from the first span to
   the last. *)
let attribute () =
  let spans = !recorded in
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (s.t1 - s.t0 + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  let in_layer l = List.filter (fun s -> s.layer = l) spans in
  let per f = List.map (fun l -> (l, f (in_layer l))) layers in
  let self s = s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id) in
  let layer_spans = List.filter (fun s -> List.mem s.layer layers) spans in
  let wall_ns =
    match in_layer "item" with
    | [] ->
        List.fold_left max min_int (List.map (fun s -> s.t1) spans)
        - List.fold_left min max_int (List.map (fun s -> s.t0) spans)
    | items -> List.fold_left (fun a s -> a + s.t1 - s.t0) 0 items
  in
  {
    wall_s = s_of_ns wall_ns;
    self_s = per (fun ss -> s_of_ns (List.fold_left (fun a s -> a + self s) 0 ss));
    alloc_mwords = per (fun ss -> List.fold_left (fun a s -> a +. s.words) 0. ss /. 1e6);
    calls = per List.length;
    unexplained_s = s_of_ns (wall_ns - covered (List.map (fun s -> (s.t0, s.t1)) layer_spans));
  }

let write_trace path =
  let events =
    List.rev_map
      (fun s ->
        {
          Obs.Trace.name = s.name;
          cat = s.layer;
          ts_ns = s.t0;
          dur_ns = s.t1 - s.t0;
          tid = 0;
          args =
            [ ("parent", string_of_int s.parent);
              ("minor_words", Printf.sprintf "%.0f" s.words) ];
        })
      !recorded
    |> List.sort (fun a b -> compare a.Obs.Trace.ts_ns b.Obs.Trace.ts_ns)
  in
  Out_channel.with_open_text path (fun oc -> ignore (Obs.Trace.write_events oc events))

(* ------------------------------------------------------------------ *)
(* The Fig. 6 pipeline split into its public stage calls, in
   [Verif.check]'s order and with its early exit. *)

let race layer_name config p =
  match span ~layer:"race" layer_name (fun () -> Race.ww_rf ~config p) with
  | Ok Race.Free -> `Free
  | Ok (Race.Racy _) -> `Racy
  | Ok (Race.Inconclusive _) | Error _ -> `Inconclusive

(* [Refine.check], split: both explorations, then the comparison of
   their prefix closures. *)
let refine config ~target ~source =
  let explore side p =
    span ~layer:"refine.explore" ("refine.explore." ^ side) (fun () ->
        Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving p)
  in
  let t = explore "target" target in
  let s = explore "source" source in
  span ~layer:"refine.compare" "refine.compare" (fun () ->
      let exhaustive o = o.Explore.Enum.completeness = Explore.Enum.Exhaustive in
      if not (exhaustive t && exhaustive s) then `Inconclusive
      else
        let open Explore.Traceset in
        if is_empty (diff (closure t.Explore.Enum.traces) (closure s.Explore.Enum.traces))
        then `Refines
        else `Violates)

let verify (v : Workloads.verify) : Workloads.cls =
  let config = v.Workloads.config in
  let tgt =
    span ~layer:"opt" "opt.transform" (fun () -> v.Workloads.pass.Sim.Verif.transform v.Workloads.prog)
  in
  match race "race.source" config v.Workloads.prog with
  | `Inconclusive -> Workloads.Inconclusive
  | `Racy -> Workloads.Source_race
  | `Free -> (
      let sims =
        span ~layer:"sim" "sim.check" (fun () ->
            Sim.Simcheck.check_program ~inv:v.Workloads.pass.Sim.Verif.invariant
              ~target:tgt ~source:v.Workloads.prog ())
      in
      match List.find_opt (fun (_, r) -> r <> Sim.Simcheck.Holds) sims with
      | Some (_, Sim.Simcheck.Fails _) -> Workloads.Late_refutation
      | Some _ -> Workloads.Inconclusive
      | None -> (
          match refine config ~target:tgt ~source:v.Workloads.prog with
          | `Violates -> Workloads.Late_refutation
          | `Inconclusive -> Workloads.Inconclusive
          | `Refines -> (
              match race "race.target" config tgt with
              | `Free -> Workloads.Verified
              | `Racy -> Workloads.Late_refutation
              | `Inconclusive -> Workloads.Inconclusive)))

(* ------------------------------------------------------------------ *)
(* Microbenchmarks *)

(* ns per call of [f] over [xs], repeated until at least 50 ms have
   been measured. *)
let ns_per_call xs f =
  let n = Array.length xs in
  if n = 0 then 0.
  else
    let t0 = Unix.gettimeofday () in
    let rounds = ref 0 in
    while !rounds = 0 || Unix.gettimeofday () -. t0 < 0.05 do
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) xs;
      incr rounds
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int (n * !rounds)

(* Up to [target] committed worlds reachable in the given programs,
   spread evenly over them. *)
let sample_worlds ?(target = 2000) programs =
  let programs = Array.of_list programs in
  let per = max 1 (target / max 1 (Array.length programs)) in
  let config = { Explore.Config.default with Explore.Config.max_nodes = Some (20 * per) } in
  Array.to_list programs
  |> List.concat_map (fun (p : Lang.Ast.program) ->
         let got = ref [] and n = ref 0 in
         ignore
           (Explore.Enum.iter_reachable ~config Explore.Enum.Interleaving p
              ~f:(fun ~committed w ->
                if committed && !n < per then begin
                  incr n;
                  got := (p.Lang.Ast.code, w) :: !got
                end));
         List.rev !got)
  |> Array.of_list

let ps_layer programs =
  let worlds = sample_worlds programs in
  let copy x : 'a = Marshal.from_string (Marshal.to_string x []) 0 in
  let pairs = Array.map (fun (_, w) -> (w, copy w)) worlds in
  let views =
    Array.map
      (fun (_, (w : Ps.Machine.world)) ->
        let cur = Ps.Machine.cur_ts w in
        let other =
          Ps.Machine.TidMap.fold
            (fun tid ts acc -> if tid <> w.Ps.Machine.cur then ts else acc)
            w.Ps.Machine.tp cur
        in
        (cur.Ps.Thread.view, other.Ps.Thread.view))
      worlds
  in
  [
    ( "ps.thread_steps_ns",
      ns_per_call worlds (fun (code, w) ->
          Ps.Thread.steps ~code (Ps.Machine.cur_ts w) w.Ps.Machine.mem) );
    ( "ps.cert_consistent_ns",
      ns_per_call worlds (fun (code, w) ->
          Ps.Cert.consistent ~code (Ps.Machine.cur_ts w) w.Ps.Machine.mem) );
    ("ps.machine_hash_ns", ns_per_call worlds (fun (_, w) -> Ps.Machine.hash w));
    ("ps.machine_equal_ns", ns_per_call pairs (fun (a, b) -> Ps.Machine.equal a b));
    ("ps.memory_cap_ns", ns_per_call worlds (fun (_, w) -> Ps.Memory.cap w.Ps.Machine.mem));
    ("ps.view_join_ns", ns_per_call views (fun (a, b) -> Ps.View.join a b));
  ]

(* One wire exchange of the workload: the request and the rendered
   reply the daemon would send for it. *)
type exchange = {
  work : Service.Proto.work;
  wconfig : Explore.Config.t;
  program : Lang.Ast.program;
  output : string;
  exit_code : int;
}

let wire_layer ~dir exchanges =
  let xs = Array.of_list exchanges in
  let request x = Service.Proto.Work (x.work, x.wconfig, None) in
  let response x =
    Service.Proto.Reply
      { exit_code = x.exit_code; output = x.output; cached = false; conclusive = x.exit_code < 2 }
  in
  let roundtrip to_sexp of_sexp v =
    match Lang.Sexp.parse (Lang.Sexp.to_string (to_sexp v)) with
    | Ok s -> ignore (Sys.opaque_identity (of_sexp s))
    | Error e -> failwith e
  in
  let store = Service.Store.open_ dir in
  let keys =
    Array.map
      (fun x ->
        Service.Store.key
          ~program_digest:(Service.Store.program_digest x.program)
          ~kind:(Service.Proto.kind_tag x.work)
          ~fingerprint:(Explore.Config.fingerprint x.wconfig))
      xs
  in
  let budget x = Service.Store.budget_of_config x.wconfig in
  let put_us =
    ns_per_call (Array.mapi (fun i x -> (keys.(i), x)) xs) (fun (key, x) ->
        Service.Store.put store ~key
          {
            Service.Store.exit_code = x.exit_code;
            output = x.output;
            conclusive = x.exit_code < 2;
            budget = budget x;
          })
    /. 1e3
  in
  let find_us =
    ns_per_call (Array.mapi (fun i x -> (keys.(i), budget x)) xs) (fun (key, budget) ->
        Service.Store.find store ~key ~budget)
    /. 1e3
  in
  [
    ( "proto.request_codec_us",
      ns_per_call (Array.map request xs)
        (roundtrip Service.Proto.sexp_of_request Service.Proto.request_of_sexp)
      /. 1e3 );
    ( "proto.response_codec_us",
      ns_per_call (Array.map response xs)
        (roundtrip Service.Proto.sexp_of_response Service.Proto.response_of_sexp)
      /. 1e3 );
    ("store.put_us", put_us);
    ("store.find_us", find_us);
  ]

(* ------------------------------------------------------------------ *)
(* Counters, from the exported psopt_* families only: deltas of two
   scrapes of a registry in the Prometheus exposition format (this
   process's own, or a daemon's over the Metrics RPC). *)

type scrape = Obs.Metrics.exposed list

let own_scrape () = Obs.Metrics.parse_exposition (Obs.Metrics.render ())

let value ?label (m : scrape) name =
  List.fold_left
    (fun acc (e : Obs.Metrics.exposed) ->
      if
        e.Obs.Metrics.ex_name = name
        && match label with None -> true | Some l -> List.mem l e.Obs.Metrics.ex_labels
      then acc +. e.Obs.Metrics.ex_value
      else acc)
    0. m

let ratio a b = if b > 0. then a /. b else 0.

(* The counter series the per-layer metrics are built from. *)
let series =
  [
    ("searches", "psopt_explore_searches_total", None);
    ("nodes", "psopt_explore_nodes_total", None);
    ("transitions", "psopt_explore_transitions_total", None);
    ("memo_hits", "psopt_explore_memo_hits_total", None);
    ("truncated", "psopt_explore_truncated_total", None);
    ("checks", "psopt_explore_cert_checks_total", None);
    ("runs", "psopt_explore_cert_outcomes_total", Some ("outcome", "run"));
    ("cache_hits", "psopt_explore_cert_outcomes_total", Some ("outcome", "cache_hit"));
    ("run_ns", "psopt_explore_cert_run_duration_ns_sum", None);
  ]

type counts = (string * float) list

let read (m : scrape) : counts = List.map (fun (k, name, label) -> (k, value ?label m name)) series
let no_counts : counts = List.map (fun (k, _, _) -> (k, 0.)) series

(* [acc] plus what happened between the two scrapes. *)
let accumulate acc ~before ~after =
  List.map2 (fun (k, x) ((_, b), (_, a)) -> (k, x +. a -. b)) acc
    (List.combine (read before) (read after))

let counters (d : counts) =
  let g k = List.assoc k d in
  [
    ("enum.searches", g "searches");
    ("enum.nodes", g "nodes");
    ("enum.transitions", g "transitions");
    ("enum.memo_hit_ratio", ratio (g "memo_hits") (g "memo_hits" +. g "nodes"));
    ("enum.truncated", g "truncated");
    ("cert.checks", g "checks");
    ("cert.run_ratio", ratio (g "runs") (g "checks"));
    ("cert.cache_hit_ratio", ratio (g "cache_hits") (g "checks"));
    ("cert.run_s", g "run_ns" /. 1e9);
  ]

let mean_ms ~before ~after family =
  let d s = value after (family ^ s) -. value before (family ^ s) in
  ratio (d "_sum") (d "_count") /. 1e6
