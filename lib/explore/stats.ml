(* One counter array per worker: the hot path bumps unsynchronized
   cells, and the search's coordinator sums the workers' arrays once
   after [Domain.join] (which publishes every worker's writes), so the
   numbers are exact without a shared counter on the hot path.

   Every counter is one [def] below; [create], [add], [pp],
   [truncation_reasons] and [publish] iterate the table. *)

type merge = Sum | Max | Per_search
type group = Always | Budget | Reduction

(* A counter's metric: the cumulative [psopt_explore_<name>_total]
   family with this help text, or one [outcome] series of the
   certification partition. *)
type metric = Total of string | Cert_outcome of string

type entry = {
  name : string;
  init : int;
  merge : merge;
  group : group;
  reason : Errors.reason option;
  metric : Obs.Metrics.counter option;
}

type counter = int

let table = ref []

let def ?(init = 0) ?(merge = Sum) ?(group = Always) ?reason ?metric name =
  let metric =
    Option.map
      (function
        | Total help ->
            Obs.Metrics.counter ~help ("psopt_explore_" ^ name ^ "_total")
        | Cert_outcome outcome ->
            Obs.Metrics.counter
              ~help:
                "Consistency checks by outcome (exact partition of cert \
                 checks)"
              ~labels:[ ("outcome", outcome) ]
              "psopt_explore_cert_outcomes_total")
      metric
  in
  table := { name; init; merge; group; reason; metric } :: !table;
  List.length !table - 1

(* Declaration order is [pp] order within each group, and the
   registration order of the [outcome] series. *)
let nodes = def "nodes" ~metric:(Total "Machine states visited by exploration")
let transitions = def "transitions" ~metric:(Total "Micro-steps enumerated")
let memo_hits = def "memo_hits" ~metric:(Total "Suffix-set memo hits")
let memo_size = def "memo_size" ~merge:Per_search

let cert_checks =
  def "cert_checks" ~metric:(Total "Consistency checks requested")

let cert_cache_hits = def "cert_cache_hits" ~metric:(Cert_outcome "cache_hit")
let cert_runs = def "cert_runs" ~metric:(Cert_outcome "run")
let cert_trivial = def "cert_trivial" ~metric:(Cert_outcome "trivial")
let cand_cache_hits = def "cand_cache_hits"
let cert_cache_size = def "cert_cache_size" ~merge:Per_search
let cycles = def "cycles"
let cuts = def "cuts" ~reason:Errors.Step_budget
let promises = def "promises"
let peak_depth = def "peak_depth" ~merge:Max
let domains_used = def "domains" ~init:1 ~merge:Per_search
let deadline_hits = def "deadline_hits" ~group:Budget ~reason:Errors.Deadline

let node_budget_hits =
  def "node_budget_hits" ~group:Budget ~reason:Errors.Node_budget

let oom_hits = def "oom_hits" ~group:Budget ~reason:Errors.Oom

let promise_budget_hits =
  def "promise_budget_hits" ~group:Budget ~reason:Errors.Promise_budget

let faults_injected = def "faults_injected" ~group:Budget ~reason:Errors.Fault

let cert_faults =
  def "cert_faults" ~group:Budget ~metric:(Cert_outcome "fault")

let sleep_prunes = def "sleep_prunes" ~group:Reduction
let persistent_prunes = def "persistent_prunes" ~group:Reduction
let symmetry_folds = def "symmetry_folds" ~group:Reduction
let promise_bound_hits = def "promise_bound_hits" ~group:Reduction
let output_cycles = def "output_cycles" ~group:Budget ~reason:Errors.Output_cycle
let entries = Array.of_list (List.rev !table)
let all = List.init (Array.length entries) Fun.id
let name k = entries.(k).name

type t = { counts : int array; started_ns : int; mutable elapsed_ns : int }

let create () =
  {
    counts = Array.map (fun e -> e.init) entries;
    started_ns = Obs.Clock.now_ns ();
    elapsed_ns = 0;
  }

let get s k = s.counts.(k)
let set s k v = s.counts.(k) <- v
let bump s k n = s.counts.(k) <- s.counts.(k) + n
let incr s k = bump s k 1
let elapsed_ms s = Obs.Clock.ms_of_ns s.elapsed_ns

let add ~into:s w =
  Array.iteri
    (fun k e ->
      match e.merge with
      | Sum -> bump s k w.counts.(k)
      | Max -> s.counts.(k) <- max s.counts.(k) w.counts.(k)
      | Per_search -> ())
    entries

(* Errors.reason's constructor order. *)
let truncation_reasons s =
  List.filter_map
    (fun k ->
      match entries.(k).reason with
      | Some r when s.counts.(k) > 0 -> Some r
      | _ -> None)
    all
  |> List.sort compare

(* ---- metrics-registry mirror ----
   Cumulative process-wide counters absorbing the per-search values;
   the exact cert partition survives as label values of one family, so
   sum-over-outcomes still equals the checks counter. *)

let m_searches =
  Obs.Metrics.counter ~help:"Explorations finished" "psopt_explore_searches_total"

let m_truncated =
  Obs.Metrics.counter ~help:"Explorations finished incomplete"
    "psopt_explore_truncated_total"

let publish s =
  Array.iteri
    (fun k e ->
      match e.metric with
      | Some m when s.counts.(k) > 0 -> Obs.Metrics.add m s.counts.(k)
      | _ -> ())
    entries;
  Obs.Metrics.incr m_searches

let finish s =
  s.elapsed_ns <- Obs.Clock.now_ns () - s.started_ns;
  publish s;
  if truncation_reasons s <> [] then Obs.Metrics.incr m_truncated

(* The always-printed line, then the budget and reduction groups, each
   only when one of its counters is nonzero. *)
let pp ppf s =
  let group g = List.filter (fun k -> entries.(k).group = g) all in
  let field k = Format.fprintf ppf "%s=%d" (name k) s.counts.(k) in
  List.iter (fun k -> field k; Format.pp_print_char ppf ' ') (group Always);
  Format.fprintf ppf "elapsed_ms=%d" (elapsed_ms s);
  List.iter
    (fun g ->
      let ks = group g in
      if List.exists (fun k -> s.counts.(k) > 0) ks then
        List.iter (fun k -> Format.pp_print_char ppf ' '; field k) ks)
    [ Budget; Reduction ]
