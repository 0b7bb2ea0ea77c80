(* One plain record per worker: the hot path bumps unsynchronized
   fields, and the search's coordinator sums the workers' records once
   after [Domain.join] (which publishes every worker's writes), so the
   numbers are exact without a shared counter on the hot path. *)
type t = {
  mutable nodes : int;
  mutable transitions : int;
  mutable memo_hits : int;
  mutable memo_size : int;
  mutable cert_checks : int;
  mutable cert_cache_hits : int;
  mutable cert_runs : int;
  mutable cert_trivial : int;
  mutable cert_faults : int;
  mutable cand_cache_hits : int;
  mutable cert_cache_size : int;
  mutable cycles : int;
  mutable cuts : int;
  mutable promises : int;
  mutable peak_depth : int;
  mutable deadline_hits : int;
  mutable node_budget_hits : int;
  mutable oom_hits : int;
  mutable promise_budget_hits : int;
  mutable faults_injected : int;
  mutable sleep_prunes : int;
  mutable persistent_prunes : int;
  mutable symmetry_folds : int;
  mutable promise_bound_hits : int;
  mutable domains_used : int;
  started_ns : int;
  mutable elapsed_ns : int;
}

let create () =
  {
    nodes = 0;
    transitions = 0;
    memo_hits = 0;
    memo_size = 0;
    cert_checks = 0;
    cert_cache_hits = 0;
    cert_runs = 0;
    cert_trivial = 0;
    cert_faults = 0;
    cand_cache_hits = 0;
    cert_cache_size = 0;
    cycles = 0;
    cuts = 0;
    promises = 0;
    peak_depth = 0;
    deadline_hits = 0;
    node_budget_hits = 0;
    oom_hits = 0;
    promise_budget_hits = 0;
    faults_injected = 0;
    sleep_prunes = 0;
    persistent_prunes = 0;
    symmetry_folds = 0;
    promise_bound_hits = 0;
    domains_used = 1;
    started_ns = Obs.Clock.now_ns ();
    elapsed_ns = 0;
  }

let elapsed_ms s = Obs.Clock.ms_of_ns s.elapsed_ns

let add ~into:s w =
  s.nodes <- s.nodes + w.nodes;
  s.transitions <- s.transitions + w.transitions;
  s.memo_hits <- s.memo_hits + w.memo_hits;
  s.cert_checks <- s.cert_checks + w.cert_checks;
  s.cert_cache_hits <- s.cert_cache_hits + w.cert_cache_hits;
  s.cert_runs <- s.cert_runs + w.cert_runs;
  s.cert_trivial <- s.cert_trivial + w.cert_trivial;
  s.cert_faults <- s.cert_faults + w.cert_faults;
  s.cand_cache_hits <- s.cand_cache_hits + w.cand_cache_hits;
  s.cycles <- s.cycles + w.cycles;
  s.cuts <- s.cuts + w.cuts;
  s.promises <- s.promises + w.promises;
  s.peak_depth <- max s.peak_depth w.peak_depth;
  s.deadline_hits <- s.deadline_hits + w.deadline_hits;
  s.node_budget_hits <- s.node_budget_hits + w.node_budget_hits;
  s.oom_hits <- s.oom_hits + w.oom_hits;
  s.promise_budget_hits <- s.promise_budget_hits + w.promise_budget_hits;
  s.faults_injected <- s.faults_injected + w.faults_injected;
  s.sleep_prunes <- s.sleep_prunes + w.sleep_prunes;
  s.persistent_prunes <- s.persistent_prunes + w.persistent_prunes;
  s.symmetry_folds <- s.symmetry_folds + w.symmetry_folds;
  s.promise_bound_hits <- s.promise_bound_hits + w.promise_bound_hits

(* ---- metrics-registry mirror ----
   Cumulative process-wide counters absorbing the per-search [t]
   values; the exact cert partition survives as label values of one
   family, so sum-over-outcomes still equals the checks counter. *)

let m_nodes =
  Obs.Metrics.counter ~help:"Machine states visited by exploration"
    "psopt_explore_nodes_total"

let m_transitions =
  Obs.Metrics.counter ~help:"Micro-steps enumerated" "psopt_explore_transitions_total"

let m_memo_hits =
  Obs.Metrics.counter ~help:"Suffix-set memo hits" "psopt_explore_memo_hits_total"

let m_cert_checks =
  Obs.Metrics.counter ~help:"Consistency checks requested"
    "psopt_explore_cert_checks_total"

let cert_outcome outcome =
  Obs.Metrics.counter
    ~help:"Consistency checks by outcome (exact partition of cert checks)"
    ~labels:[ ("outcome", outcome) ]
    "psopt_explore_cert_outcomes_total"

let m_cert_cache_hits = cert_outcome "cache_hit"
let m_cert_runs = cert_outcome "run"
let m_cert_trivial = cert_outcome "trivial"
let m_cert_faults = cert_outcome "fault"

let m_searches =
  Obs.Metrics.counter ~help:"Explorations finished" "psopt_explore_searches_total"

let m_truncated =
  Obs.Metrics.counter ~help:"Explorations finished incomplete"
    "psopt_explore_truncated_total"

let truncation_reasons s =
  let add cond r acc = if cond then r :: acc else acc in
  []
  |> add (s.faults_injected > 0) Errors.Fault
  |> add (s.oom_hits > 0) Errors.Oom
  |> add (s.node_budget_hits > 0) Errors.Node_budget
  |> add (s.deadline_hits > 0) Errors.Deadline
  |> add (s.promise_budget_hits > 0) Errors.Promise_budget
  |> add (s.cuts > 0) Errors.Step_budget

let publish s =
  let add m v = if v > 0 then Obs.Metrics.add m v in
  add m_nodes s.nodes;
  add m_transitions s.transitions;
  add m_memo_hits s.memo_hits;
  add m_cert_checks s.cert_checks;
  add m_cert_cache_hits s.cert_cache_hits;
  add m_cert_runs s.cert_runs;
  add m_cert_trivial s.cert_trivial;
  add m_cert_faults s.cert_faults;
  Obs.Metrics.incr m_searches

let finish s =
  s.elapsed_ns <- Obs.Clock.now_ns () - s.started_ns;
  publish s;
  if truncation_reasons s <> [] then Obs.Metrics.incr m_truncated

module Service = struct
  type t = {
    served : int Atomic.t;
    store_hits : int Atomic.t;
    store_misses : int Atomic.t;
    busy : int Atomic.t;
    errors : int Atomic.t;
    sheds : int Atomic.t;
    expired : int Atomic.t;
    evictions : int Atomic.t;
  }

  let create () =
    {
      served = Atomic.make 0;
      store_hits = Atomic.make 0;
      store_misses = Atomic.make 0;
      busy = Atomic.make 0;
      errors = Atomic.make 0;
      sheds = Atomic.make 0;
      expired = Atomic.make 0;
      evictions = Atomic.make 0;
    }

  let pp ppf s =
    let ( ! ) = Atomic.get in
    Format.fprintf ppf
      "served=%d hits=%d misses=%d busy=%d errors=%d sheds=%d expired=%d \
       evictions=%d"
      !(s.served) !(s.store_hits) !(s.store_misses) !(s.busy) !(s.errors)
      !(s.sheds) !(s.expired) !(s.evictions)
end

let pp ppf s =
  Format.fprintf ppf
    "nodes=%d transitions=%d memo_hits=%d memo_size=%d cert_checks=%d \
     cert_cache_hits=%d cert_runs=%d cert_trivial=%d cand_cache_hits=%d \
     cert_cache_size=%d cycles=%d cuts=%d promises=%d peak_depth=%d \
     domains=%d elapsed_ms=%d"
    s.nodes s.transitions s.memo_hits s.memo_size
    s.cert_checks s.cert_cache_hits s.cert_runs s.cert_trivial
    s.cand_cache_hits s.cert_cache_size s.cycles s.cuts
    s.promises s.peak_depth s.domains_used
    (elapsed_ms s);
  if
    s.deadline_hits > 0 || s.node_budget_hits > 0 || s.oom_hits > 0
    || s.promise_budget_hits > 0 || s.faults_injected > 0
  then
    Format.fprintf ppf
      " deadline_hits=%d node_budget_hits=%d oom_hits=%d \
       promise_budget_hits=%d faults_injected=%d cert_faults=%d"
      s.deadline_hits s.node_budget_hits s.oom_hits
      s.promise_budget_hits s.faults_injected s.cert_faults;
  if
    s.sleep_prunes > 0 || s.persistent_prunes > 0
    || s.symmetry_folds > 0 || s.promise_bound_hits > 0
  then
    Format.fprintf ppf
      " sleep_prunes=%d persistent_prunes=%d symmetry_folds=%d \
       promise_bound_hits=%d"
      s.sleep_prunes s.persistent_prunes s.symmetry_folds
      s.promise_bound_hits
