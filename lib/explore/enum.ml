module TidMap = Ps.Machine.TidMap

type discipline = Interleaving | Non_preemptive

type completeness = Exhaustive | Truncated of Errors.reason list

type outcome = {
  traces : Traceset.t;
  completeness : completeness;
  exact : bool;
  stats : Stats.t;
}

let pp_completeness ppf = function
  | Exhaustive -> Format.pp_print_string ppf "exhaustive"
  | Truncated rs -> Format.fprintf ppf "truncated (%a)" Errors.pp_reasons rs

let completeness_of stats =
  match Stats.truncation_reasons stats with
  | [] -> Exhaustive
  | reasons -> Truncated reasons

let pp_discipline ppf = function
  | Interleaving -> Format.pp_print_string ppf "interleaving"
  | Non_preemptive -> Format.pp_print_string ppf "non-preemptive"

(* A search node: machine world, switch bit (always [true] under the
   interleaving discipline) and per-thread promise budget spent. *)
module Node = struct
  type t = {
    world : Ps.Machine.world;
    bit : bool;
    promised : int TidMap.t;
    (* Memoized structural hash, 0 = not yet computed.  It is probed
       on every table lookup, and published cache entries carry it to
       the absorbing domain for free.  The unsynchronized write is
       benign: every racing writer stores the same value. *)
    mutable hv : int;
    (* The world's leaf hashes ({!Ps.Machine.leaves}), built by
       [successors] from the parent's, until the node is expanded: then
       its hash is fixed and its children have taken what they share
       with it, so memo keys carry none. *)
    mutable leaves : Ps.Machine.leaves option;
  }

  let make ?leaves world ~bit ~promised =
    { world; bit; promised; hv = 0; leaves }
  let world n = n.world

  let of_world_hash n wh =
    let promised =
      TidMap.fold
        (fun tid k h -> Ps.Time.hash_combine (Ps.Time.hash_combine h tid) k)
        n.promised 0x6e6f
    in
    let h =
      Ps.Time.hash_combine
        (Ps.Time.hash_combine wh (Bool.to_int n.bit))
        promised
    in
    if h = 0 then 0x6e6f else h

  let scratch_hash n = of_world_hash n (Ps.Machine.hash n.world)

  (* A node without leaves (the root, a [canon] image, a node expanded
     before) hashes its whole world. *)
  let hash n =
    if n.hv <> 0 then n.hv
    else begin
      let h =
        match n.leaves with
        | Some lv -> of_world_hash n (Ps.Machine.hash_leaves n.world lv)
        | None -> scratch_hash n
      in
      n.hv <- h;
      h
    end

  (* The leaves [successors] builds the children's from, computed
     from the world when the node has none. *)
  let leaves n =
    match n.leaves with
    | Some lv -> lv
    | None ->
        let lv = Ps.Machine.leaves n.world in
        n.leaves <- Some lv;
        lv

  (* [successors] is done with the node: fix its hash while the leaves
     make it cheap, and drop them. *)
  let expanded n lv =
    if n.hv = 0 then
      n.hv <- of_world_hash n (Ps.Machine.hash_leaves n.world lv);
    n.leaves <- None

  (* Structural equality (the world's, the bit's and the budget's).
     The memoized hashes go first: the tables
     call [equal] on every entry of a probed bucket, and distinct nodes
     almost never share a hash. *)
  let equal a b =
    a == b
    || hash a = hash b
       && Bool.equal a.bit b.bit
       && Ps.Machine.equal a.world b.world
       && Ps.Machine.Tids.equal Int.equal a.promised b.promised
end

module NodeTbl = Hashtbl.Make (Node)

(* Certification-cache key: the certified configuration.  The verdict
   of [Ps.Cert.consistent] is a pure function of the thread state and
   the memory (fuel, capping and code are fixed per search), so one
   entry answers every successor enumeration that reaches the same
   configuration — which the interleavings of the other threads do
   constantly. *)
module CertKey = struct
  type t = { ts : Ps.Thread.ts; mem : Ps.Memory.t; mutable khv : int }

  let of_hashes th mh =
    let h = Ps.Time.hash_combine th mh in
    if h = 0 then 0x4b45 else h

  let make ts mem = { ts; mem; khv = 0 }

  (* The key of a node's own configuration (its current thread and the
     memory), hashed from the node's leaves. *)
  let own (wd : Ps.Machine.world) lv =
    {
      ts = Ps.Machine.cur_ts wd;
      mem = wd.Ps.Machine.mem;
      khv =
        of_hashes
          (Ps.Machine.thread_hash lv wd.Ps.Machine.cur)
          (Ps.Machine.memory_hash lv);
    }

  let scratch_hash k = of_hashes (Ps.Thread.hash k.ts) (Ps.Memory.hash k.mem)

  (* Memoized as {!Node.hash} is: each key is probed several times
     (fault site, cache lookup, cache insert, absorption). *)
  let hash k =
    if k.khv <> 0 then k.khv
    else begin
      let h = scratch_hash k in
      k.khv <- h;
      h
    end

  (* Hashes first, as in {!Node.equal}. *)
  let equal a b =
    a == b
    || hash a = hash b
       && Ps.Thread.equal a.ts b.ts
       && Ps.Memory.equal a.mem b.mem
end

module CertTbl = Hashtbl.Make (CertKey)

type kind = Thread_step | Promise_step | Switch_step

(* One successor: how it was taken, its index among the candidates of
   its kind (before any filtering), the thread event, the next node and
   how the step renumbered the timestamps. *)
type succ = {
  kind : kind;
  choice : int;
  event : Ps.Event.te option;
  next : Node.t;
  renumbering : Ps.Memory.renumbering option;
}

(* A child's traces as its parent sees them: an output step prepends
   its value. *)
let label event traces =
  match event with
  | Some (Ps.Event.Out v) -> Traceset.prepend v traces
  | _ -> traces

(* State shared by every worker domain of one search.

   The hot-path caches (cert verdicts, promise candidates, memoized
   suffix sets) are domain-local; fresh entries flow between domains
   through the lock-free {!Pool.Chan} channels in batches, so the hot
   path never takes a lock and never touches a contended cache line.

   The sticky resource flags are atomics so one worker tripping the
   wall-clock or heap budget abandons every other worker's remaining
   subtrees too; [node_count] is a shared exact counter allocated only
   when [max_nodes] is configured (the budget must trip at the
   configured total across domains, which batched per-domain counters
   cannot guarantee). *)
(* Reduction context, computed once per search from the program
   (docs/REDUCTION.md).  [classes] lists the groups of >= 2 threads
   running syntactically identical code (tids ascending, the
   contiguous ids [Ps.Machine.init] assigns); [class_of.(tid)] is the
   index of the class containing [tid], or -1; [thread_fns.(tid)] is
   the thread's root function name (the only fname that can differ
   between same-class threads — [equal_codeheap] equality forces
   equal [Call] targets, so callee names are shared); [acyclic.(tid)]
   says the thread's whole program is Call-free with a DAG block
   graph — the gate for the symmetric-sibling switch prune;
   [private_vars.(tid)] holds the locations accessed (syntactically,
   calls included) by thread [tid] and by no other thread — accesses
   to them commute with every other thread's step, extending the
   ample τ rule. *)
type red = {
  por : bool;
  sym : bool;
  classes : int array list;
  class_of : int array;
  thread_fns : string array;
  acyclic : bool array;
  private_vars : Lang.Ast.VarSet.t array;
}

type search = {
  code : Lang.Ast.code;
  atomics : Lang.Ast.VarSet.t;
  disc : discipline;
  cfg : Config.t;
  red : red;
  stats : Stats.t;  (* the search's total, summed after the join *)
  cert_chan : (CertKey.t * bool) Pool.Chan.t;
  cand_chan : (CertKey.t * (Lang.Ast.var * Lang.Ast.value) list) Pool.Chan.t;
  memo_chan : (Node.t * (Traceset.t * int)) Pool.Chan.t;
  deadline : float option;  (* absolute, [Unix.gettimeofday] scale *)
  fault : (int * int) option;  (* seed, threshold in [0, 2^30] *)
  out_of_time : bool Atomic.t;
  out_of_mem : bool Atomic.t;
  node_count : int Atomic.t option;  (* Some iff max_nodes is set *)
  observe : (Ps.Machine.world -> unit) option;
      (* called at every committed state [successors] expands *)
}

(* A closed member of a switch run, waiting for a frame below it to
   close (see the engine's comment): its first result's traces, the
   lowest open stack index it reaches, and the depth of its run's head. *)
type parked = {
  pn : Node.t;
  ptraces : Traceset.t;
  mutable ptaint : int;
  prun : int;
}

(* Per-domain state.  Everything the DFS hot path touches is
   unsynchronized: the caches, the on-stack table, this worker's own
   counters ([ls], summed into [s.stats] after the join) and the
   publication buffers.  [tick] amortizes the clock/heap probes and
   channel absorption.  [id] runs from 0 to [j - 1]. *)
type worker = {
  s : search;
  parallel : bool;
  id : int;
  ls : Stats.t;
  memo : (Traceset.t * int) NodeTbl.t;
  cert_cache : bool CertTbl.t;
  cand_cache : (Lang.Ast.var * Lang.Ast.value) list CertTbl.t;
  on_stack : int NodeTbl.t;  (* node -> entry depth (= stack index) *)
  parked : parked NodeTbl.t;  (* raw node -> its parking, while it waits *)
  mutable tick : int;
  mutable pub_pending : int;
  mutable pub_cert : (CertKey.t * bool) list;
  mutable pub_cand : (CertKey.t * (Lang.Ast.var * Lang.Ast.value) list) list;
  mutable pub_memo : (Node.t * (Traceset.t * int)) list;
  mutable cert_mark : (CertKey.t * bool) Pool.Chan.mark;
  mutable cand_mark : (CertKey.t * (Lang.Ast.var * Lang.Ast.value) list) Pool.Chan.mark;
  mutable memo_mark : (Node.t * (Traceset.t * int)) Pool.Chan.mark;
}

let fault_threshold rate =
  (* [Hashtbl.hash] ranges over [0, 2^30); a rate >= 1.0 must fire on
     every site. *)
  int_of_float (rate *. 1073741824.0)

let no_red =
  {
    por = false;
    sym = false;
    classes = [];
    class_of = [||];
    thread_fns = [||];
    acyclic = [||];
    private_vars = [||];
  }

(* The locations a thread rooted at [fname] can touch: every
   [Load]/[Store]/[Cas] var in code reachable through [Call]s.  Used
   to find thread-private locations — promise candidates are
   syntactic too, so a location outside every other thread's access
   set can never gain a message or a reader from them. *)
let accessed_vars code fname =
  let seen = Hashtbl.create 8 in
  let acc = ref Lang.Ast.VarSet.empty in
  let rec go fn =
    if not (Hashtbl.mem seen fn) then begin
      Hashtbl.add seen fn ();
      match Lang.Ast.FnameMap.find_opt fn code with
      | None -> ()
      | Some ch ->
          Lang.Ast.LabelMap.iter
            (fun _ (b : Lang.Ast.block) ->
              List.iter
                (fun (ins : Lang.Ast.instr) ->
                  match ins with
                  | Lang.Ast.Load (_, v, _)
                  | Lang.Ast.Store (v, _, _)
                  | Lang.Ast.Cas (_, v, _, _, _, _) ->
                      acc := Lang.Ast.VarSet.add v !acc
                  | Lang.Ast.Skip | Lang.Ast.Assign _ | Lang.Ast.Print _
                  | Lang.Ast.Fence _ ->
                      ())
                b.Lang.Ast.instrs;
              match b.Lang.Ast.term with
              | Lang.Ast.Call (f, _) -> go f
              | Lang.Ast.Jmp _ | Lang.Ast.Be _ | Lang.Ast.Return -> ())
            ch.Lang.Ast.blocks
    end
  in
  go fname;
  !acc

(* Substitute a thread's root function name.  A same-class thread's
   state mentions its own root fname in at most two places: the
   running position (while executing the root) and stack frames (the
   bottom frame returns into the root).  Callee names are shared
   across the class (see [red]), so this substitution maps a thread
   state onto the syntactically identical program of another class
   member, exactly. *)
let rename_root ~from_ ~to_ (ts : Ps.Thread.ts) =
  if String.equal from_ to_ then ts
  else
    let l = ts.Ps.Thread.local in
    let pos =
      match l.Ps.Local.pos with
      | Ps.Local.Running ({ fn; _ } as r) when String.equal fn from_ ->
          Ps.Local.Running { r with fn = to_ }
      | p -> p
    in
    let stack =
      List.map
        (fun (f : Ps.Local.frame) ->
          if String.equal f.Ps.Local.fn from_ then
            { f with Ps.Local.fn = to_ }
          else f)
        l.Ps.Local.stack
    in
    { ts with Ps.Thread.local = { l with Ps.Local.pos; stack } }

let block_succs (b : Lang.Ast.block) =
  match b.Lang.Ast.term with
  | Lang.Ast.Jmp l -> [ l ]
  | Lang.Ast.Be (_, l1, l2) -> [ l1; l2 ]
  | Lang.Ast.Call _ | Lang.Ast.Return -> []

(* Call-free with a DAG block graph: such a thread's control position
   strictly advances on every instruction and terminator step, which
   is what makes the symmetric-sibling prune exact (a pruned subtree's
   isomorphic image cannot collide with an on-stack ancestor that its
   kept sibling missed — docs/REDUCTION.md). *)
let fn_acyclic code fname =
  match Lang.Ast.FnameMap.find_opt fname code with
  | None -> false
  | Some ch ->
      let blocks = ch.Lang.Ast.blocks in
      Lang.Ast.LabelMap.for_all
        (fun _ (b : Lang.Ast.block) ->
          match b.Lang.Ast.term with Lang.Ast.Call _ -> false | _ -> true)
        blocks
      &&
      let color = Hashtbl.create 16 in
      (* tri-color DFS: 1 = on stack, 2 = done *)
      let rec dag l =
        match Hashtbl.find_opt color l with
        | Some 2 -> true
        | Some _ -> false
        | None -> (
            match Lang.Ast.LabelMap.find_opt l blocks with
            | None -> true (* dangling target: Lang.Wf rules it out *)
            | Some b ->
                Hashtbl.add color l 1;
                let ok = List.for_all dag (block_succs b) in
                Hashtbl.replace color l 2;
                ok)
      in
      Lang.Ast.LabelMap.for_all (fun l _ -> dag l) blocks

let compute_red code threads (cfg : Config.t) =
  let r = cfg.Config.reduction in
  if not (r.Config.por || r.Config.symmetry) then no_red
  else
    let acyclic =
      if r.Config.por then Array.of_list (List.map (fn_acyclic code) threads)
      else [||]
    in
    let private_vars =
      if not r.Config.por then [||]
      else
        let per_tid =
          Array.of_list (List.map (accessed_vars code) threads)
        in
        Array.mapi
          (fun i vs ->
            Lang.Ast.VarSet.filter
              (fun v ->
                let shared = ref false in
                Array.iteri
                  (fun j vs' ->
                    if j <> i && Lang.Ast.VarSet.mem v vs' then shared := true)
                  per_tid;
                not !shared)
              vs)
          per_tid
    in
    (* Group tids by syntactically identical programs.  Threads of
       the same fname are trivially identical; distinct fnames with
       [equal_codeheap]-equal bodies also qualify (equal terminators
       mean equal [Call] targets, so the transitive code is shared
       too).  Both reductions use the classes: canonicalization folds
       whole orbits onto one memo entry, and the symmetric-sibling
       switch prune needs the same-program guarantee to equate
       siblings up to their root fname. *)
    let groups : (Lang.Ast.codeheap * int list ref) list ref = ref [] in
    List.iteri
      (fun tid fname ->
        match Lang.Ast.FnameMap.find_opt fname code with
        | None -> ()
        | Some ch -> (
            match
              List.find_opt
                (fun (ch', _) -> Lang.Ast.equal_codeheap ch ch')
                !groups
            with
            | Some (_, tids) -> tids := tid :: !tids
            | None -> groups := (ch, ref [ tid ]) :: !groups))
      threads;
    let classes =
      List.rev !groups
      |> List.filter_map (fun (_, tids) ->
             match List.rev !tids with
             | _ :: _ :: _ as l -> Some (Array.of_list l)
             | _ -> None)
    in
    let class_of = Array.make (List.length threads) (-1) in
    List.iteri
      (fun i cls -> Array.iter (fun tid -> class_of.(tid) <- i) cls)
      classes;
    {
      por = r.Config.por;
      sym = r.Config.symmetry;
      classes;
      class_of;
      thread_fns = Array.of_list threads;
      acyclic;
      private_vars;
    }

let make_search ?observe ~threads code atomics disc cfg =
  {
    code;
    atomics;
    disc;
    cfg;
    red = compute_red code threads cfg;
    stats = Stats.create ();
    cert_chan = Pool.Chan.create ();
    cand_chan = Pool.Chan.create ();
    memo_chan = Pool.Chan.create ();
    deadline =
      Option.map
        (fun ms -> Unix.gettimeofday () +. (float_of_int ms /. 1000.))
        cfg.Config.deadline_ms;
    fault =
      Option.map
        (fun f -> (f.Config.fault_seed, fault_threshold f.Config.fault_rate))
        cfg.Config.fault;
    out_of_time = Atomic.make false;
    out_of_mem = Atomic.make false;
    node_count =
      (match cfg.Config.max_nodes with
      | Some _ -> Some (Atomic.make 0)
      | None -> None);
    observe;
  }

let make_worker ?(id = 0) ~parallel s =
  {
    s;
    parallel;
    id;
    ls = Stats.create ();
    memo = NodeTbl.create 1024;
    cert_cache = CertTbl.create 1024;
    cand_cache = CertTbl.create 256;
    on_stack = NodeTbl.create 256;
    parked = NodeTbl.create 64;
    tick = 0;
    pub_pending = 0;
    pub_cert = [];
    pub_cand = [];
    pub_memo = [];
    cert_mark = Pool.Chan.genesis;
    cand_mark = Pool.Chan.genesis;
    memo_mark = Pool.Chan.genesis;
  }

(* Symmetry canonicalization (docs/REDUCTION.md): permute the thread
   records of each symmetry class into a canonical slot order.
   Applied ONLY to memo-table keys — never to cycle detection or fault
   sites — so orbit-equivalent subtrees fold onto one memo entry.
   Sound because the taint-qualified memo entries are context-free,
   traces carry no thread identifiers, and permuting
   identical-program threads across tid slots is a step-for-step
   subtree isomorphism (same traceset, same depth profile).  The sort
   key puts the current thread's record first, then orders by thread
   state and spent promise budget, so any two orbit members canonize
   to the same node.  Class members may run under distinct root
   fnames (identical bodies); each member is renamed to the class
   representative's fname before sorting — making the order a pure
   function of thread *state*, not thread identity — and renamed
   again to its destination slot's fname on assignment, so the result
   is a well-formed state of the original program.  Returns the
   argument physically ([==]) when the permutation is the identity,
   so callers can count genuine folds. *)
let canon s (n : Node.t) : Node.t =
  if not (s.red.sym && s.red.classes <> []) then n
  else begin
    let wd = n.Node.world in
    let changed = ref false in
    let tp = ref wd.Ps.Machine.tp in
    let promised = ref n.Node.promised in
    let cur = ref wd.Ps.Machine.cur in
    List.iter
      (fun cls ->
        let rep_fn = s.red.thread_fns.(cls.(0)) in
        let members =
          Array.map
            (fun tid ->
              let ts = TidMap.find tid wd.Ps.Machine.tp in
              let ts =
                rename_root ~from_:s.red.thread_fns.(tid) ~to_:rep_fn ts
              in
              let p =
                match TidMap.find_opt tid n.Node.promised with
                | Some k -> k
                | None -> 0
              in
              (tid = wd.Ps.Machine.cur, ts, p, tid))
            cls
        in
        Array.sort
          (fun (c1, t1, p1, _) (c2, t2, p2, _) ->
            match Bool.compare c2 c1 with
            | 0 -> (
                match Ps.Thread.compare t1 t2 with
                | 0 -> Int.compare p1 p2
                | c -> c)
            | c -> c)
          members;
        Array.iteri
          (fun i (is_cur, ts, p, orig_tid) ->
            let slot = cls.(i) in
            if slot <> orig_tid then changed := true;
            let ts =
              rename_root ~from_:rep_fn ~to_:s.red.thread_fns.(slot) ts
            in
            tp := TidMap.add slot ts !tp;
            promised :=
              (if p > 0 then TidMap.add slot p !promised
               else TidMap.remove slot !promised);
            if is_cur then cur := slot)
          members)
      s.red.classes;
    if not !changed then n
    else
      Node.make
        { wd with Ps.Machine.tp = !tp; cur = !cur }
        ~bit:n.Node.bit ~promised:!promised
  end

(* ---- domain-local cache publication ----
   Fresh entries are buffered and pushed as one immutable batch every
   [publish_period] entries (and when the worker converts its stack or
   exits); other workers absorb at their probe tick and when idle.
   Smaller periods shrink the window in which two domains duplicate
   the same certification; larger ones cut publication traffic.
   Every published value is a pure function of its key (the
   cache-soundness invariant), so at-least-once unordered delivery is
   benign and absorbing keeps determinism: a hit is
   recomputation-equivalent no matter which domain computed it. *)

let publish_now w =
  let s = w.s in
  if w.pub_cert <> [] then begin
    Pool.Chan.publish s.cert_chan (Array.of_list w.pub_cert);
    w.pub_cert <- []
  end;
  if w.pub_cand <> [] then begin
    Pool.Chan.publish s.cand_chan (Array.of_list w.pub_cand);
    w.pub_cand <- []
  end;
  if w.pub_memo <> [] then begin
    Pool.Chan.publish s.memo_chan (Array.of_list w.pub_memo);
    w.pub_memo <- []
  end;
  w.pub_pending <- 0

let publish_period = 16

let queued w =
  w.pub_pending <- w.pub_pending + 1;
  if w.pub_pending >= publish_period then publish_now w

let absorb w =
  let s = w.s in
  w.cert_mark <-
    Pool.Chan.drain s.cert_chan ~since:w.cert_mark ~f:(fun (k, v) ->
        if not (CertTbl.mem w.cert_cache k) then CertTbl.add w.cert_cache k v);
  w.cand_mark <-
    Pool.Chan.drain s.cand_chan ~since:w.cand_mark ~f:(fun (k, v) ->
        if not (CertTbl.mem w.cand_cache k) then CertTbl.add w.cand_cache k v);
  w.memo_mark <-
    Pool.Chan.drain s.memo_chan ~since:w.memo_mark ~f:(fun (n, e) ->
        if not (NodeTbl.mem w.memo n) then NodeTbl.add w.memo n e)

(* Wall-clock and heap probes are amortized over this many calls, and
   each worker also probes on its first call, so a search smaller than
   the mask per worker still sees a deadline that has already passed;
   the node budget and the sticky flags are checked every time.  Channel
   absorption runs on a much shorter cycle: a drain with nothing new
   costs three atomic loads, while every tick of absorption latency is
   a tick in which another domain may re-expand a subtree this one
   already memoized. *)
let probe_mask = 0x3F
let absorb_mask = 0x07

let budget_stop w : Errors.reason option =
  let s = w.s in
  let ls = w.ls in
  w.tick <- w.tick + 1;
  if w.parallel && w.tick land absorb_mask = 0 then absorb w;
  if w.tick land probe_mask = 1 then begin
    (match s.deadline with
    | Some d when Unix.gettimeofday () >= d -> Atomic.set s.out_of_time true
    | _ -> ());
    match s.cfg.Config.max_live_words with
    | Some words when (Gc.quick_stat ()).Gc.heap_words > words ->
        Atomic.set s.out_of_mem true
    | _ -> ()
  end;
  if Atomic.get s.out_of_time then begin
    Stats.incr ls Stats.deadline_hits;
    Some Errors.Deadline
  end
  else if Atomic.get s.out_of_mem then begin
    Stats.incr ls Stats.oom_hits;
    Some Errors.Oom
  end
  else
    match (s.cfg.Config.max_nodes, s.node_count) with
    | Some n, Some c when Atomic.get c >= n ->
        Stats.incr ls Stats.node_budget_hits;
        Some Errors.Node_budget
    | _ -> None

(* Deterministic fault injection.  A site fires iff
   [hash (seed, site, salt) < rate * 2^30] — a pure function of the
   fault seed and the machine state (NOT of the draw order or the
   schedule), so the same sites fire no matter how the search is split
   across domains, and the set of firing sites grows monotonically
   with the rate.  A firing site either cuts the enumeration subtree
   or answers a certification query "inconsistent"/"no candidates" —
   every move only removes behaviours, so completed traces under any
   schedule are a subset of the fault-free run
   (test/test_robustness.ml). *)
let salt_cut = 0x11
let salt_cert = 0x22
let salt_cand = 0x33

let fault_fires s site salt =
  match s.fault with
  | None -> false
  | Some (seed, threshold) -> Hashtbl.hash (seed, site, salt) < threshold

let node_fault_fires w n =
  let fire = fault_fires w.s (Node.hash n) salt_cut in
  if fire then Stats.incr w.ls Stats.faults_injected;
  fire

(* Certification is the engine's dominant cost, so its run time is
   always histogrammed; the observe is two clock reads against a full
   consistency search. *)
let cert_hist =
  Obs.Metrics.histogram ~help:"Certification consistency-check run time"
    "psopt_explore_cert_run_duration_ns"

let run_cert s (key : CertKey.t) =
  Obs.Trace.span ~cat:"explore" "certify" (fun () ->
      Obs.Metrics.time cert_hist (fun () ->
          Ps.Cert.consistent ~fuel:s.cfg.Config.cert_fuel
            ~cap:s.cfg.Config.cap_certification ~code:s.code key.ts key.mem))

(* The certification caches share entries between workers more
   eagerly than the memo.  A run costs far more than a publication or
   an empty drain, so a fresh entry is published at once rather than
   in the next batch, and a miss first takes in what the other workers
   published since the last absorption.  Without both, a worker that
   reaches a configuration a moment after another worker certified it
   certifies it again: on cert_heavy 80/20 at j = 2 on two cores, up
   to 289 runs where j = 1 makes 226. *)
let cached w tbl key =
  match CertTbl.find_opt tbl key with
  | None when w.parallel ->
      absorb w;
      CertTbl.find_opt tbl key
  | hit -> hit

(* Exact certification accounting: every call bumps [cert_checks] and
   then exactly one of [cert_faults] / [cert_trivial] /
   [cert_cache_hits] / [cert_runs]. *)
let consistent w (key : CertKey.t) =
  let s = w.s in
  let ls = w.ls in
  Stats.incr ls Stats.cert_checks;
  (* An injected fault answers "inconsistent" without consulting the
     cache, so the cache stays pure; the decision is a pure function
     of the configuration, so it is the same on every path and every
     domain that reaches it.  The configuration hash (the fault site)
     is only computed when fault injection is armed. *)
  if s.fault <> None && fault_fires s (CertKey.hash key) salt_cert then begin
    Stats.incr ls Stats.cert_faults;
    Stats.incr ls Stats.faults_injected;
    false
  end
  else if
    (* Promise-free thread states are trivially consistent; don't
       spend a hash of the whole configuration on them. *)
    Ps.Thread.concrete_promises key.ts = []
  then begin
    Stats.incr ls Stats.cert_trivial;
    true
  end
  else if not s.cfg.Config.cert_cache then begin
    Stats.incr ls Stats.cert_runs;
    run_cert s key
  end
  else
    match cached w w.cert_cache key with
    | Some verdict ->
        Stats.incr ls Stats.cert_cache_hits;
        verdict
    | None ->
        Stats.incr ls Stats.cert_runs;
        let verdict = run_cert s key in
        CertTbl.replace w.cert_cache key verdict;
        if w.parallel then begin
          w.pub_cert <- (key, verdict) :: w.pub_cert;
          publish_now w
        end;
        verdict

let promise_candidates w (key : CertKey.t) =
  let s = w.s in
  match s.cfg.Config.promise_mode with
  | Config.No_promises -> []
  | mode -> (
      if s.fault <> None && fault_fires s (CertKey.hash key) salt_cand then begin
        (* Candidate discovery killed by an injected fault: no promise
           successors from here — behaviours shrink, never grow. *)
        Stats.incr w.ls Stats.faults_injected;
        []
      end
      else
        match mode with
        | Config.No_promises -> assert false
        | Config.Syntactic -> Ps.Thread.writes_in_code ~code:s.code key.ts
        | Config.Semantic -> (
            (* Candidate discovery is the other certification search,
               run for every node with promise budget left; like the
               verdicts it is a pure function of the configuration, so
               it shares the cache discipline (hits are counted
               separately in [cand_cache_hits]). *)
            let compute () =
              Obs.Trace.span ~cat:"explore" "candidates" (fun () ->
                  Ps.Cert.certifiable_writes ~fuel:s.cfg.Config.cert_fuel
                    ~cap:s.cfg.Config.cap_certification ~code:s.code key.ts
                    key.mem)
            in
            if not s.cfg.Config.cert_cache then compute ()
            else
              match cached w w.cand_cache key with
              | Some cands ->
                  Stats.incr w.ls Stats.cand_cache_hits;
                  cands
              | None ->
                  let cands = compute () in
                  CertTbl.replace w.cand_cache key cands;
                  if w.parallel then begin
                    w.pub_cand <- (key, cands) :: w.pub_cand;
                    publish_now w
                  end;
                  cands))

(* [List.filter_map] that also passes each element's index. *)
let filter_mapi f l =
  let rec go i = function
    | [] -> []
    | x :: rest -> (
        match f i x with
        | Some y -> y :: go (i + 1) rest
        | None -> go (i + 1) rest)
  in
  go 0 l

let successors w (n : Node.t) : succ list =
  let s = w.s in
  let wd = n.world in
  let ts = Ps.Machine.cur_ts wd in
  let mem = wd.Ps.Machine.mem in
  let promised_cur =
    match TidMap.find_opt wd.Ps.Machine.cur n.promised with
    | Some k -> k
    | None -> 0
  in
  (* The children's leaves are built from the node's, and so is the
     hash of the certification key of the node's own configuration. *)
  let lv = Node.leaves n in
  let own = CertKey.own wd lv in
  (* The current thread's consistency gates outputs and switches; it
     is cheap when the thread has no promises. *)
  let committed = lazy (consistent w own) in
  let bit_after te =
    match s.disc with
    | Interleaving -> Some true
    | Non_preemptive -> Npsem.bit_after te ~before:n.bit
  in
  let make kind choice ~bit ~promised (step : Ps.Thread.step) =
    let world, renumbering =
      Ps.Machine.install wd step.Ps.Thread.ts step.Ps.Thread.mem
    in
    {
      kind;
      choice;
      event = Some step.Ps.Thread.event;
      next =
        Node.make ~leaves:(Ps.Machine.leaves ~prev:lv world) world ~bit
          ~promised;
      renumbering;
    }
  in
  let lift kind i (step : Ps.Thread.step) : succ option =
    match bit_after step.Ps.Thread.event with
    | None -> None
    | Some bit -> (
        match step.Ps.Thread.event with
        | Ps.Event.Out _ when not (Lazy.force committed) -> None
        | _ -> Some (make kind i ~bit ~promised:n.Node.promised step))
  in
  let regular =
    filter_mapi (lift Thread_step) (Ps.Thread.steps ~code:s.code ts mem)
  in
  let promise_steps =
    (* [reduction.bound_promises] overrides [max_promises] and forces
       strict reporting: the bounded-promise mode is exhaustive for
       the bound and honestly [Truncated [Promise_budget]] above it. *)
    let bound = s.cfg.Config.reduction.Config.bound_promises in
    let max_promises =
      match bound with Some k -> k | None -> s.cfg.Config.max_promises
    in
    let budget_left = promised_cur < max_promises in
    let sched_ok =
      (match s.disc with Interleaving -> true | Non_preemptive -> n.bit)
      && not (Ps.Local.is_finished ts.Ps.Thread.local)
    in
    if not (budget_left && sched_ok) then begin
      (* Under [strict_promises], a nonempty candidate set suppressed
         purely by the promise budget counts as truncation (a
         conservative over-approximation: the candidates are not
         re-certified here, so this can only push verdicts toward
         inconclusive, never toward a claim). *)
      let strict = s.cfg.Config.strict_promises || bound <> None in
      if strict && sched_ok && not budget_left then
        if promise_candidates w own <> [] then begin
          Stats.incr w.ls Stats.promise_budget_hits;
          if bound <> None then
            Stats.incr w.ls Stats.promise_bound_hits
        end;
      []
    end
    else
      let candidates = promise_candidates w own in
      Ps.Thread.promise_steps ~candidates ~atomics:s.atomics ts mem
  in
  let promises =
    let promised =
      if promise_steps = [] then n.promised
      else TidMap.add wd.Ps.Machine.cur (promised_cur + 1) n.promised
    in
    filter_mapi
      (fun i (step : Ps.Thread.step) ->
        (* A promise must remain certifiable with the chosen slot;
           pruning inconsistent promise placements is sound because a
           τ machine step must end consistent. *)
        if consistent w (CertKey.make step.Ps.Thread.ts step.Ps.Thread.mem)
        then begin
          Stats.incr w.ls Stats.promises;
          Some (make Promise_step i ~bit:n.Node.bit ~promised step)
        end
        else None)
      promise_steps
  in
  let reservations =
    if not s.cfg.Config.reservations then []
    else
      let rsv_allowed =
        (match s.disc with Interleaving -> true | Non_preemptive -> n.bit)
        (* one outstanding reservation per thread: reserve/cancel
           cycles otherwise defeat memoization (every cycle member is
           taint-excluded) and blow up the search *)
        && List.for_all
             (fun m -> not (Ps.Message.is_reservation m))
             ts.Ps.Thread.prm
      in
      let rsvs =
        if rsv_allowed then Ps.Thread.reserve_steps ts mem else []
      in
      let ccls = Ps.Thread.cancel_steps ts mem in
      (* Reserve and cancel steps are filed as promise steps, their
         choices continuing the promise placements' numbering. *)
      let base = List.length promise_steps in
      filter_mapi (fun i -> lift Promise_step (base + i)) (rsvs @ ccls)
  in
  (* Ample-set rule of the partial-order reduction
     (docs/REDUCTION.md): when the current thread's only regular move
     is a deterministic in-block step that every other thread's step
     commutes past, that step alone is an ample set and the switches
     are dropped.  Two shapes qualify: a local τ ([Assign]/[Skip] —
     memory, views and the switch bit untouched), and an access to a
     thread-private location (no other thread can read it, write it,
     or — promise candidates being syntactic — ever promise to it, so
     the access is invisible to them and unaffected by them; the
     single-successor requirement below keeps multi-placement writes
     and multi-message reads fully explored).  In-block steps
     strictly consume the block's remaining instructions, so pruned
     chains terminate within a basic block — the cycle proviso holds
     for free.  Promise and reservation successors are kept, and the
     current thread's own certification only gets {e more} favourable
     after the step (the isolated run from the pre-step state must
     begin with it); other threads' certifications never read a
     private location, so deferring their switch past it changes
     nothing they can observe. *)
  let ample =
    s.red.por
    && (match Ps.Local.nxt ts.Ps.Thread.local with
       | Ps.Local.NInstr (Lang.Ast.Assign _ | Lang.Ast.Skip) -> true
       | Ps.Local.NInstr
           ( Lang.Ast.Load (_, v, _)
           | Lang.Ast.Store (v, _, _)
           | Lang.Ast.Cas (_, v, _, _, _, _) ) ->
           let tid = wd.Ps.Machine.cur in
           tid < Array.length s.red.private_vars
           && Lang.Ast.VarSet.mem v s.red.private_vars.(tid)
       | _ -> false)
    &&
    match regular with
    | [ { event = Some (Ps.Event.Out _); _ } ] -> false
    | [ { next; _ } ] -> next.Node.bit = n.Node.bit
    | _ -> false
  in
  let switches =
    if ample then begin
      (* Count what the unreduced enumeration would have offered (the
         other unfinished threads) without paying its certification
         gate — skipping that check is part of the win on cert-heavy
         workloads. *)
      let may =
        match s.disc with Interleaving -> true | Non_preemptive -> n.bit
      in
      if may then begin
        let k =
          TidMap.fold
            (fun tid ts' k ->
              if
                tid <> wd.Ps.Machine.cur
                && not (Ps.Local.is_finished ts'.Ps.Thread.local)
              then k + 1
              else k)
            wd.Ps.Machine.tp 0
        in
        Stats.bump w.ls Stats.persistent_prunes k
      end;
      []
    end
    else
      let may =
        (match s.disc with
        | Interleaving -> true
        | Non_preemptive ->
            (* The switch bit guards blocks of non-atomic accesses; a
               finished thread has no block in progress, so the machine
               may always move on from it. *)
            n.bit || Ps.Local.is_finished ts.Ps.Thread.local)
        && Lazy.force committed
      in
      if not may then []
      else
        let all =
          TidMap.fold
            (fun tid ts' acc ->
              if
                tid <> wd.Ps.Machine.cur
                && not (Ps.Local.is_finished ts'.Ps.Thread.local)
              then
                {
                  kind = Switch_step;
                  choice = tid;
                  event = None;
                  renumbering = None;
                  next =
                    Node.make ~leaves:lv (Ps.Machine.switch wd tid)
                      ~bit:true ~promised:n.Node.promised;
                }
                :: acc
              else acc)
            wd.Ps.Machine.tp []
        in
        if not s.red.por then all
        else begin
          (* Symmetric-sibling rule: switch targets running the same
             program (same symmetry class) whose thread record
             (state up to the root fname + spent promise budget) is
             equal head isomorphic subtrees (the swap permutation
             fixes everything else in the node); keep the first of
             each group.  Gated on the involved threads running
             acyclic (DAG, Call-free) programs — with loops, the
             pruned subtree's isomorphic image can collide with a raw
             on-stack ancestor its kept sibling missed
             (docs/REDUCTION.md). *)
          let acyclic_ok tid =
            tid < Array.length s.red.acyclic && s.red.acyclic.(tid)
          in
          let cls tid =
            if tid < Array.length s.red.class_of then s.red.class_of.(tid)
            else -1
          in
          let prom tid =
            match TidMap.find_opt tid n.Node.promised with
            | Some k -> k
            | None -> 0
          in
          let kept = ref [] in
          let out = ref [] in
          let dropped = ref 0 in
          List.iter
            (fun (sw : succ) ->
              let tid = sw.next.Node.world.Ps.Machine.cur in
              let ts' = TidMap.find tid wd.Ps.Machine.tp in
              let dup =
                acyclic_ok tid && cls tid >= 0
                && List.exists
                     (fun (tid0, ts0, p0) ->
                       acyclic_ok tid0 && cls tid0 = cls tid
                       && p0 = prom tid
                       && Ps.Thread.equal ts0
                            (rename_root ~from_:s.red.thread_fns.(tid)
                               ~to_:s.red.thread_fns.(tid0) ts'))
                     !kept
              in
              if dup then incr dropped
              else begin
                kept := (tid, ts', prom tid) :: !kept;
                out := sw :: !out
              end)
            all;
          Stats.bump w.ls Stats.sleep_prunes !dropped;
          List.rev !out
        end
  in
  (* On Interleaving without reduction the switch gate has already
     forced [committed], so observing costs no certification. *)
  (match s.observe with
  | Some f when Lazy.force committed -> f wd
  | _ -> ());
  Node.expanded n lv;
  regular @ promises @ reservations @ switches

(* ------------------------------------------------------------------ *)
(* The engine: an explicit-stack depth-first walk with work stealing
   by stack conversion.

   Taint discipline: a subtree's result carries the lowest stack index
   it depends on ([max_int] if none).  A result is memoized only when
   it closes over its own subtree — cycle heads included, inner cycle
   members excluded — and never when the depth budget truncated it.

   Depth honesty: the result also carries the deepest entry depth
   reached in the subtree (virtual for memo hits), and the memo stores
   it relative to the memoizing depth.  An entry is reused at depth
   [d] only when [d + rel_peak < max_steps] — i.e. exactly when a
   fresh recomputation would also complete without hitting the step
   budget.  Reuse is therefore recomputation-equivalent, which is what
   makes the traceset a pure function of the node, the remaining depth
   budget and the ancestor chain — independent of visit order, memo
   state, and hence of how the engine splits the search across domains
   (docs/PARALLEL.md).

   Switch runs (docs/SEMANTICS.md, "Switch-run memo"): a switch
   changes only [cur], so a chain of stack frames joined by switch
   edges — a run; its first frame is the run's head — holds nodes of
   one thread pool, memory and promise budget.  Switching away and
   straight back taints every member but the lowest, so the taint
   rule alone would expand each member again on every path.  A member
   is pure when every non-switch child came back untainted and every
   switch child is a back-edge into the run or a pure member itself;
   a pure member that closes tainted is parked on the frame below it,
   and a frame that closes tainted passes its parked members down the
   run.  When a pure frame closes memoizable, the members parked on it
   are its strongly connected component: each reaches it by silent
   switches and back, so each has its traceset, and each is memoized
   with it.  Anything impure drops the parked members.  While a member
   waits, a switch from a frame of its run answers with its first
   result: the frame that will close over both already holds
   everything a second expansion would add.  The peak such an answer
   and such an entry carry bounds a fresh expansion: switches lead to
   unfinished threads only, so a chain of distinct members is one
   shorter than their number at most, and [freach] bounds the reach of
   what hangs off each.

   Scheduling: every worker runs the same walk.  A busy worker checks,
   before starting each child, whether some other worker is hungry
   while its own deque is empty; if so it {e converts}: every stack
   frame becomes a heap join frame, every unstarted child becomes a
   stealable task, and the worker continues with the deepest subtree.
   Each task carries a delivery target — a (frame, slot) pair — and a
   frame folds (the same union / prepend / min-taint / max-peak
   accumulation the stack walk does) when its last slot is delivered,
   then delivers its own result upward.  Traceset union is commutative
   and associative, so slot fold order is immaterial. *)

let max_taint = max_int

let cut_traces = Traceset.singleton (Ps.Event.trace_cut [])
let open_traces = Traceset.singleton { Ps.Event.outs = []; ending = Ps.Event.Open }

(* Where a completed subtree result lands. *)
type target =
  | Root
  | Slot of jframe * int

(* A converted (heap) frame: immutable snapshot of a stack frame's
   partial accumulation plus one slot per outstanding child.  Distinct
   slots are written by distinct tasks; the [fetch_and_add] on
   [jpending] publishes the writes to whichever worker folds. *)
and jframe = {
  jn : Node.t;
  jdepth : int;
  jparent : target;
  jbase : Traceset.t;
  jtaint : int;
  jpeak : int;
  jevents : Ps.Event.te option array;
  jslots : (Traceset.t * int * int) option array;
  jpending : int Atomic.t;
}

and task = { tn : Node.t; tdepth : int; ttarget : target }

(* An in-progress (worker-local) stack frame.  [fswitch] to [fparked]
   are the switch-run memo's: [frun] is the depth of the run's head
   (the frame's own depth when it was not entered by a switch), and
   [freach] the largest depth beyond a node of the run that hangs off
   it untainted, over the run's frames so far. *)
type sframe = {
  fn : Node.t;
  fdepth : int;
  fevent : Ps.Event.te option;  (* edge label from the parent frame *)
  fswitch : bool;
  frun : int;
  fsuccs : succ array;
  mutable fnext : int;
  mutable facc : Traceset.t;
  mutable ftaint : int;
  mutable fpeak : int;
  mutable fpure : bool;
  mutable freach : int;
  mutable fparked : parked list;
}

(* Set once, when the root task's result is delivered: the scheduler's
   stop condition. *)
type delivered = (Traceset.t * int * int) option Atomic.t

let count_node w =
  Stats.incr w.ls Stats.nodes;
  match w.s.node_count with Some c -> Atomic.incr c | None -> ()

let memo_store w n entry =
  (* Stored under the canonical key: one entry per symmetry orbit.
     The entry is exact for every orbit member (isomorphic subtrees
     have equal tracesets and equal depth profiles). *)
  let n = canon w.s n in
  NodeTbl.replace w.memo n entry;
  if w.parallel then begin
    w.pub_memo <- (n, entry) :: w.pub_memo;
    queued w
  end

(* Worker [k] visits a node's children rotated by [k] places, so
   worker 0 (the whole walk at [j = 1]) keeps the sequential order.
   Two workers that walk overlapping subtrees in one order stay in
   step: each reaches every node while the other is still below it,
   before its memo entry is published, so both expand all of it.
   From different first children they spread apart and meet each
   other's published entries instead.  Sibling order changes no
   result: the children's results are folded by union, [min] and
   [max]. *)
let visit_order w succs =
  let n = Array.length succs in
  if w.id = 0 || n < 2 then succs
  else Array.init n (fun i -> succs.((i + w.id) mod n))

(* Everything the walk decides about a node before (possibly) pushing
   a frame for it: depth cut, global budgets, injected fault, memo
   (depth-honest), ancestor cycle — in exactly this order, which is
   the order the decisions must replicate at every [j]. *)
type entered =
  | Done of (Traceset.t * int * int)
  | Expand of succ array * Traceset.t

(* Push [n]: count it, enumerate its successors. *)
let expand w (n : Node.t) depth : entered =
  let ls = w.ls in
  count_node w;
  NodeTbl.add w.on_stack n depth;
  let base =
    if Ps.Machine.terminal n.world then
      Traceset.singleton (Ps.Event.trace_done [])
    else Traceset.empty
  in
  let succs = visit_order w (Array.of_list (successors w n)) in
  Stats.bump ls Stats.transitions (Array.length succs);
  let base =
    if Traceset.is_empty base && Array.length succs = 0 then
      (* Stuck without terminating: an execution that cannot commit
         further; its observable behaviour is the open prefix. *)
      open_traces
    else base
  in
  Expand (succs, base)

(* How far beyond a node of [f]'s run a fresh expansion of one of its
   members can reach (see the engine's comment). *)
let run_reach (f : sframe) =
  let unfinished =
    TidMap.fold
      (fun _ ts k -> if Ps.Local.is_finished ts.Ps.Thread.local then k else k + 1)
      f.fn.world.Ps.Machine.tp 0
  in
  unfinished - 1 + max 1 f.freach

(* [switch_from] is the frame a switch child is entered from. *)
let enter w ?switch_from (n : Node.t) depth : entered =
  let s = w.s in
  let ls = w.ls in
  if depth > Stats.get ls Stats.peak_depth then
    Stats.set ls Stats.peak_depth depth;
  if depth >= s.cfg.Config.max_steps then begin
    Stats.incr ls Stats.cuts;
    Done (cut_traces, -1, depth)
  end
  else if budget_stop w <> None then
    (* Deadline / node budget / heap budget: the subtree is abandoned
       with the same honest [Cut] marker (and the same negative taint,
       so nothing truncated is ever memoized) as a depth cut; the
       per-reason stats counter was incremented by [budget_stop]. *)
    Done (cut_traces, -1, depth)
  else if node_fault_fires w n then Done (cut_traces, -1, depth)
  else
    (* The memo probe uses the symmetry-canonical key ([canon] is the
       identity, physically, when symmetry is off or the node is its
       own representative); cycle detection below stays on the raw
       node — the ancestor chain is not symmetric. *)
    let key = canon s n in
    match NodeTbl.find_opt w.memo key with
    | Some (traces, rel_peak) when depth + rel_peak < s.cfg.Config.max_steps ->
        Stats.incr ls Stats.memo_hits;
        if key != n then
          Stats.incr ls Stats.symmetry_folds;
        Done (traces, max_taint, depth + rel_peak)
    | _ -> (
        match NodeTbl.find_opt w.on_stack n with
        | Some ix ->
            (* Back-edge: divergence.  The honest behaviour is the
               prefix observed so far, i.e. the empty suffix with an
               [Open] ending. *)
            Stats.incr ls Stats.cycles;
            Done (open_traces, ix, depth)
        | None -> (
            (* A parked member met again from its own run. *)
            let reuse =
              match switch_from with
              | Some f -> (
                  match NodeTbl.find_opt w.parked n with
                  | Some p when p.prun = f.frun ->
                      let reach = run_reach f in
                      if depth + reach < s.cfg.Config.max_steps then
                        Some (p, reach)
                      else None
                  | _ -> None)
              | None -> None
            in
            match reuse with
            | Some (p, reach) ->
                Stats.incr ls Stats.memo_hits;
                Done (p.ptraces, p.ptaint, depth + reach)
            | None -> expand w n depth))

(* Deliver a subtree result to its target; fold and propagate when a
   frame completes.  Tail-recursive: converted chains can be as deep
   as the step budget. *)
let rec deliver w (result : delivered) (t : target) (r : Traceset.t * int * int) =
  match t with
  | Root -> Atomic.set result (Some r)
  | Slot (f, i) ->
      f.jslots.(i) <- Some r;
      if Atomic.fetch_and_add f.jpending (-1) = 1 then begin
        (* last slot: this worker folds the frame *)
        let acc = ref f.jbase in
        let taint = ref f.jtaint in
        let peak = ref f.jpeak in
        Array.iteri
          (fun i slot ->
            match slot with
            | None -> assert false
            | Some (tr, t, pk) ->
                let tr = label f.jevents.(i) tr in
                acc := Traceset.union !acc tr;
                taint := min !taint t;
                peak := max !peak pk)
          f.jslots;
        let r =
          if w.s.cfg.Config.memoize && !taint >= f.jdepth && !taint >= 0 then begin
            memo_store w f.jn (!acc, !peak - f.jdepth);
            (!acc, max_taint, !peak)
          end
          else (!acc, !taint, !peak)
        in
        deliver w result f.jparent r
      end

(* Run one task to completion — or until conversion hands its
   remainder to the deque.  The on-stack table is rebuilt from the
   task's frame chain: those frames are exactly the ancestor stack the
   sequential walk would carry here. *)
let exec w (h : task Pool.worker) result (task : task) =
  NodeTbl.reset w.on_stack;
  NodeTbl.reset w.parked;
  let rec seed = function
    | Root -> ()
    | Slot (f, _) ->
        NodeTbl.replace w.on_stack f.jn f.jdepth;
        seed f.jparent
  in
  seed task.ttarget;
  let memoize = w.s.cfg.Config.memoize in
  let stack : sframe Stack.t = Stack.create () in
  let start ?switch_from n depth event =
    match enter w ?switch_from n depth with
    | Done r -> Some r
    | Expand (succs, base) ->
        let frun, freach =
          match switch_from with
          | Some p -> (p.frun, p.freach)
          | None -> (depth, 0)
        in
        Stack.push
          {
            fn = n;
            fdepth = depth;
            fevent = event;
            fswitch = switch_from <> None;
            frun;
            fsuccs = succs;
            fnext = 0;
            facc = base;
            ftaint = max_taint;
            fpeak = depth;
            fpure = true;
            freach;
            fparked = [];
          }
          stack;
        None
  in
  (* Fold a child's result into [f].  An untainted child adds its
     reach; a tainted one keeps [f] pure only when it is a switch
     child that stays inside the run and is pure itself ([pure]);
     [extra] is the reach the child adds beyond its own peak. *)
  let merge (f : sframe) ((tr, t, pk) : Traceset.t * int * int) event ~switch
      ~pure ~extra =
    f.facc <- Traceset.union f.facc (label event tr);
    f.ftaint <- min f.ftaint t;
    f.fpeak <- max f.fpeak pk;
    if t = max_taint then f.freach <- max f.freach (pk - f.fdepth)
    else if not (pure && switch && t >= f.frun) then f.fpure <- false;
    f.freach <- max f.freach extra
  in
  let unpark (p : parked) =
    match NodeTbl.find_opt w.parked p.pn with
    | Some q when q == p -> NodeTbl.remove w.parked p.pn
    | _ -> ()
  in
  (* Close the top frame: memoize it (and the members parked on it),
     or park it on the frame below, or drop what it carried. *)
  let close (f : sframe) =
    NodeTbl.remove w.on_stack f.fn;
    ignore (Stack.pop stack);
    let below = if Stack.is_empty stack then None else Some (Stack.top stack) in
    let r, pure, extra =
      if memoize && f.ftaint >= f.fdepth && f.ftaint >= 0 then begin
        (* No dependency below this node on the stack (cycle heads
           close here) and no cut anywhere in the subtree: safe to
           memoize, with the peak made depth-relative. *)
        memo_store w f.fn (f.facc, f.fpeak - f.fdepth);
        let extra =
          if f.fpure && f.fparked <> [] then begin
            let rel = run_reach f in
            List.iter
              (fun p ->
                unpark p;
                memo_store w p.pn (f.facc, rel))
              f.fparked;
            1 + rel
          end
          else begin
            List.iter unpark f.fparked;
            0
          end
        in
        ((f.facc, max_taint, f.fpeak), true, extra)
      end
      else begin
        let r = (f.facc, f.ftaint, f.fpeak) in
        (match below with
        | Some b when memoize && f.fswitch && f.fpure && f.ftaint >= f.frun ->
            let p =
              { pn = f.fn; ptraces = f.facc; ptaint = f.ftaint; prun = f.frun }
            in
            NodeTbl.replace w.parked f.fn p;
            List.iter (fun q -> q.ptaint <- min q.ptaint f.ftaint) f.fparked;
            b.fparked <- (p :: f.fparked) @ b.fparked
        | _ -> List.iter unpark f.fparked);
        (r, f.fpure, if f.fswitch then f.freach else 0)
      end
    in
    (r, below, pure, extra)
  in
  (* Convert the whole stack into join frames, bottom (task root)
     first so each frame's parent target exists before the frame.
     Every frame except the deepest has one in-progress child — the
     next frame — wired into its slot 0; unstarted children become
     tasks, pushed shallowest-first so thieves (who take the top of
     the deque) get the biggest remaining subtrees while this worker
     continues with the deepest.  Join frames keep the taint rule
     alone, so the parked members are dropped. *)
  let convert () =
    let frames = Array.of_list (Stack.fold (fun acc f -> f :: acc) [] stack) in
    Stack.clear stack;
    NodeTbl.reset w.parked;
    let nf = Array.length frames in
    let tasks = ref [] in
    let parent = ref task.ttarget in
    Array.iteri
      (fun i (f : sframe) ->
        let rem = Array.length f.fsuccs - f.fnext in
        let child = if i < nf - 1 then 1 else 0 in
        let k = rem + child in
        let jevents = Array.make k None in
        let jslots = Array.make k None in
        if child = 1 then jevents.(0) <- frames.(i + 1).fevent;
        for r = 0 to rem - 1 do
          jevents.(child + r) <- f.fsuccs.(f.fnext + r).event
        done;
        let jf =
          {
            jn = f.fn;
            jdepth = f.fdepth;
            jparent = !parent;
            jbase = f.facc;
            jtaint = f.ftaint;
            jpeak = f.fpeak;
            jevents;
            jslots;
            jpending = Atomic.make k;
          }
        in
        for r = 0 to rem - 1 do
          tasks :=
            {
              tn = f.fsuccs.(f.fnext + r).next;
              tdepth = f.fdepth + 1;
              ttarget = Slot (jf, child + r);
            }
            :: !tasks
        done;
        parent := Slot (jf, 0))
      frames;
    (* Share the freshly computed cache entries along with the work:
       the thief will need exactly them. *)
    publish_now w;
    List.iter (Pool.push h) (List.rev !tasks)
  in
  (* Convert only when there is something to share beyond this
     worker's own continuation; otherwise a chain of unary nodes would
     pay a join frame per node while thieves starve anyway. *)
  let shareable () =
    Stack.fold (fun acc f -> acc + Array.length f.fsuccs - f.fnext) 0 stack
  in
  let want_split () = w.parallel && Pool.wanted h && shareable () >= 2 in
  match start task.tn task.tdepth None with
  | Some r -> deliver w result task.ttarget r
  | None ->
      let rec loop () =
        if not (Stack.is_empty stack) then begin
          let f = Stack.top stack in
          if f.fnext < Array.length f.fsuccs then
            if want_split () then convert ()
            else begin
              let { kind; event; next; _ } = f.fsuccs.(f.fnext) in
              f.fnext <- f.fnext + 1;
              let switch_from = if kind = Switch_step then Some f else None in
              (match start ?switch_from next (f.fdepth + 1) event with
              | Some r ->
                  merge f r event ~switch:(switch_from <> None) ~pure:true
                    ~extra:0
              | None -> ());
              loop ()
            end
          else begin
            let r, below, pure, extra = close f in
            match below with
            | None -> deliver w result task.ttarget r
            | Some b ->
                merge b r f.fevent ~switch:f.fswitch ~pure ~extra;
                loop ()
          end
        end
      in
      loop ()

(* Run the search at width [j] on {!Pool.run} (the calling domain is
   worker 0; at [j=1] no thief ever registers hunger, so the walk
   never converts and is the plain depth-first search).  Each worker
   flushes its pending cache batch when it exits; after the join,
   worker 0 drains the channels, so its tables hold every entry any
   worker computed and their sizes are the search's. *)
let traces_of s root j =
  let result = Atomic.make None in
  let ids = Atomic.make 0 in
  let ws =
    Pool.run ~j
      ~init:(fun h ->
        (make_worker ~id:(Atomic.fetch_and_add ids 1) ~parallel:(j > 1) s, h))
      ~finish:(fun (w, _) -> publish_now w)
      ~idle:(fun (w, _) -> if w.parallel then absorb w)
      ~stop:(fun () -> Atomic.get result <> None)
      (fun (w, h) t -> exec w h result t)
      [ { tn = root; tdepth = 0; ttarget = Root } ]
    |> Array.map fst
  in
  if j > 1 then absorb ws.(0);
  Array.iter (fun w -> Stats.add ~into:s.stats w.ls) ws;
  Stats.set s.stats Stats.memo_size (NodeTbl.length ws.(0).memo);
  Stats.set s.stats Stats.cert_cache_size
    (CertTbl.length ws.(0).cert_cache + CertTbl.length ws.(0).cand_cache);
  match Atomic.get result with
  | Some (traces, _, _) -> traces
  | None -> assert false

(* The requested width, clamped.  [Pool.domain_cap] always applies;
   the hardware core count applies unless the caller explicitly asked
   to oversubscribe — on a machine with fewer cores than requested
   domains, extra domains cannot run anything in parallel, but they do
   multiply GC stop-the-world synchronizations and stretch the
   cache-publication latency to whole scheduler quanta, which is
   exactly the anti-scaling the width request was trying to avoid. *)
let effective_domains cfg =
  let cap =
    if cfg.Config.oversubscribe then Pool.domain_cap else Pool.recommended ()
  in
  max 1 (min cfg.Config.domains cap)

type stepper = worker

let stepper ~config disc (p : Lang.Ast.program) =
  make_worker ~parallel:false
    (make_search ~threads:p.Lang.Ast.threads p.Lang.Ast.code
       p.Lang.Ast.atomics disc config)

let root world = Node.make world ~bit:true ~promised:TidMap.empty

let scratch_config_hash (n : Node.t) =
  CertKey.scratch_hash
    (CertKey.make (Ps.Machine.cur_ts n.world) n.world.Ps.Machine.mem)

let config_hash (n : Node.t) =
  match n.leaves with
  | Some lv -> CertKey.hash (CertKey.own n.world lv)
  | None -> scratch_config_hash n

let behaviors ?(config = Config.default) ?observe disc (p : Lang.Ast.program) =
  if observe <> None && config.Config.reduction <> Config.no_reduction then
    invalid_arg "Enum.behaviors: ~observe needs Config.no_reduction";
  match Ps.Machine.init p with
  | Error e -> Error e
  | Ok world ->
      let s =
        make_search ?observe ~threads:p.Lang.Ast.threads p.Lang.Ast.code
          p.Lang.Ast.atomics disc config
      in
      let root = root world in
      (* An observer sees states in DFS order, which only the
         single-domain walk has. *)
      let j = if observe = None then effective_domains config else 1 in
      Stats.set s.stats Stats.domains_used j;
      let traces =
        Obs.Trace.span ~cat:"explore" "enumerate" (fun () -> traces_of s root j)
      in
      Stats.finish s.stats;
      let completeness = completeness_of s.stats in
      Ok
        {
          traces;
          completeness;
          exact = completeness = Exhaustive;
          stats = s.stats;
        }

let behaviors_exn ?config disc p =
  match behaviors ?config disc p with
  | Ok o -> o
  | Error e -> raise (Errors.Error (Errors.Ill_formed e))

let iter_reachable ?(config = Config.default) disc (p : Lang.Ast.program) ~f =
  (* Reachability consumers (the race check) must see every reachable
     state: reduction prunes states that are redundant for tracesets
     but not for per-state predicates, so it is forced off here. *)
  let config = { config with Config.reduction = Config.no_reduction } in
  match Ps.Machine.init p with
  | Error e -> Error e
  | Ok world ->
      let s =
        make_search ~threads:p.Lang.Ast.threads p.Lang.Ast.code
          p.Lang.Ast.atomics disc config
      in
      (* The reachability walk streams states to [f] in visit order,
         so it stays single-domain; [Race.check_all] parallelizes at
         the granularity of whole scans instead. *)
      let w = make_worker ~parallel:false s in
      (* Best (lowest) depth each node was expanded at.  Marking a node
         visited at the depth it is *first* seen is wrong under a step
         budget: a node first reached near [max_steps] would never be
         re-expanded when later reachable at a shallower depth, cutting
         off its successors and undercounting both states and
         transitions.  Re-expansion on improvement makes the walk
         budget-complete: every state reachable within [max_steps]
         micro-steps along some path is visited.

         Until the walk has cut a state, re-expansion cannot find
         anything: every finished expansion reached everything below
         it, a node still on the stack is only met again deeper, budget
         stops are sticky and node faults are a pure function of the
         state.  So a node is expanded again only once [cuts] is
         positive, and a cut is counted only for a node never
         expanded (one met again at the budget lost nothing). *)
      let best = NodeTbl.create 1024 in
      let rec visit (n : Node.t) depth =
        let prev = NodeTbl.find_opt best n in
        match prev with
        | Some d when d <= depth || Stats.get w.ls Stats.cuts = 0 -> ()
        | _ ->
            if depth >= s.cfg.Config.max_steps then
              Stats.incr w.ls Stats.cuts
            else if budget_stop w <> None || node_fault_fires w n then
              (* Budget or fault: skip the subtree.  The stats counters
                 record the reason, so callers recover completeness via
                 [Stats.truncation_reasons]. *)
              ()
            else begin
              if depth > Stats.get w.ls Stats.peak_depth then
                Stats.set w.ls Stats.peak_depth depth;
              NodeTbl.replace best n depth;
              let first = prev = None in
              if first then begin
                count_node w;
                let committed =
                  consistent w (CertKey.own n.world (Node.leaves n))
                in
                f ~committed n.Node.world
              end;
              let succs = successors w n in
              if first then
                Stats.bump w.ls Stats.transitions (List.length succs);
              List.iter (fun { next; _ } -> visit next (depth + 1)) succs
            end
      in
      Obs.Trace.span ~cat:"explore" "enumerate" (fun () ->
          visit (root world) 0);
      Stats.add ~into:s.stats w.ls;
      Stats.set s.stats Stats.memo_size (NodeTbl.length best);
      Stats.set s.stats Stats.cert_cache_size
        (CertTbl.length w.cert_cache + CertTbl.length w.cand_cache);
      Stats.finish s.stats;
      Ok s.stats
