(** A fixed-width domain pool built on per-worker work-stealing
    deques.

    Workers are OCaml 5 [Domain]s, each owning a Chase–Lev deque: the
    owner pushes and pops one end without locks, idle workers steal
    the other end with a single CAS.  The calling domain always
    participates as one of the [j] workers, so [~j:1] spawns nothing.
    One scheduler, {!run}, serves both the ordered {!map} and the
    explorer's dynamically split subtree tasks ({!Enum}).  Spawned
    domains are joined even when the coordinating worker's
    [init]/[finish] raises. *)

val domain_cap : int
(** Hard upper bound on pool width (8): oversubscribing a small core
    count still works (the OS time-slices the domains), but unbounded
    widths only add counter contention. *)

val recommended : unit -> int
(** [Domain.recommended_domain_count ()] clamped to [1, domain_cap]. *)

val map : j:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~j f xs] applies [f] to every element on a pool of [j]
    domains (including the caller) and returns results in input
    order.  A task's exception is re-raised after every task ran,
    lowest task index first, so failures are reported identically at
    every [j]. *)

val split : j:int -> tasks:int -> int * int
(** The one domain-budget policy for callers that fan out independent
    explorations: [split ~j ~tasks] is [(outer, inner)] — run the
    [tasks] on [outer = min j tasks] pool workers (clamped to
    [[1, domain_cap]]), each task's own exploration with
    [inner = max 1 (j / outer)] domains. *)

(** {1 The scheduler} *)

type 'a worker
(** One worker's handle on a running {!run}: its own deque of ['a]
    tasks. *)

val push : 'a worker -> 'a -> unit
(** Push a task onto this worker's own deque, where idle workers can
    steal it.  Only from inside this worker's [init] or tasks. *)

val wanted : 'a worker -> bool
(** Some other worker is hungry and this worker's deque is empty: the
    moment to split the current task and {!push} the pieces. *)

val run :
  j:int ->
  init:('a worker -> 's) ->
  finish:('s -> unit) ->
  ?idle:('s -> unit) ->
  stop:(unit -> bool) ->
  ('s -> 'a -> unit) ->
  'a list ->
  's array
(** [run ~j ~init ~finish ?idle ~stop exec tasks] runs [j] workers
    (the caller is worker 0, so [~j:1] spawns nothing) until [stop ()]
    holds, and returns the workers' states, worker 0's first.  [tasks] are dealt round-robin; each worker builds its
    state with [init], runs tasks with [exec] (each one under the
    "pool.task" span and the [psopt_pool_task_duration_ns] histogram),
    calls [idle] between steal attempts when it has nothing to do,
    and hands its state to [finish] before it exits.  [finish] runs on
    every worker whose [init] returned, whatever raised.  The first
    exception escaping [exec] stops every worker and is re-raised
    after all domains are joined. *)

(** A lock-free publication channel: producers CAS immutable batches
    onto a shared cons-list, consumers keep a {!Chan.mark} (the last
    head they saw) and {!Chan.drain} only the batches published since.
    When nothing new was published, [drain] costs one atomic load.
    For domain-local cache entries whose values are pure functions of
    their key: delivery is at-least-once per consumer and unordered,
    both benign for such entries. *)
module Chan : sig
  type 'a t
  type 'a mark

  val create : unit -> 'a t

  val genesis : 'a mark
  (** The before-anything mark: [drain ~since:genesis] sees every
      batch ever published.  Valid for any channel. *)

  val mark : 'a t -> 'a mark
  (** The current head: a [drain ~since:(mark t)] would do nothing. *)

  val publish : 'a t -> 'a array -> unit
  (** Publish a batch.  The array must not be mutated afterwards.
      Empty batches are skipped. *)

  val drain : 'a t -> since:'a mark -> f:('a -> unit) -> 'a mark
  (** Apply [f] to every entry published since [since] (newest batch
      first) and return the new mark. *)
end
