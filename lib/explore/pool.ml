(* A hand-rolled work-stealing pool over OCaml 5 domains.

   No external dependencies.  Each worker owns a Chase–Lev deque: the
   owner pushes and pops one end without locks, idle workers steal
   single tasks from the other end with a CAS.  The calling domain
   participates as worker 0, so [~j:1] spawns nothing.  One scheduler
   loop ([run]) serves both the ordered [map] and the explorer's
   dynamically split subtree tasks.  Spawned domains are always
   joined — even when [init]/[finish] raises on the coordinating
   domain — via a [Fun.protect] finalizer. *)

let domain_cap = 8

let recommended () =
  max 1 (min domain_cap (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* Chase–Lev work-stealing deque.

   [top] and [bottom] are SC atomics; the buffer is a growable
   circular array published through an [Atomic] so thieves holding a
   stale pointer still read a coherent (frozen) copy.  [top] is
   monotonically increasing, which rules out ABA on the steal CAS.
   Only the owner calls [push]/[pop]; any domain may [steal].  Slots
   are ['a option] so an empty slot needs no dummy value; stale slots
   are not cleared — the retained references are bounded by the buffer
   size and die with the deque. *)

module Deque = struct
  type 'a t = {
    top : int Atomic.t;
    bottom : int Atomic.t;
    buf : 'a option array Atomic.t;
  }

  let create () =
    { top = Atomic.make 0; bottom = Atomic.make 0; buf = Atomic.make (Array.make 16 None) }

  let grow d b t a =
    let n = Array.length a in
    let a' = Array.make (2 * n) None in
    for i = t to b - 1 do
      a'.(i land ((2 * n) - 1)) <- a.(i land (n - 1))
    done;
    Atomic.set d.buf a';
    a'

  (* owner only *)
  let push d v =
    let b = Atomic.get d.bottom in
    let t = Atomic.get d.top in
    let a = Atomic.get d.buf in
    let a = if b - t >= Array.length a then grow d b t a else a in
    a.(b land (Array.length a - 1)) <- Some v;
    Atomic.set d.bottom (b + 1)

  (* owner only *)
  let pop d =
    let b = Atomic.get d.bottom - 1 in
    Atomic.set d.bottom b;
    let t = Atomic.get d.top in
    if b < t then begin
      (* empty: restore the canonical empty state *)
      Atomic.set d.bottom t;
      None
    end
    else begin
      let a = Atomic.get d.buf in
      let v = a.(b land (Array.length a - 1)) in
      if b > t then v
      else begin
        (* last element: race the thieves for it *)
        let won = Atomic.compare_and_set d.top t (t + 1) in
        Atomic.set d.bottom (t + 1);
        if won then v else None
      end
    end

  (* any domain.  [None] means empty or lost the race — callers retry
     elsewhere. *)
  let steal d =
    let t = Atomic.get d.top in
    let b = Atomic.get d.bottom in
    if t >= b then None
    else begin
      let a = Atomic.get d.buf in
      let v = a.(t land (Array.length a - 1)) in
      if Atomic.compare_and_set d.top t (t + 1) then v else None
    end

  let is_empty d = Atomic.get d.top >= Atomic.get d.bottom
end

(* ------------------------------------------------------------------ *)
(* A lock-free single-direction publication channel: producers CAS
   immutable batches onto a cons-list head, consumers remember the
   last head they saw ([mark]) and absorb only the batches published
   since.  When nothing new was published, [drain] is a single atomic
   load and a physical-equality test.

   Intended for publishing domain-local cache entries whose values are
   pure functions of their key: batches are never removed, every
   consumer eventually sees every batch, and seeing an entry twice is
   benign. *)

module Chan = struct
  type 'a node = Nil | Cons of { batch : 'a array; next : 'a node }
  type 'a t = 'a node Atomic.t
  type 'a mark = 'a node

  let create () : 'a t = Atomic.make Nil
  let genesis : 'a mark = Nil
  let mark (t : 'a t) : 'a mark = Atomic.get t

  let publish t batch =
    if Array.length batch > 0 then begin
      let rec go () =
        let head = Atomic.get t in
        if not (Atomic.compare_and_set t head (Cons { batch; next = head })) then go ()
      in
      go ()
    end

  let drain t ~(since : 'a mark) ~f : 'a mark =
    let head = Atomic.get t in
    let rec go n =
      if n != since then
        match n with
        | Nil -> ()
        | Cons { batch; next } ->
            Array.iter f batch;
            go next
    in
    go head;
    head
end

(* ------------------------------------------------------------------ *)
(* The scheduler.  Every worker runs the same loop: pop its own deque
   (LIFO — depth first), else register as hungry and steal from the
   others (FIFO — the oldest, biggest tasks), else back off until the
   caller's stop condition holds.  Tasks may push further tasks onto
   their own worker's deque; [wanted] tells a busy worker that somebody
   is starving while it holds nothing stealable. *)

(* Task runtimes feed the load-balance histogram at every [j]
   (including [j=1], so j=1 and j=4 runs are comparable in
   `psopt metrics`). *)
let task_hist =
  Obs.Metrics.histogram ~help:"Pool task run time" "psopt_pool_task_duration_ns"

let timed f =
  Obs.Trace.span ~cat:"pool" "pool.task" (fun () -> Obs.Metrics.time task_hist f)

(* Exponential idle backoff.  On an undersubscribed machine a spinning
   thief steals time slices from the domain actually doing the work,
   so after a few [cpu_relax] rounds we yield to the scheduler. *)
let backoff n =
  if n < 16 then Domain.cpu_relax ()
  else Unix.sleepf (Float.min 0.0005 (2e-5 *. float_of_int (n - 15)))

type 'a worker = { own : 'a Deque.t; hungry : int Atomic.t }

let push w x = Deque.push w.own x
let wanted w = Atomic.get w.hungry > 0 && Deque.is_empty w.own

let run ~j ~init ~finish ?(idle = ignore) ~stop exec tasks =
  let j = max 1 j in
  let deques = Array.init j (fun _ -> Deque.create ()) in
  (* Deal round-robin; pushing high indices first makes each owner pop
     its low indices first. *)
  let tasks = Array.of_list tasks in
  for i = Array.length tasks - 1 downto 0 do
    Deque.push deques.(i mod j) tasks.(i)
  done;
  let hungry = Atomic.make 0 in
  let failure = Atomic.make None in
  let over () = stop () || Atomic.get failure <> None in
  let worker me =
    let self = { own = deques.(me); hungry } in
    let st = init self in
    let is_hungry = ref false in
    let set_hungry b =
      if b <> !is_hungry then begin
        is_hungry := b;
        if b then Atomic.incr hungry else Atomic.decr hungry
      end
    in
    let exec_one t =
      try timed (fun () -> exec st t)
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set failure None (Some (e, bt)))
    in
    let steal () =
      let rec go k =
        if k >= j then None
        else
          match Deque.steal deques.((me + k) mod j) with
          | Some _ as t -> t
          | None -> go (k + 1)
      in
      go 1
    in
    let rec loop n =
      if not (over ()) then
        match Deque.pop self.own with
        | Some t ->
            exec_one t;
            loop 0
        | None -> (
            set_hungry true;
            match steal () with
            | Some t ->
                set_hungry false;
                exec_one t;
                loop 0
            | None ->
                if not (over ()) then begin
                  idle st;
                  backoff n;
                  loop (n + 1)
                end)
    in
    (* [finish] runs exactly once; its own exception propagates as
       itself, but a loop exception takes precedence over it. *)
    match loop 0 with
    | () ->
        set_hungry false;
        finish st;
        st
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        set_hungry false;
        (try finish st with _ -> ());
        Printexc.raise_with_backtrace e bt
  in
  let spawned = List.init (j - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1))) in
  (* Join every spawned domain no matter how worker 0 exits; a failing
     join must not abandon the rest, so the first failure is re-raised
     after the sweep (worker 0's own failure takes precedence). *)
  let spawn_err = ref None in
  let joined = Array.make (j - 1) None in
  let join_all () =
    List.iteri
      (fun k d ->
        match Domain.join d with
        | st -> joined.(k) <- Some st
        | exception e ->
            if !spawn_err = None then
              spawn_err := Some (e, Printexc.get_raw_backtrace ()))
      spawned
  in
  let st0 = Fun.protect ~finally:join_all (fun () -> worker 0) in
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) (Atomic.get failure);
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !spawn_err;
  Array.append [| st0 |] (Array.map Option.get joined)

(* Results land positionally and each task's exception is captured in
   its slot, so the lowest failing index is re-raised at every [j]. *)
let map ~j f xs =
  let input = Array.of_list xs in
  let n = Array.length input in
  let results = Array.make n None in
  let remaining = Atomic.make n in
  ignore
    (run ~j:(min j n) ~init:ignore ~finish:ignore
       ~stop:(fun () -> Atomic.get remaining = 0)
       (fun () i ->
         results.(i) <-
           Some
             (try Ok (f input.(i))
              with e -> Error (e, Printexc.get_raw_backtrace ()));
         Atomic.decr remaining)
       (List.init n Fun.id));
  Array.to_list results
  |> List.map (function
       | Some (Ok v) -> v
       | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
       | None -> assert false)

let split ~j ~tasks =
  let outer = max 1 (min (min j domain_cap) tasks) in
  (outer, max 1 (j / outer))
