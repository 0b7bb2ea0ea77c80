(** The stepping protocol: typed requests and replies for driving a
    {!Session}, and the line-oriented command syntax [psopt replay]
    reads interactively.

    Commands: [s] step · [b] back · [j N] jump · [i] info · [st]
    where-am-I · [mem] · [views] · [why x] · [next x] · [prm] next
    promise · [sched] full schedule · [q] quit · [h] help. *)

type request =
  | Info
  | Where  (** current position and the step about to execute *)
  | Step
  | Back
  | Jump of int
  | Mem  (** render the memory at the current position *)
  | Views  (** per-thread views and promise sets *)
  | Why of string
      (** everything the debugger knows about one location: its
          messages, what the current thread could read, outstanding
          promises on it, and the next step touching it *)
  | Next_at of string  (** advance to the next step touching a location *)
  | Next_promise  (** advance to the next promise step *)
  | Schedule  (** the whole recorded schedule, annotated *)
  | Quit

type reply =
  | Ok of { pos : int; len : int; text : string }
  | Err of string
  | Bye

val parse_command : string -> (request, string) result
(** One interactive line to a request ([Error] explains the syntax,
    listing the commands). *)

val handle : Session.t -> request -> reply
(** Execute a request against a session (mutating its position). *)
