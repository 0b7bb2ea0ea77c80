(** Thread-local program state [σ]: register file, current control
    position and call stack.

    Control is block-granular: a running thread holds the function it
    executes, the instructions remaining in the current block and the
    block's terminator.  [Call (f, lret)] pushes the frame [(fn, lret)]
    and enters [f]'s entry block; [Return] pops a frame, or finishes
    the thread when the stack is empty. *)

type frame = { fn : Lang.Ast.fname; ret : Lang.Ast.label }

type pos =
  | Running of {
      fn : Lang.Ast.fname;
      rest : Lang.Ast.instr list;
      term : Lang.Ast.terminator;
      left : int;
          (** [List.length rest]: the program point within the block.
              Two points of one run of identical instructions differ
              only here (their [rest] lists are equal up to length),
              so {!hash} mixes it in and {!equal} tests it first.  It
              is the last field so that [Stdlib.compare]'s order on
              positions, and thus {!compare}'s, is the order without
              it: [left] is a function of [rest], which comes first. *)
    }
  | Finished

type t = {
  regs : Lang.Ast.value Lang.Ast.VarMap.t;  (** absent registers are 0 *)
  pos : pos;
  stack : frame list;
}

val init : Lang.Ast.code -> Lang.Ast.fname -> t option
(** [Init(π, f)]: start at [f]'s entry block; [None] if [f] or its
    entry block is missing. *)

val reg : Lang.Ast.reg -> t -> Lang.Ast.value
val set_reg : Lang.Ast.reg -> Lang.Ast.value -> t -> t
val eval : t -> Lang.Ast.expr -> Lang.Ast.value
val is_finished : t -> bool

(** The next operation of the thread, as needed by the race check
    [nxt(σ) = W(na, x, _)] of Fig. 11 and by the non-preemptive
    machine. *)
type next =
  | NInstr of Lang.Ast.instr
  | NTerm of Lang.Ast.terminator
  | NDone

val nxt : t -> next

val goto : Lang.Ast.code -> Lang.Ast.fname -> Lang.Ast.label -> t -> t option
(** Enter the block labelled [l] of function [fn]; [None] if it does
    not exist (the machine treats that as abort; {!Lang.Wf} rules it
    out statically). *)

val step_over : t -> t
(** Drop the instruction at the head of the current block.
    @raise Invalid_argument if the block has no pending instruction. *)

val compare : t -> t -> int

val equal : t -> t -> bool
(** [compare a b = 0]: [==] first, then [left], then the rest of the
    structure; allocation-free except as {!Share.Map.equal} says. *)

val hash : t -> int
(** Consistent with {!equal}. *)

val pp : Format.formatter -> t -> unit
