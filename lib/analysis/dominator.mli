(** Dominator computation over a code heap's CFG (the textbook
    iterative algorithm over reverse postorder), used to find natural
    loops for loop-invariant code motion. *)

type t

val compute : Lang.Ast.codeheap -> t

val dominates : t -> Lang.Ast.label -> Lang.Ast.label -> bool
(** [dominates t a b]: every path from the entry to [b] goes through
    [a].  Reflexive.  Unreachable blocks are dominated by
    everything. *)

val idom : t -> Lang.Ast.label -> Lang.Ast.label option
(** Immediate dominator ([None] for the entry and unreachable
    blocks). *)
