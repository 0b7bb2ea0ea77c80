(** Control-flow utilities over a single code heap.

    Analyses in {!Analysis} are intraprocedural and block-granular, in
    the CompCert RTL style; this module supplies the graph structure
    they need: successors/predecessors, reachability, reverse postorder
    and basic sanity queries. *)

val successors : Ast.block -> Ast.label list
(** Labels a block can fall through to.  [Call (f, lret)] continues at
    [lret] (in the same code heap) after the callee returns, so [lret]
    is its successor for analysis purposes; [Return] has none. *)

val predecessors : Ast.codeheap -> Ast.label list Ast.LabelMap.t
(** Predecessor map over all blocks of the code heap. *)

val reachable : Ast.codeheap -> Ast.label list
(** Labels reachable from the entry, in depth-first discovery order. *)

val reverse_postorder : Ast.codeheap -> Ast.label list
(** Reverse postorder of the reachable blocks: a good iteration order
    for forward dataflow analyses. *)

val vars_of_codeheap : Ast.codeheap -> Ast.VarSet.t
(** All shared variables accessed anywhere in the code heap. *)

val regs_of_codeheap : Ast.codeheap -> Ast.RegSet.t

val vars_of_program : Ast.program -> Ast.VarSet.t
(** All shared variables accessed by any function of the program
    (whether or not the function is run by a thread). *)

val fold_instrs :
  Ast.codeheap -> init:'a -> f:('a -> Ast.label -> Ast.instr -> 'a) -> 'a

val callees : Ast.codeheap -> Ast.fname list
(** Functions called (deduplicated, in first-call order). *)
