(** Timestamps ([Time] in Fig. 8).

    PS2.1 draws timestamps from a dense order, but only the relative
    order of messages and the exact adjacency of their endpoints are
    observable ({!Memory}).  So a timestamp here is a plain [int], and
    after every machine step the explorer puts each location's
    endpoints back on the grid [0, K, 2K, …] ({!Memory.renumbering}).
    The spacing {!grid} leaves room for every slot one step can
    create: the middle third and the midpoint of a gap of width [K]
    are integers too. *)

type t = int

val grid : int
(** The spacing [K] of canonical endpoints: [6]. *)

val pp : Format.formatter -> t -> unit
(** Prints the rank [t / K]: [n] when [t] is a multiple of [K],
    otherwise the reduced fraction [n/d]. *)

val mix : int -> int
(** SplitMix-style finalizer: avalanches a word across all bits.
    Canonical timestamps are multiples of [K], so hashing them without
    mixing would cluster hash buckets. *)

val hash_combine : int -> int -> int
(** [hash_combine h k] folds component hash [k] into accumulator [h];
    order-dependent.  The combinator of every [hash] function of the
    machine-state stack ({!View}, {!Message}, {!Memory}, {!Thread},
    {!Machine}). *)
