open Lang.Modes

type t = {
  name : string;
  descr : string;
  prog : Lang.Ast.program;
  expected : Lang.Ast.value list list;
  forbidden : Lang.Ast.value list list;
  needs_promises : bool;
}

(* All [expected]/[forbidden] entries are sorted output multisets;
   tests compare them against the sorted outputs of completed traces
   (threads' prints interleave, so the order across threads is not
   meaningful). *)

let b = Lang.Build.blk
let p = Lang.Build.proc

open Lang.Build

let sb =
  {
    name = "sb";
    descr = "Store buffering (Sec. 2.1): r1 = r2 = 0 is allowed in PS2.1";
    prog =
      program ~atomics:[ "x"; "y" ]
        [
          p "t1"
            [
              b "L0"
                [ store "x" ~mode:WRlx (i 1); load "r1" "y" ~mode:Rlx;
                  print (r "r1") ]
                ret;
            ];
          p "t2"
            [
              b "L0"
                [ store "y" ~mode:WRlx (i 1); load "r2" "x" ~mode:Rlx;
                  print (r "r2") ]
                ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 1 ] ];
    forbidden = [];
    needs_promises = false;
  }

let lb =
  {
    name = "lb";
    descr = "Load buffering (Sec. 2.1): r1 = r2 = 1 via a promise";
    prog =
      program ~atomics:[ "x"; "y" ]
        [
          p "t1"
            [
              b "L0"
                [ load "r1" "x" ~mode:Rlx; store "y" ~mode:WRlx (i 1);
                  print (r "r1") ]
                ret;
            ];
          p "t2"
            [
              b "L0"
                [ load "r2" "y" ~mode:Rlx; store "x" ~mode:WRlx (r "r2");
                  print (r "r2") ]
                ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 1 ] ];
    forbidden = [];
    needs_promises = true;
  }

let lb_oota =
  {
    name = "lb_oota";
    descr =
      "Load buffering with dependency (Sec. 2.1): out-of-thin-air 1/1 is \
       forbidden by promise certification";
    prog =
      program ~atomics:[ "x"; "y" ]
        [
          p "t1"
            [
              b "L0"
                [ load "r1" "x" ~mode:Rlx; store "y" ~mode:WRlx (r "r1");
                  print (r "r1") ]
                ret;
            ];
          p "t2"
            [
              b "L0"
                [ load "r2" "y" ~mode:Rlx; store "x" ~mode:WRlx (r "r2");
                  print (r "r2") ]
                ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ 0; 0 ] ];
    forbidden = [ [ 1; 1 ]; [ 0; 1 ] ];
    needs_promises = false;
  }

let cas_exclusive =
  {
    name = "cas_exclusive";
    descr =
      "Two concurrent CAS reading the same write (Sec. 3): timestamp \
       interval adjacency lets at most one succeed";
    prog =
      program ~atomics:[ "x" ]
        [
          p "t1"
            [
              b "L0"
                [
                  cas "r1" "x" ~expect:(i 0) ~write:(i 1) ~rmode:Rlx
                    ~wmode:WRlx;
                  print (r "r1");
                ]
                ret;
            ];
          p "t2"
            [
              b "L0"
                [
                  cas "r2" "x" ~expect:(i 0) ~write:(i 1) ~rmode:Rlx
                    ~wmode:WRlx;
                  print (r "r2");
                ]
                ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ 0; 1 ] ];
    forbidden = [ [ 1; 1 ]; [ 0; 0 ] ];
    needs_promises = false;
  }

let mp body_flag_w body_flag_r name descr expected forbidden =
  {
    name;
    descr;
    prog =
      program ~atomics:[ "x" ]
        [
          p "t1"
            [
              b "L0"
                [ store "y" ~mode:WNa (i 42); store "x" ~mode:body_flag_w (i 1) ]
                ret;
            ];
          p "t2"
            [
              b "L0"
                [ load "r1" "x" ~mode:body_flag_r ]
                (be (r "r1" == i 1) "L1" "L2");
              b "L1" [ load "r2" "y" ~mode:Na; print (r "r2") ] ret;
              b "L2" [ print (i (-1)) ] ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected;
    forbidden;
    needs_promises = false;
  }

let mp_rel_acq =
  mp WRel Acq "mp_rel_acq"
    "Message passing, release/acquire: the reader seeing the flag must see \
     the payload"
    [ [ -1 ]; [ 42 ] ] [ [ 0 ] ]

let mp_rlx =
  mp WRlx Rlx "mp_rlx"
    "Message passing, relaxed flag: the stale payload is observable"
    [ [ -1 ]; [ 0 ]; [ 42 ] ]
    []

(* ------------------------------------------------------------------ *)
(* Fig. 1: loop invariant code motion and the acquire read.  The loop
   bound is 2 (the paper uses 10) to keep exhaustive exploration
   instant; the claim is bound-independent and the bench sweeps it. *)

let fig1_g =
  p "g"
    [
      b "G0" [ store "y" ~mode:WNa (i 1); store "x" ~mode:WRel (i 1) ] ret;
    ]

let fig1_foo_body ~flag_mode ~hoisted =
  let prelude =
    [ assign "r1" (i 0); assign "r2" (i 0) ]
    @ if hoisted then [ load "r2" "y" ~mode:Na ] else []
  in
  let loop_body =
    if hoisted then [ assign "r1" (r "r1" + i 1) ]
    else [ load "r2" "y" ~mode:Na; assign "r1" (r "r1" + i 1) ]
  in
  [
    b "L0" prelude (jmp "L1");
    b "L1" [] (be (r "r1" < i 2) "L2" "L4");
    b "L2" [ load "r3" "x" ~mode:flag_mode ] (be (r "r3" == i 0) "L2" "L3");
    b "L3" loop_body (jmp "L1");
    b "L4" [ print (r "r2") ] ret;
  ]

let fig1_make name descr ~flag_mode ~hoisted expected forbidden =
  {
    name;
    descr;
    prog =
      program ~atomics:[ "x" ]
        [ p "foo" (fig1_foo_body ~flag_mode ~hoisted); fig1_g ]
        ~threads:[ "foo"; "g" ];
    expected;
    forbidden;
    needs_promises = false;
  }

let fig1_foo =
  fig1_make "fig1_foo"
    "Fig. 1 source: acquire flag forces the loop's read of y to see 1"
    ~flag_mode:Acq ~hoisted:false [ [ 1 ] ] [ [ 0 ] ]

let fig1_foo_opt =
  fig1_make "fig1_foo_opt"
    "Fig. 1 target: hoisting the read of y before the acquire loop makes 0 \
     observable — the refinement violation"
    ~flag_mode:Acq ~hoisted:true
    [ [ 0 ]; [ 1 ] ]
    []

let fig1_foo_rlx =
  fig1_make "fig1_foo_rlx"
    "Fig. 1 source, flag read weakened to relaxed: 0 already observable"
    ~flag_mode:Rlx ~hoisted:false
    [ [ 0 ]; [ 1 ] ]
    []

let fig1_foo_opt_rlx =
  fig1_make "fig1_foo_opt_rlx"
    "Fig. 1 target with the relaxed flag: hoisting is sound here"
    ~flag_mode:Rlx ~hoisted:true
    [ [ 0 ]; [ 1 ] ]
    []

(* ------------------------------------------------------------------ *)
(* (Reorder), Sec. 2.3: sound even in racy contexts, via a source
   promise (Fig. 3(c)/Fig. 14(d)). *)

let reorder_env =
  p "env"
    [ b "E0" [ store "x" ~mode:WNa (i 1); load "r9" "y" ~mode:Na;
               print (r "r9") ] ret ]

let reorder_make name descr instrs =
  {
    name;
    descr;
    prog =
      program ~atomics:[]
        [ p "t1" [ b "L0" (instrs @ [ print (r "r0") ]) ret ]; reorder_env ]
        ~threads:[ "t1"; "env" ];
    expected = [ [ 0; 0 ]; [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ];
    forbidden = [];
    needs_promises = false;
  }

let reorder_src =
  reorder_make "reorder_src" "(Reorder) source: r0 := x_na; y_na := 2"
    [ load "r0" "x" ~mode:Na; store "y" ~mode:WNa (i 2) ]

let reorder_tgt =
  reorder_make "reorder_tgt" "(Reorder) target: y_na := 2; r0 := x_na"
    [ store "y" ~mode:WNa (i 2); load "r0" "x" ~mode:Na ]

(* ------------------------------------------------------------------ *)
(* Fig. 4: no write-write race, because races are checked only when
   promises are certified. *)

let fig4 =
  {
    name = "fig4";
    descr =
      "Fig. 4: both threads write z_na only on branches that cannot be taken \
       in the same certified execution — no ww-race";
    prog =
      program ~atomics:[ "x"; "y" ]
        [
          p "t1"
            [
              b "L0" [ load "r1" "y" ~mode:Rlx ] (be (r "r1" == i 1) "A" "B");
              b "A" [ store "z" ~mode:WNa (i 1); print (r "r1") ] ret;
              b "B" [ store "x" ~mode:WRlx (i 1); print (r "r1") ] ret;
            ];
          p "t2"
            [
              b "L0" [ load "r2" "x" ~mode:Rlx ] (be (r "r2" == i 1) "C" "D");
              b "C"
                [ store "z" ~mode:WNa (i 2); store "y" ~mode:WRlx (i 1);
                  print (r "r2") ]
                ret;
              b "D" [ print (r "r2") ] ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ 0; 0 ]; [ 0; 1 ] ];
    forbidden = [ [ 1; 1 ] ];
    needs_promises = false;
  }

(* ------------------------------------------------------------------ *)
(* Fig. 15: DCE across a release write is unsound. *)

let fig15_observer =
  p "g"
    [
      b "G0" [ load "r1" "x" ~mode:Acq ] (be (r "r1" == i 1) "G1" "G2");
      b "G1" [ load "r2" "y" ~mode:Na; print (r "r2") ] ret;
      b "G2" [ print (i (-1)) ] ret;
    ]

let fig15_make name descr first_write expected forbidden =
  {
    name;
    descr;
    prog =
      program ~atomics:[ "x" ]
        [
          p "t1"
            [
              b "L0"
                (first_write
                @ [ store "x" ~mode:WRel (i 1); store "y" ~mode:WNa (i 4) ])
                ret;
            ];
          fig15_observer;
        ]
        ~threads:[ "t1"; "g" ];
    expected;
    forbidden;
    needs_promises = false;
  }

let fig15_src =
  fig15_make "fig15_src"
    "Fig. 15 source: y_na := 2 precedes the release write, so the observer \
     never sees y = 0"
    [ store "y" ~mode:WNa (i 2) ]
    [ [ -1 ]; [ 2 ]; [ 4 ] ]
    [ [ 0 ] ]

let fig15_bad_tgt =
  fig15_make "fig15_bad_tgt"
    "Fig. 15 incorrect target: eliminating y_na := 2 across the release \
     write lets the observer print 0"
    [ skip ]
    [ [ -1 ]; [ 0 ]; [ 4 ] ]
    []

(* ------------------------------------------------------------------ *)
(* Fig. 16: the two-writes DCE example, with a racy reader. *)

let fig16_make name descr first =
  {
    name;
    descr;
    prog =
      program ~atomics:[]
        [
          p "t1" [ b "L0" (first @ [ store "x" ~mode:WNa (i 2) ]) ret ];
          p "t2" [ b "L0" [ load "r1" "x" ~mode:Na; print (r "r1") ] ret ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ 0 ]; [ 2 ] ];
    forbidden = [];
    needs_promises = false;
  }

let fig16_src =
  let tm = fig16_make "fig16_src" "Fig. 16 source: x_na := 1; x_na := 2"
      [ store "x" ~mode:WNa (i 1) ]
  in
  { tm with expected = [ [ 0 ]; [ 1 ]; [ 2 ] ] }

let fig16_tgt =
  fig16_make "fig16_tgt" "Fig. 16 target: skip; x_na := 2" [ skip ]

(* ------------------------------------------------------------------ *)

let coherence =
  {
    name = "coherence";
    descr =
      "Per-location coherence: having read the newer write, a thread cannot \
       go back to the older one";
    prog =
      program ~atomics:[ "x" ]
        [
          p "t1"
            [
              b "L0" [ store "x" ~mode:WRlx (i 1); store "x" ~mode:WRlx (i 2) ]
                ret;
            ];
          p "t2"
            [
              b "L0"
                [ load "r1" "x" ~mode:Rlx; load "r2" "x" ~mode:Rlx;
                  print ((r "r1" * i 10) + r "r2") ]
                ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ 0 ]; [ 1 ] (* 01 *); [ 11 ]; [ 12 ]; [ 22 ]; [ 2 ] ];
    forbidden = [ [ 21 ]; [ 10 ]; [ 20 ] ];
    needs_promises = false;
  }

(* ------------------------------------------------------------------ *)
(* Fence-based message passing (footnote 1: fences are part of the
   full model).  A release fence before a relaxed write, matched by an
   acquire fence after a relaxed read, establishes the same
   synchronization as rel/acq accesses. *)

let mp_fences =
  {
    name = "mp_fences";
    descr =
      "Message passing through fences: rel fence + rlx write / rlx read + \
       acq fence synchronize like rel/acq accesses";
    prog =
      program ~atomics:[ "x" ]
        [
          p "t1"
            [
              b "L0"
                [ store "y" ~mode:WNa (i 42); fence FRel;
                  store "x" ~mode:WRlx (i 1) ]
                ret;
            ];
          p "t2"
            [
              b "L0" [ load "r1" "x" ~mode:Rlx ]
                (be (r "r1" == i 1) "L1" "L2");
              b "L1" [ fence FAcq; load "r2" "y" ~mode:Na; print (r "r2") ] ret;
              b "L2" [ print (i (-1)) ] ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ -1 ]; [ 42 ] ];
    forbidden = [ [ 0 ] ];
    needs_promises = false;
  }

(* IRIW: two writers, two readers disagreeing on the write order.  PS
   has no per-execution total order on independent writes, so the
   split outcome 10/10 is observable even with release/acquire
   accesses (C11 needs SC accesses to forbid it). *)

let iriw =
  {
    name = "iriw";
    descr =
      "IRIW, release/acquire: the two readers may observe the independent \
       writes in opposite orders (10/10)";
    prog =
      program ~atomics:[ "x"; "y" ]
        [
          p "w1" [ b "L0" [ store "x" ~mode:WRel (i 1) ] ret ];
          p "w2" [ b "L0" [ store "y" ~mode:WRel (i 1) ] ret ];
          p "r1"
            [
              b "L0"
                [ load "a" "x" ~mode:Acq; load "b" "y" ~mode:Acq;
                  print ((r "a" * i 10) + r "b") ]
                ret;
            ];
          p "r2"
            [
              b "L0"
                [ load "c" "y" ~mode:Acq; load "d" "x" ~mode:Acq;
                  print ((r "c" * i 10) + r "d") ]
                ret;
            ];
        ]
        ~threads:[ "w1"; "w2"; "r1"; "r2" ];
    expected = [ [ 10; 10 ]; [ 11; 11 ]; [ 0; 0 ] ];
    forbidden = [];
    needs_promises = false;
  }

(* Write-to-read causality: acquiring a flag written after an acquire
   of x transfers the observation of x (message views compose). *)

let wrc =
  {
    name = "wrc";
    descr =
      "WRC: release/acquire chains are cumulative — the third thread must \
       see x = 1 after acquiring y";
    prog =
      program ~atomics:[ "x"; "y" ]
        [
          p "t1" [ b "L0" [ store "x" ~mode:WRel (i 1) ] ret ];
          p "t2"
            [
              b "L0" [ load "r1" "x" ~mode:Acq ]
                (be (r "r1" == i 1) "L1" "L2");
              b "L1" [ store "y" ~mode:WRel (i 1) ] ret;
              b "L2" [] ret;
            ];
          p "t3"
            [
              b "L0" [ load "r2" "y" ~mode:Acq ]
                (be (r "r2" == i 1) "L1" "L2");
              b "L1" [ load "r3" "x" ~mode:Rlx; print (r "r3") ] ret;
              b "L2" [ print (i (-1)) ] ret;
            ];
        ]
        ~threads:[ "t1"; "t2"; "t3" ];
    expected = [ [ -1 ]; [ 1 ] ];
    forbidden = [ [ 0 ] ];
    needs_promises = false;
  }

(* ------------------------------------------------------------------ *)
(* Read-own-write coherence: after writing x, a thread's own reads are
   bounded by its view, so the old value is gone (for itself). *)

let corw =
  {
    name = "corw";
    descr =
      "Read-own-write: a thread that wrote x = 1 can no longer read the \
       initial 0";
    prog =
      program ~atomics:[ "x" ]
        [
          p "t1"
            [
              b "L0"
                [ store "x" ~mode:WRlx (i 1); load "r1" "x" ~mode:Rlx;
                  print (r "r1") ]
                ret;
            ];
          p "t2" [ b "L0" [ store "x" ~mode:WRlx (i 2) ] ret ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ 1 ]; [ 2 ] ];
    forbidden = [ [ 0 ] ];
    needs_promises = false;
  }

(* Control dependencies and promises: a conditional write can be
   promised only if certification can reach it.  With the write under
   the r1 == 1 branch, the LB outcome would be out-of-thin-air and is
   forbidden; with the branch inverted (write when r1 == 0) the
   promise certifies and the outcome appears. *)

let lb_ctrl_make name descr ~then_writes expected forbidden =
  let l1, l2 = if then_writes then ("W", "E") else ("E", "W") in
  {
    name;
    descr;
    prog =
      program ~atomics:[ "x"; "y" ]
        [
          p "t1"
            [
              b "L0" [ load "r1" "x" ~mode:Rlx ] (be (r "r1" == i 1) l1 l2);
              b "W" [ store "y" ~mode:WRlx (i 1); print (r "r1") ] ret;
              b "E" [ print (r "r1") ] ret;
            ];
          p "t2"
            [
              b "L0"
                [ load "r2" "y" ~mode:Rlx; store "x" ~mode:WRlx (r "r2");
                  print (r "r2") ]
                ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected;
    forbidden;
    (* [0;1] in the inverted variant is also reachable by plain
       scheduling (t1 reads x = 0 before writing y), so neither
       variant's expected outcomes require promises. *)
    needs_promises = false;
  }

let lb_ctrl_dep =
  lb_ctrl_make "lb_ctrl_dep"
    "LB with a control dependency: y := 1 only under r1 == 1, so promising \
     it would be out-of-thin-air — 1/1 forbidden"
    ~then_writes:true
    [ [ 0; 0 ] ]
    [ [ 1; 1 ] ]

let lb_ctrl_indep =
  lb_ctrl_make "lb_ctrl_indep"
    "LB with the branch inverted (y := 1 when r1 == 0): the promise \
     certifies, so t2 can read 1 while t1 itself reads 0 — and reading 1 \
     at t1 would strand the promise, so 1/1 stays impossible"
    ~then_writes:false
    [ [ 0; 0 ]; [ 0; 1 ] ]
    [ [ 1; 1 ] ]

(* ------------------------------------------------------------------ *)
(* Release sequences: a relaxed write to x after a release write to x
   (same thread) carries the release view, and an RMW by any thread
   extends the sequence. *)

let release_seq =
  {
    name = "release_seq";
    descr =
      "Release sequence: a later relaxed write to the same location carries \
       the release view, so acquiring either write sees the payload";
    prog =
      program ~atomics:[ "x" ]
        [
          p "t1"
            [
              b "L0"
                [ store "y" ~mode:WNa (i 42); store "x" ~mode:WRel (i 1);
                  store "x" ~mode:WRlx (i 2) ]
                ret;
            ];
          p "t2"
            [
              b "L0" [ load "r1" "x" ~mode:Acq ]
                (be (r "r1" == i 0) "L2" "L1");
              b "L1" [ load "r2" "y" ~mode:Na; print (r "r2") ] ret;
              b "L2" [ print (i (-1)) ] ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ -1 ]; [ 42 ] ];
    forbidden = [ [ 0 ] ];
    needs_promises = false;
  }

let release_seq_rmw =
  {
    name = "release_seq_rmw";
    descr =
      "Release sequence through an RMW: a relaxed CAS by another thread \
       extends the sequence, so acquiring its write still sees the payload";
    prog =
      program ~atomics:[ "x" ]
        [
          p "t1"
            [
              b "L0"
                [ store "y" ~mode:WNa (i 42); store "x" ~mode:WRel (i 1) ]
                ret;
            ];
          p "t2"
            [
              b "L0"
                [ cas "r0" "x" ~expect:(i 1) ~write:(i 2) ~rmode:Rlx
                    ~wmode:WRlx ]
                ret;
            ];
          p "t3"
            [
              b "L0" [ load "r1" "x" ~mode:Acq ]
                (be (r "r1" == i 2) "L1" "L2");
              b "L1" [ load "r2" "y" ~mode:Na; print (r "r2") ] ret;
              b "L2" [ print (i (-1)) ] ret;
            ];
        ]
        ~threads:[ "t1"; "t2"; "t3" ];
    expected = [ [ -1 ]; [ 42 ] ];
    forbidden = [ [ 0 ] ];
    needs_promises = false;
  }

(* ------------------------------------------------------------------ *)
(* A CAS spinlock protecting a non-atomic counter: the acquire CAS
   synchronizes with the release unlock, so the second thread into
   the critical section must see the increment — and the two
   non-atomic writes to the counter are ww-race-free despite being
   unordered syntactically. *)

let spinlock =
  let worker name =
    p name
      [
        b "L0"
          [ cas "r0" "l" ~expect:(i 0) ~write:(i 1) ~rmode:Acq ~wmode:WRlx ]
          (be (r "r0" == i 1) "CS" "L0");
        b "CS"
          [ load "r1" "c" ~mode:Na; store "c" ~mode:WNa (r "r1" + i 1);
            print (r "r1"); store "l" ~mode:WRel (i 0) ]
          ret;
      ]
  in
  {
    name = "spinlock";
    descr =
      "CAS spinlock around a non-atomic counter: mutual exclusion makes the \
       two critical-section reads see 0 then 1, and keeps the counter \
       ww-race-free";
    prog =
      program ~atomics:[ "l" ]
        [ worker "t1"; worker "t2" ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ 0; 1 ] ];
    forbidden = [ [ 0; 0 ]; [ 1; 1 ] ];
    needs_promises = false;
  }

(* ------------------------------------------------------------------ *)
(* Write-write races (Sec. 5). *)

let ww_racy =
  {
    name = "ww_racy";
    descr = "Unsynchronized non-atomic writes to x from two threads: ww-race";
    prog =
      program ~atomics:[]
        [
          p "t1" [ b "L0" [ store "x" ~mode:WNa (i 1) ] ret ];
          p "t2"
            [ b "L0" [ store "x" ~mode:WNa (i 2); load "r1" "x" ~mode:Na;
                       print (r "r1") ] ret ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ 1 ]; [ 2 ] ];
    forbidden = [];
    needs_promises = false;
  }

let ww_sync =
  {
    name = "ww_sync";
    descr =
      "The same two writes ordered by release/acquire message passing: \
       ww-race free";
    prog =
      program ~atomics:[ "f" ]
        [
          p "t1"
            [ b "L0" [ store "x" ~mode:WNa (i 1); store "f" ~mode:WRel (i 1) ]
                ret ];
          p "t2"
            [
              b "L0" [ load "r0" "f" ~mode:Acq ]
                (be (r "r0" == i 1) "L1" "L2");
              b "L1" [ store "x" ~mode:WNa (i 2); load "r1" "x" ~mode:Na;
                       print (r "r1") ] ret;
              b "L2" [ print (i (-1)) ] ret;
            ];
        ]
        ~threads:[ "t1"; "t2" ];
    expected = [ [ -1 ]; [ 2 ] ];
    forbidden = [ [ 1 ] ];
    needs_promises = false;
  }

(* ------------------------------------------------------------------ *)
(* Fig. 5(b): LInv introduces a read-write race, soundly.  The loop
   bound follows the paper (r1 counts from z's value 9 up to 8: zero
   iterations when synchronized). *)

let fig5_g =
  p "g"
    [
      b "G0"
        [ store "z" ~mode:WNa (i 9); store "y" ~mode:WRel (i 1);
          store "x" ~mode:WNa (i 5) ]
        ret;
    ]

let fig5_make name descr ~hoisted =
  let loop_pre = if hoisted then [ load "r" "x" ~mode:Na ] else [] in
  let body =
    [
      b "L0" [ load "r0" "y" ~mode:Acq ] (be (r "r0" == i 1) "L1" "L5");
      b "L1" ([ load "r1" "z" ~mode:Na ] @ loop_pre) (jmp "L2");
      b "L2" [] (be (r "r1" < i 8) "L3" "L4");
      b "L3" [ load "r2" "x" ~mode:Na; assign "r1" (r "r1" + i 1) ] (jmp "L2");
      b "L4" [ print (r "r1") ] ret;
      b "L5" [ print (i (-1)) ] ret;
    ]
  in
  {
    name;
    descr;
    prog =
      program ~atomics:[ "y" ]
        [ p "t1" body; fig5_g ]
        ~threads:[ "t1"; "g" ];
    expected = [ [ -1 ]; [ 9 ] ];
    forbidden = [ [ 0 ] ];
    needs_promises = false;
  }

let fig5_src =
  fig5_make "fig5_src"
    "Fig. 5(b) source: x is read only inside the guarded loop — no \
     read-write race"
    ~hoisted:false

let fig5_tgt =
  fig5_make "fig5_tgt"
    "Fig. 5(b) target after LInv: the hoisted read of x races with g's \
     write, but its value is unused — sound"
    ~hoisted:true

let all =
  [
    sb;
    lb;
    lb_oota;
    cas_exclusive;
    mp_rel_acq;
    mp_rlx;
    fig1_foo;
    fig1_foo_opt;
    fig1_foo_rlx;
    fig1_foo_opt_rlx;
    reorder_src;
    reorder_tgt;
    fig4;
    fig15_src;
    fig15_bad_tgt;
    fig16_src;
    fig16_tgt;
    coherence;
    corw;
    lb_ctrl_dep;
    lb_ctrl_indep;
    release_seq;
    release_seq_rmw;
    spinlock;
    mp_fences;
    iriw;
    wrc;
    ww_racy;
    ww_sync;
    fig5_src;
    fig5_tgt;
  ]

let find name = List.find (fun t -> String.equal t.name name) all

(* ------------------------------------------------------------------ *)
(* Checking a corpus entry against the explorer. *)

type verdict =
  | Pass
  | Mismatch of {
      unexpected : Lang.Ast.value list list;
      missing : Lang.Ast.value list list;
    }
  | Inconclusive of string

type result = { verdict : verdict; observed : Lang.Ast.value list list }

let check ?(config = Explore.Config.default) t =
  Obs.Trace.span ~cat:"litmus" "litmus.check" @@ fun () ->
  let o = Explore.Enum.behaviors_exn ~config Explore.Enum.Interleaving t.prog in
  let sorted l = List.sort compare l in
  let observed =
    Explore.Traceset.done_outs o.Explore.Enum.traces
    |> List.map sorted |> List.sort_uniq compare
  in
  let unexpected = List.filter (fun f -> List.mem (sorted f) observed) t.forbidden in
  let missing =
    List.filter (fun e -> not (List.mem (sorted e) observed)) t.expected
  in
  let verdict =
    (* A forbidden outcome that showed up is decisive regardless of
       completeness: observed traces are genuinely producible.  The
       absence of an outcome is only meaningful on an exhaustive
       exploration. *)
    if unexpected <> [] then Mismatch { unexpected; missing }
    else
      match o.Explore.Enum.completeness with
      | Explore.Enum.Truncated reasons ->
          Inconclusive
            (Format.asprintf "exploration truncated (%a)"
               Explore.Errors.pp_reasons reasons)
      | Explore.Enum.Exhaustive ->
          if missing <> [] then Mismatch { unexpected; missing } else Pass
  in
  { verdict; observed }

let check_all ?(config = Explore.Config.default) ?j () =
  let j = Option.value j ~default:config.Explore.Config.domains in
  (* One corpus program per pool task (case-level parallelism composes
     better than nested pools on litmus-size state spaces). *)
  let outer, inner = Explore.Pool.split ~j ~tasks:(List.length all) in
  let config = { config with Explore.Config.domains = inner } in
  Explore.Pool.map ~j:outer (fun t -> (t, check ~config t)) all

let pp_verdict ppf = function
  | Pass -> Format.pp_print_string ppf "ok"
  | Mismatch { unexpected; missing } ->
      let pp_outs ppf outs =
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
          (fun ppf o ->
            Format.fprintf ppf "[%s]"
              (String.concat ";" (List.map string_of_int o)))
          ppf outs
      in
      Format.pp_print_string ppf "MISMATCH";
      if unexpected <> [] then
        Format.fprintf ppf " forbidden-observed: %a" pp_outs unexpected;
      if missing <> [] then
        Format.fprintf ppf " expected-missing: %a" pp_outs missing
  | Inconclusive why -> Format.fprintf ppf "inconclusive: %s" why

let interleaved_worlds () =
  let program =
    let open Lang.Build in
    let body x y =
      [ assign "a" (i 1); store x ~mode:Lang.Modes.WRlx (i 1);
        assign "b" (i 2); store y ~mode:Lang.Modes.WRlx (i 2) ]
    in
    program ~atomics:[ "x"; "y"; "u"; "w" ]
      [ proc "t1" [ blk "L0" (body "x" "u") ret ];
        proc "t2" [ blk "L0" (body "y" "w") ret ] ]
      ~threads:[ "t1"; "t2" ]
  in
  let stepper =
    Explore.Stepper.create ~discipline:Explore.Enum.Interleaving program
  in
  let step kind choice s =
    match Explore.Stepper.apply stepper s kind ~choice with
    | Some succ -> succ.Explore.Stepper.next
    | None -> failwith "Litmus.interleaved_worlds: step not enabled"
  in
  let run s =
    List.fold_left (fun s _ -> step Explore.Stepper.Thread_step 0 s) s [ 1; 2; 3; 4 ]
  in
  let switch tid = step Explore.Stepper.Switch_step tid in
  let s0 = Result.get_ok (Explore.Stepper.init program) in
  let a = Explore.Stepper.world (s0 |> run |> switch 1 |> run) in
  let b =
    Explore.Stepper.world
      (s0 |> switch 1 |> run |> switch 0 |> run |> switch 1)
  in
  (a, b)
