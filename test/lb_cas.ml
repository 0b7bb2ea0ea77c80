(* LB with a CAS on a third location before t1's [y := 1], shared by
   the explorer, replay and soundness suites.  t1's promise of [y = 1]
   certifies only through t1's own successful CAS, which the capped
   memory blocks (the CAS would have to write right after the last [z]
   message) and a reservation of that slot, or the uncapped memory,
   allows. *)
let program =
  Lang.Parse.program_of_string
    {|atomics x y z;
threads t1 t2;
proc t1 entry L {
L:
  r1 := x.rlx;
  c := cas.rlx.rlx(z, 0, 1);
  be c == 1, B, C;
B:
  y.rlx := 1;
  print(r1);
  return;
C:
  print(r1);
  return;
}
proc t2 entry L {
L:
  r2 := y.rlx;
  x.rlx := r2;
  print(r2);
  return;
}|}
