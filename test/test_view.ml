(* Time maps, thread views and their update rules (Fig. 8 / Sec. 3). *)

module TM = Ps.View.TimeMap

let time = Alcotest.testable Ps.Time.pp Int.equal
let tm = Alcotest.testable TM.pp TM.equal
let view = Alcotest.testable Ps.View.pp Ps.View.equal

(* Rank [n] on the canonical timestamp grid. *)
let t n = n * Ps.Time.grid

let test_timemap_basics () =
  Alcotest.check time "bot is 0" 0 (TM.get "x" TM.bot);
  let m = TM.set "x" (t 3) TM.bot in
  Alcotest.check time "set/get" (t 3) (TM.get "x" m);
  Alcotest.check time "other loc still 0" 0 (TM.get "y" m);
  (* Setting 0 keeps the sparse representation canonical. *)
  Alcotest.check tm "set 0 = bot" TM.bot (TM.set "x" 0 TM.bot);
  Alcotest.check tm "overwrite to 0 erases" TM.bot (TM.set "x" 0 m)

let test_timemap_join () =
  let a = TM.set "x" (t 3) (TM.set "y" (t 1) TM.bot) in
  let b = TM.set "x" (t 2) (TM.set "z" (t 5) TM.bot) in
  let j = TM.join a b in
  Alcotest.check time "x max" (t 3) (TM.get "x" j);
  Alcotest.check time "y kept" (t 1) (TM.get "y" j);
  Alcotest.check time "z kept" (t 5) (TM.get "z" j);
  Alcotest.(check bool) "a <= join" true (TM.le a j);
  Alcotest.(check bool) "b <= join" true (TM.le b j);
  Alcotest.(check bool) "join not <= a" false (TM.le j a)

let test_view_join_le () =
  let v1 =
    { Ps.View.na = TM.set "x" (t 1) TM.bot; rlx = TM.set "x" (t 2) TM.bot }
  in
  let v2 =
    { Ps.View.na = TM.set "y" (t 3) TM.bot; rlx = TM.set "y" (t 3) TM.bot }
  in
  let j = Ps.View.join v1 v2 in
  Alcotest.(check bool) "v1 <= j" true (Ps.View.le v1 j);
  Alcotest.(check bool) "v2 <= j" true (Ps.View.le v2 j);
  Alcotest.check view "join bot right" v1 (Ps.View.join v1 Ps.View.bot)

let test_read_ts_by_mode () =
  let v =
    { Ps.View.na = TM.set "x" (t 1) TM.bot; rlx = TM.set "x" (t 4) TM.bot }
  in
  Alcotest.check time "na reads bound by Tna" (t 1)
    (Ps.View.read_ts Lang.Modes.Na "x" v);
  Alcotest.check time "rlx bound by Trlx" (t 4)
    (Ps.View.read_ts Lang.Modes.Rlx "x" v);
  Alcotest.check time "acq bound by Trlx" (t 4)
    (Ps.View.read_ts Lang.Modes.Acq "x" v)

(* The paper's read rule: a non-atomic read updates Trlx only; an
   atomic read updates both maps. *)
let test_observe_read () =
  let v = Ps.View.bot in
  let v_na = Ps.View.observe_read Lang.Modes.Na "x" (t 5) v in
  Alcotest.check time "na read leaves Tna" 0 (TM.get "x" v_na.Ps.View.na);
  Alcotest.check time "na read bumps Trlx" (t 5) (TM.get "x" v_na.Ps.View.rlx);
  let v_rlx = Ps.View.observe_read Lang.Modes.Rlx "x" (t 5) v in
  Alcotest.check time "rlx read bumps Tna" (t 5) (TM.get "x" v_rlx.Ps.View.na);
  Alcotest.check time "rlx read bumps Trlx" (t 5) (TM.get "x" v_rlx.Ps.View.rlx);
  (* reads never lower a view *)
  let v_hi = Ps.View.observe_read Lang.Modes.Rlx "x" (t 2) v_rlx in
  Alcotest.check view "no downgrade" v_rlx v_hi

let test_observe_write () =
  let v = Ps.View.observe_write "x" (t 7) Ps.View.bot in
  Alcotest.check time "write bumps Tna" (t 7) (TM.get "x" v.Ps.View.na);
  Alcotest.check time "write bumps Trlx" (t 7) (TM.get "x" v.Ps.View.rlx)

(* ------------------------------------------------------------------ *)
(* Properties *)

let tm_gen =
  QCheck.make
    ~print:(fun m -> Format.asprintf "%a" TM.pp m)
    QCheck.Gen.(
      map
        (fun l ->
          List.fold_left
            (fun m (i, n) ->
              TM.set (Printf.sprintf "v%d" i) ((t n)) m)
            TM.bot l)
        (list_size (int_range 0 6) (pair (int_range 0 4) (int_range 0 20))))

let props =
  [
    QCheck.Test.make ~count:300 ~name:"join commutative"
      (QCheck.pair tm_gen tm_gen) (fun (a, b) ->
        TM.equal (TM.join a b) (TM.join b a));
    QCheck.Test.make ~count:300 ~name:"join associative"
      (QCheck.triple tm_gen tm_gen tm_gen) (fun (a, b, c) ->
        TM.equal (TM.join (TM.join a b) c) (TM.join a (TM.join b c)));
    QCheck.Test.make ~count:300 ~name:"join idempotent" tm_gen (fun a ->
        TM.equal (TM.join a a) a);
    QCheck.Test.make ~count:300 ~name:"join is lub"
      (QCheck.pair tm_gen tm_gen) (fun (a, b) ->
        let j = TM.join a b in
        TM.le a j && TM.le b j);
    QCheck.Test.make ~count:300 ~name:"le antisymmetric"
      (QCheck.pair tm_gen tm_gen) (fun (a, b) ->
        if TM.le a b && TM.le b a then TM.equal a b else true);
  ]

let () =
  Alcotest.run "view"
    [
      ( "timemap",
        [
          Alcotest.test_case "basics" `Quick test_timemap_basics;
          Alcotest.test_case "join" `Quick test_timemap_join;
        ] );
      ( "view",
        [
          Alcotest.test_case "join/le" `Quick test_view_join_le;
          Alcotest.test_case "read_ts by mode" `Quick test_read_ts_by_mode;
          Alcotest.test_case "observe_read" `Quick test_observe_read;
          Alcotest.test_case "observe_write" `Quick test_observe_write;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]
