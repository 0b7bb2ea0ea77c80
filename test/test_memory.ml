(* The message memory: disjoint insertion, readability, canonical
   slotting and the capped memory (Sec. 3). *)

open Grid

let time = Alcotest.testable Ps.Time.pp Int.equal
let msg = Alcotest.testable Ps.Message.pp Ps.Message.equal

let test_init () =
  let m = Ps.Memory.init [ "x"; "y" ] in
  Alcotest.(check (slist string compare)) "vars" [ "x"; "y" ] (Ps.Memory.vars m);
  match Ps.Memory.per_loc "x" m with
  | [ init ] ->
      Alcotest.check msg "init message" (Ps.Message.init "x") init;
      Alcotest.(check (option int)) "value 0" (Some 0) (Ps.Message.value init)
  | _ -> Alcotest.fail "expected exactly the initialization message"

let test_add_disjoint () =
  let m = Ps.Memory.init [ "x" ] in
  let m = Ps.Memory.add_exn (mk "x" 1 1 2) m in
  let m = Ps.Memory.add_exn (mk "x" 2 3 4) m in
  Alcotest.(check int) "3 messages" 3 (List.length (Ps.Memory.per_loc "x" m));
  (* overlapping insert rejected *)
  (match Ps.Memory.add (mk "x" 9 1 3) m with
  | Error clash ->
      Alcotest.check msg "clash is the (1,2] message" (mk "x" 1 1 2) clash
  | Ok _ -> Alcotest.fail "overlap accepted");
  (* duplicate "to" rejected *)
  (match Ps.Memory.add (mk "x" 9 5 4) m with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "should reject: interval (5,4] nonsensical/overlap");
  (* same location, touching endpoints are fine: (2,3] fits *)
  match Ps.Memory.add (mk "x" 7 2 3) m with
  | Ok m' -> Alcotest.(check int) "4 messages" 4 (List.length (Ps.Memory.per_loc "x" m'))
  | Error _ -> Alcotest.fail "adjacent interval rejected"

let test_add_implicit_init () =
  let m = Ps.Memory.init [] in
  let m = Ps.Memory.add_exn (mk "z" 5 1 2) m in
  Alcotest.(check int) "init added implicitly" 2
    (List.length (Ps.Memory.per_loc "z" m))

let test_find_contains_remove () =
  let m = Ps.Memory.init [ "x" ] in
  let msg1 = mk "x" 1 1 2 in
  let m = Ps.Memory.add_exn msg1 m in
  (match Ps.Memory.find "x" (t 2) m with
  | Some found -> Alcotest.check msg "find by to" msg1 found
  | None -> Alcotest.fail "not found");
  Alcotest.(check bool) "contains" true (Ps.Memory.contains msg1 m);
  let m' = Ps.Memory.remove msg1 m in
  Alcotest.(check bool) "removed" false (Ps.Memory.contains msg1 m')

let test_readable () =
  let m = Ps.Memory.init [ "x" ] in
  let m = Ps.Memory.add_exn (mk "x" 1 1 2) m in
  let m = Ps.Memory.add_exn (mk "x" 2 3 4) m in
  (* a non-atomic read bumps Trlx only, so Tna stays 0 *)
  let view = Ps.View.observe_read Lang.Modes.Na "x" (t 2) Ps.View.bot in
  let readable = Ps.Memory.readable Lang.Modes.Rlx "x" view m in
  Alcotest.(check int) "two readable (>= Trlx)" 2 (List.length readable);
  let readable_na = Ps.Memory.readable Lang.Modes.Na "x" view m in
  Alcotest.(check int) "na uses Tna (still 0): all three" 3
    (List.length readable_na);
  (* reservations are never readable *)
  let m = Ps.Memory.add_exn (Ps.Message.rsv ~var:"x" ~from_:(t 4) ~to_:(t 5)) m in
  Alcotest.(check int) "reservation not readable" 2
    (List.length (Ps.Memory.readable Lang.Modes.Rlx "x" view m))

let test_last_ts () =
  let m = Ps.Memory.init [ "x" ] in
  Alcotest.check time "init last" 0 (Ps.Memory.last_ts "x" m);
  let m = Ps.Memory.add_exn (mk "x" 1 1 2) m in
  Alcotest.check time "after add" (t 2) (Ps.Memory.last_ts "x" m);
  Alcotest.check time "unknown loc" 0 (Ps.Memory.last_ts "zz" m)

let test_write_slots () =
  let m = Ps.Memory.init [ "x" ] in
  let m = Ps.Memory.add_exn (mk "x" 1 4 6) m in
  let slots = Ps.Memory.write_slots "x" ~min:0 m in
  (* one slot inside the gap (0, 4), one beyond 6 *)
  Alcotest.(check int) "two slots" 2 (List.length slots);
  List.iter
    (fun (f, to_) ->
      Alcotest.(check bool) "from < to" true (f < to_);
      let probe = Ps.Message.msg ~var:"x" ~value:9 ~from_:f ~to_ ~view:Ps.View.bot in
      match Ps.Memory.add probe m with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "slot overlaps existing message")
    slots;
  (* min constraint: everything below the view is filtered *)
  let slots_hi = Ps.Memory.write_slots "x" ~min:(t 6) m in
  List.iter
    (fun (_, to_) -> Alcotest.(check bool) "to > min" true (to_ > t 6))
    slots_hi

let test_attach_slot () =
  let m = Ps.Memory.init [ "x" ] in
  let m = Ps.Memory.add_exn (mk "x" 1 4 6) m in
  (* attach after the init message: the gap (0,4) is free *)
  (match Ps.Memory.attach_slot "x" ~after:0 m with
  | Some (f, to_) ->
      Alcotest.check time "from is exactly 0" 0 f;
      Alcotest.(check bool) "to inside gap" true (to_ < t 4)
  | None -> Alcotest.fail "expected an attach slot");
  (* attach after the last message *)
  (match Ps.Memory.attach_slot "x" ~after:(t 6) m with
  | Some (f, _) -> Alcotest.check time "from is 6" (t 6) f
  | None -> Alcotest.fail "expected a slot after last");
  (* blocked: a message starting exactly at 'after' *)
  let m2 = Ps.Memory.add_exn (mk "x" 2 6 8) m in
  (match Ps.Memory.attach_slot "x" ~after:(t 6) m2 with
  | None -> ()
  | Some _ -> Alcotest.fail "adjacent space is occupied");
  (* blocked: 'after' strictly inside an interval *)
  match Ps.Memory.attach_slot "x" ~after:(t 5) m with
  | None -> ()
  | Some _ -> Alcotest.fail "inside an occupied interval"

let test_cap () =
  let m = Ps.Memory.init [ "x"; "y" ] in
  let m = Ps.Memory.add_exn (mk "x" 1 2 3) m in
  let m = Ps.Memory.add_exn (mk "x" 2 5 6) m in
  let capped = Ps.Memory.cap m in
  let xs = Ps.Memory.per_loc "x" capped in
  (* init(0,0], rsv(0,2], msg(2,3], rsv(3,5], msg(5,6], cap rsv(6,7] *)
  Alcotest.(check int) "gaps filled + cap" 6 (List.length xs);
  let rsvs = List.filter Ps.Message.is_reservation xs in
  Alcotest.(check int) "three reservations" 3 (List.length rsvs);
  (* cap reservation spans (t_last, t_last+K] *)
  let cap_rsv = List.nth xs (List.length xs - 1) in
  Alcotest.check time "cap from" (t 6) (Ps.Message.from_ cap_rsv);
  Alcotest.check time "cap to" (t 7) (Ps.Message.to_ cap_rsv);
  (* y has just its init and a cap *)
  Alcotest.(check int) "y capped" 2 (List.length (Ps.Memory.per_loc "y" capped));
  (* no write slot fits strictly between existing messages anymore *)
  let slots = Ps.Memory.write_slots "x" ~min:0 capped in
  List.iter
    (fun (_, to_) ->
      Alcotest.(check bool) "only beyond the cap" true (to_ > t 7))
    slots

let test_overlaps () =
  Alcotest.(check bool) "overlap" true
    (Ps.Message.overlaps (mk "x" 1 1 3) (mk "x" 2 2 4));
  Alcotest.(check bool) "disjoint" false
    (Ps.Message.overlaps (mk "x" 1 1 2) (mk "x" 2 2 3));
  Alcotest.(check bool) "different locations" false
    (Ps.Message.overlaps (mk "x" 1 1 3) (mk "y" 2 2 4));
  Alcotest.(check bool) "zero-width init never overlaps" false
    (Ps.Message.overlaps (Ps.Message.init "x") (mk "x" 1 0 1))

(* ------------------------------------------------------------------ *)
(* Properties: random insertion sequences keep per-location lists
   sorted and disjoint; slots returned are always insertable. *)

let ops_gen =
  QCheck.Gen.(list_size (int_range 1 25) (pair (int_range 0 2) (int_range 0 50)))

let build ops =
  List.fold_left
    (fun m (loc_i, _) ->
      let x = Printf.sprintf "v%d" loc_i in
      match Ps.Memory.write_slots x ~min:0 m with
      | [] -> m
      | slots ->
          let f, to_ = List.nth slots (loc_i mod List.length slots) in
          canonicalize
            (Ps.Memory.add_exn
               (Ps.Message.msg ~var:x ~value:loc_i ~from_:f ~to_
                  ~view:Ps.View.bot)
               m))
    (Ps.Memory.init [ "v0"; "v1"; "v2" ])
    ops

let mem_gen =
  QCheck.make ~print:(fun m -> Format.asprintf "%a" Ps.Memory.pp m)
    (QCheck.Gen.map build ops_gen)

(* ------------------------------------------------------------------ *)
(* Integer timestamps: slot arithmetic on the grid and renumbering. *)

let test_normalization () =
  (* x: init, a write at (6, 12], a reservation at (12, 18], then a
     write in the middle third of (0, 6) *)
  let m = Ps.Memory.init [ "x"; "y" ] in
  let m = Ps.Memory.add_exn (mk "x" 1 1 2) m in
  let m =
    Ps.Memory.add_exn (Ps.Message.rsv ~var:"x" ~from_:(t 2) ~to_:(t 3)) m
  in
  let raw = Ps.Memory.add_exn (Ps.Message.msg ~var:"x" ~value:2 ~from_:2 ~to_:4
      ~view:(Ps.View.observe_write "x" (t 3) Ps.View.bot)) m in
  Alcotest.(check bool) "canonical before the write" true
    (Ps.Memory.canonical m);
  Alcotest.(check bool) "the write leaves the grid" false
    (Ps.Memory.canonical raw);
  match Ps.Memory.renumbering [ raw ] with
  | None -> Alcotest.fail "expected a renumbering"
  | Some r ->
      let m' = Ps.Memory.renumber r raw in
      Alcotest.(check (list int)) "x's endpoints become ranks"
        [ t 0; t 1; t 2; t 3; t 4; t 5 ] (endpoints "x" m');
      Alcotest.(check (list int)) "y untouched" [ 0 ] (endpoints "y" m');
      Alcotest.(check bool) "canonical after" true (Ps.Memory.canonical m');
      (* the message view is renumbered through the same map *)
      let w = Option.get (Ps.Memory.find "x" (t 2) m') in
      Alcotest.check time "view follows its message" (t 5)
        (Ps.View.TimeMap.get "x" (Option.get (Ps.Message.view w)).Ps.View.rlx)

let test_arithmetic () =
  (* On the grid every slot one step creates is an integer strictly
     inside its gap. *)
  let m = Ps.Memory.add_exn (mk "x" 1 1 2) (Ps.Memory.init [ "x" ]) in
  Alcotest.(check (list (pair int int))) "middle third and after-slot"
    [ (2, 4); (t 3, t 4) ]
    (Ps.Memory.write_slots "x" ~min:0 m);
  Alcotest.(check (option (pair int int))) "attach: midpoint of the gap"
    (Some (0, 3)) (Ps.Memory.attach_slot "x" ~after:0 m);
  Alcotest.(check (option (pair int int))) "attach: free tail"
    (Some (t 2, t 3)) (Ps.Memory.attach_slot "x" ~after:(t 2) m);
  let cap = List.rev (Ps.Memory.per_loc "x" (Ps.Memory.cap m)) in
  Alcotest.(check (pair int int)) "cap reservation" (t 2, t 3)
    (Ps.Message.from_ (List.hd cap), Ps.Message.to_ (List.hd cap));
  (* an append keeps a canonical memory canonical *)
  let f, to_ = List.nth (Ps.Memory.write_slots "x" ~min:(t 2) m) 0 in
  Alcotest.(check bool) "append stays canonical" true
    (Ps.Memory.canonical (Ps.Memory.add_exn (mk "x" 2 (f / k) (to_ / k)) m))

let test_midpoint () =
  (* attach into the gap, renumber, repeat: the slot stays strictly
     between its neighbours *)
  let m = Ps.Memory.add_exn (mk "x" 1 1 2) (Ps.Memory.init [ "x" ]) in
  match Ps.Memory.attach_slot "x" ~after:0 m with
  | None -> Alcotest.fail "expected an attach slot"
  | Some (f, to_) ->
      Alcotest.(check bool) "0 < midpoint < 6" true
        (f = 0 && 0 < to_ && to_ < t 1);
      let m =
        canonicalize
          (Ps.Memory.add_exn (Ps.Message.rsv ~var:"x" ~from_:f ~to_) m)
      in
      Alcotest.(check (list int)) "renumbered" [ t 0; t 1; t 2; t 3 ]
        (endpoints "x" m)

let test_comparison () =
  (* Order-isomorphic memories have one canonical form: equal, same
     hash, compare 0. *)
  let mem scale =
    Ps.Memory.init [ "x" ]
    |> Ps.Memory.add_exn
         (Ps.Message.msg ~var:"x" ~value:1 ~from_:scale ~to_:(3 * scale)
            ~view:Ps.View.bot)
    |> Ps.Memory.add_exn
         (Ps.Message.msg ~var:"x" ~value:2 ~from_:(3 * scale) ~to_:(7 * scale)
            ~view:Ps.View.bot)
  in
  let a = canonicalize (mem 1) and b = canonicalize (mem 5) in
  Alcotest.(check bool) "raw forms differ" false
    (Ps.Memory.equal (mem 1) (mem 5));
  Alcotest.(check bool) "canonical forms equal" true (Ps.Memory.equal a b);
  Alcotest.(check int) "compare 0" 0 (Ps.Memory.compare a b);
  Alcotest.(check int) "same hash" (Ps.Memory.hash a) (Ps.Memory.hash b)

let test_pp () =
  let str = Format.asprintf "%a" Ps.Time.pp in
  Alcotest.(check (list string)) "ranks and fractions"
    [ "0"; "1"; "2"; "1/2"; "1/3"; "2/3"; "7/6" ]
    (List.map str [ 0; t 1; t 2; 3; 2; 4; 7 ]);
  Alcotest.(check string) "message"
    "<x:1@(1,2] (na:{}, rlx:{})>"
    (Format.asprintf "%a" Ps.Message.pp (mk "x" 1 1 2))

(* Arbitrary disjoint integer intervals, mostly off the grid: per
   location a list of (skip, width, reservation?), a skip of 0 placing
   the message adjacent to the previous one.  [scale] stretches every
   timestamp, giving an order-isomorphic copy. *)
let spec_gen =
  QCheck.Gen.(
    list_repeat 3
      (list_size (int_range 0 8)
         (triple (int_range 0 4) (int_range 1 9) bool)))

let of_spec ?(scale = 1) spec =
  List.fold_left
    (fun m (i, loc) ->
      let x = Printf.sprintf "v%d" i in
      fst
        (List.fold_left
           (fun (m, cur) (skip, width, rsv) ->
             let from_ = cur + (scale * skip) in
             let to_ = from_ + (scale * width) in
             let mg =
               if rsv then Ps.Message.rsv ~var:x ~from_ ~to_
               else
                 Ps.Message.msg ~var:x ~value:width ~from_ ~to_
                   ~view:(Ps.View.observe_write x to_ Ps.View.bot)
             in
             (Ps.Memory.add_exn mg m, to_))
           (m, 0) loc))
    (Ps.Memory.init [ "v0"; "v1"; "v2" ])
    (List.mapi (fun i loc -> (i, loc)) spec)

let spec_arb =
  QCheck.make
    ~print:(fun spec -> Format.asprintf "%a" Ps.Memory.pp (of_spec spec))
    spec_gen

let renumbered m =
  match Ps.Memory.renumbering [ m ] with
  | Some r -> (Ps.Memory.renumber r m, Ps.Memory.apply r)
  | None -> (m, fun _ t -> t)

let rec adjacency = function
  | a :: (b :: _ as rest) ->
      (Ps.Message.to_ a = Ps.Message.from_ b) :: adjacency rest
  | _ -> []

let renumbering_props =
  [
    QCheck.Test.make ~count:300 ~name:"renumbering: monotone per location"
      spec_arb (fun spec ->
        let m = of_spec spec in
        let _, f = renumbered m in
        List.for_all
          (fun x ->
            let e = endpoints x m in
            List.map (f x) e = List.mapi (fun i _ -> i * k) e)
          (Ps.Memory.vars m));
    QCheck.Test.make ~count:300
      ~name:"renumbering: adjacency and gaps kept" spec_arb (fun spec ->
        let m = of_spec spec in
        let m', _ = renumbered m in
        List.for_all
          (fun x ->
            let l = Ps.Memory.per_loc x m and l' = Ps.Memory.per_loc x m' in
            adjacency l = adjacency l'
            && List.map Ps.Message.value l = List.map Ps.Message.value l')
          (Ps.Memory.vars m));
    QCheck.Test.make ~count:300 ~name:"renumbering: idempotent" spec_arb
      (fun spec ->
        let m', _ = renumbered (of_spec spec) in
        Ps.Memory.canonical m' && Ps.Memory.renumbering [ m' ] = None);
    QCheck.Test.make ~count:200
      ~name:"renumbering: canonical input kept as is" mem_gen
      (fun m ->
        let w = Result.get_ok (Ps.Machine.init Litmus.sb.Litmus.prog) in
        let w', r = Ps.Machine.install w (Ps.Machine.cur_ts w) m in
        Ps.Memory.canonical m && r = None && w'.Ps.Machine.mem == m
        && Ps.Machine.cur_ts w' == Ps.Machine.cur_ts w);
    QCheck.Test.make ~count:300 ~name:"renumbering: pairs share one map"
      (QCheck.pair spec_arb spec_arb) (fun (s1, s2) ->
        (* both on the grid's spacing, each with gaps the other may fill *)
        let a = of_spec ~scale:k s1 and b = of_spec ~scale:k s2 in
        let union x =
          List.sort_uniq Int.compare (endpoints x a @ endpoints x b)
        in
        let on_grid x = union x = List.mapi (fun i _ -> i * k) (union x) in
        match Ps.Memory.renumbering [ a; b ] with
        | None -> List.for_all on_grid (Ps.Memory.vars a)
        | Some r ->
            let a' = Ps.Memory.renumber r a and b' = Ps.Memory.renumber r b in
            (not (List.for_all on_grid (Ps.Memory.vars a)))
            && Ps.Memory.renumbering [ a'; b' ] = None
            && List.for_all
                 (fun x ->
                   List.map (Ps.Memory.apply r x) (union x)
                   = List.mapi (fun i _ -> i * k) (union x))
                 (Ps.Memory.vars a));
    QCheck.Test.make ~count:200 ~name:"midpoint strictly between" mem_gen
      (fun m ->
        List.for_all
          (fun x ->
            List.for_all
              (fun mg ->
                let after = Ps.Message.to_ mg in
                match Ps.Memory.attach_slot x ~after m with
                | None -> true
                | Some (f, to_) ->
                    let above =
                      List.filter (fun e -> e > after) (endpoints x m)
                    in
                    f = after && after < to_
                    && (match above with e :: _ -> to_ < e | [] -> true)
                    && Result.is_ok
                         (Ps.Memory.add (Ps.Message.rsv ~var:x ~from_:f ~to_) m))
              (Ps.Memory.per_loc x m))
          (Ps.Memory.vars m));
    QCheck.Test.make ~count:200 ~name:"hash respects equality"
      (QCheck.pair spec_arb (QCheck.int_range 2 50)) (fun (spec, scale) ->
        let a, _ = renumbered (of_spec spec)
        and b, _ = renumbered (of_spec ~scale spec) in
        Ps.Memory.equal a b && Ps.Memory.hash a = Ps.Memory.hash b);
    QCheck.Test.make ~count:200 ~name:"compare total order"
      (QCheck.pair spec_arb spec_arb) (fun (s1, s2) ->
        let a, _ = renumbered (of_spec s1) and b, _ = renumbered (of_spec s2) in
        let c = Ps.Memory.compare a b in
        (c = 0) = Ps.Memory.equal a b && Ps.Memory.compare b a = -c);
  ]

let props =
  [
    QCheck.Test.make ~count:200 ~name:"insertion keeps sorted+disjoint" mem_gen
      sorted_disjoint;
    QCheck.Test.make ~count:200 ~name:"every slot is insertable" mem_gen
      (fun m ->
        List.for_all
          (fun x ->
            List.for_all
              (fun (f, to_) ->
                match
                  Ps.Memory.add
                    (Ps.Message.msg ~var:x ~value:0 ~from_:f ~to_
                       ~view:Ps.View.bot)
                    m
                with
                | Ok _ -> true
                | Error _ -> false)
              (Ps.Memory.write_slots x ~min:0 m))
          (Ps.Memory.vars m));
    QCheck.Test.make ~count:200 ~name:"cap leaves no gaps" mem_gen (fun m ->
        let capped = Ps.Memory.cap m in
        List.for_all
          (fun x ->
            let rec no_gap = function
              | a :: (b :: _ as rest) ->
                  Ps.Message.to_ a = Ps.Message.from_ b
                  && no_gap rest
              | _ -> true
            in
            no_gap (Ps.Memory.per_loc x capped))
          (Ps.Memory.vars capped));
    QCheck.Test.make ~count:200 ~name:"cap preserves concrete messages" mem_gen
      (fun m ->
        let capped = Ps.Memory.cap m in
        List.for_all
          (fun msg ->
            (not (Ps.Message.is_concrete msg)) || Ps.Memory.contains msg capped)
          (Ps.Memory.messages m));
  ]

let () =
  Alcotest.run "memory"
    [
      ( "unit",
        [
          Alcotest.test_case "init" `Quick test_init;
          Alcotest.test_case "add/disjointness" `Quick test_add_disjoint;
          Alcotest.test_case "implicit init" `Quick test_add_implicit_init;
          Alcotest.test_case "find/contains/remove" `Quick
            test_find_contains_remove;
          Alcotest.test_case "readable" `Quick test_readable;
          Alcotest.test_case "last_ts" `Quick test_last_ts;
          Alcotest.test_case "write_slots" `Quick test_write_slots;
          Alcotest.test_case "attach_slot" `Quick test_attach_slot;
          Alcotest.test_case "capped memory" `Quick test_cap;
          Alcotest.test_case "overlaps" `Quick test_overlaps;
          Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "midpoint" `Quick test_midpoint;
          Alcotest.test_case "comparison" `Quick test_comparison;
          Alcotest.test_case "pretty-printing" `Quick test_pp;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest props
        @ List.map
            (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 19 |]))
            renumbering_props );
    ]
