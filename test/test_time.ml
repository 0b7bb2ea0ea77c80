(* Integer timestamps under deep subdivision: hundreds of nested
   writes, each renumbered back onto the grid, never overflow and never
   lose their order; timestamps near [max_int] come back as small
   ranks. *)

open Grid

let depth = 200

(* [depth] writes of x, each placed by [slot] on the memory the
   previous one left and then renumbered; [min] follows the writer's
   view through the renumbering. *)
let chain ~slot =
  let upper = mk "x" 0 1 2 in
  let rec go i m min =
    if i = depth then m
    else
      let f, to_ = slot m min in
      let m =
        Ps.Memory.add_exn
          (Ps.Message.msg ~var:"x" ~value:(i + 1) ~from_:f ~to_
             ~view:Ps.View.bot)
          m
      in
      match Ps.Memory.renumbering m with
      | Some r ->
          go (i + 1) (Ps.Memory.renumber r m) (Ps.Memory.apply r "x" to_)
      | None -> go (i + 1) m to_
  in
  (go 0 (Ps.Memory.add_exn upper (Ps.Memory.init [ "x" ])) 0, upper)

let check_chain name ~nested (m, upper) =
  let xs = Ps.Memory.per_loc "x" m in
  Alcotest.(check int) (name ^ ": all written") (depth + 2) (List.length xs);
  Alcotest.(check bool) (name ^ ": sorted and disjoint") true
    (sorted_disjoint m);
  Alcotest.(check bool) (name ^ ": canonical") true (Ps.Memory.canonical m);
  Alcotest.(check bool) (name ^ ": small ints") true
    (Ps.Memory.last_ts "x" m <= 2 * (depth + 2) * k);
  (* the writes happened in order: values rise with the timestamps *)
  let values =
    List.filter (fun v -> v > 0) (List.filter_map Ps.Message.value xs)
  in
  Alcotest.(check bool) (name ^ ": in write order") true
    (values = List.sort Int.compare values);
  if nested then
    Alcotest.(check int) (name ^ ": still below the upper message") 0
      (Option.get (Ps.Message.value (List.nth xs (List.length xs - 1))))
  else ignore upper

(* Middle thirds: each write lands in the gap above the previous one,
   below the upper message. *)
let test_deep_thirds_chain () =
  check_chain "thirds" ~nested:true
    (chain ~slot:(fun m min -> List.hd (Ps.Memory.write_slots "x" ~min m)))

(* Midpoints: each update attaches to the previous write, splitting
   the gap in half. *)
let test_deep_midpoint_chain () =
  check_chain "midpoints" ~nested:true
    (chain ~slot:(fun m min ->
         Option.get (Ps.Memory.attach_slot "x" ~after:min m)))

(* Appends: each write goes after the last message. *)
let test_deep_succ_chain () =
  check_chain "appends" ~nested:false
    (chain ~slot:(fun m min ->
         List.nth (List.rev (Ps.Memory.write_slots "x" ~min m)) 0))

(* Timestamps far apart, up to near [max_int], come back as small
   ranks in the same order. *)
let test_big_small_boundary () =
  let big = max_int / 2 in
  let add v from_ to_ =
    Ps.Memory.add_exn
      (Ps.Message.msg ~var:"x" ~value:v ~from_ ~to_ ~view:Ps.View.bot)
  in
  let m =
    Ps.Memory.init [ "x" ] |> add 1 1 2
    |> add 2 (big - 1) big
    |> add 3 big (max_int - 1)
  in
  let m' = canonicalize m in
  Alcotest.(check (list int)) "ranks"
    [ t 0; t 1; t 2; t 3; t 4; t 5 ]
    (endpoints "x" m');
  Alcotest.(check (list (option int))) "order kept"
    [ Some 0; Some 1; Some 2; Some 3 ]
    (List.map Ps.Message.value (Ps.Memory.per_loc "x" m'))

let () =
  Alcotest.run "time"
    [
      ( "overflow-regression",
        [
          Alcotest.test_case "deep midpoint chain" `Quick
            test_deep_midpoint_chain;
          Alcotest.test_case "deep succ chain" `Quick test_deep_succ_chain;
          Alcotest.test_case "deep thirds chain" `Quick test_deep_thirds_chain;
          Alcotest.test_case "small/big boundary" `Quick
            test_big_small_boundary;
        ] );
    ]
