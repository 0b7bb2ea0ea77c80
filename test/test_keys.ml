(* State keys of the explorer's tables (Explore.Enum's memo and
   certification cache).  Each layer's [equal] must agree exactly with
   [compare = 0] and imply equal hashes — on values that are equal but
   share nothing, on maps built in different orders (different tree
   shapes), and on positions inside runs of identical instructions.
   Over a real state space, distinct worlds must hash apart, and
   renumbering must return what it does not move physically. *)

(* A copy that shares no block with [v]. *)
let copy (v : 'a) : 'a = Marshal.from_string (Marshal.to_string v []) 0

(* [l] in an order drawn from [seed]. *)
let permute seed l =
  let st = Random.State.make [| seed |] in
  List.map snd
    (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))

let var i = Printf.sprintf "v%d" i
let t n = n * Ps.Time.grid

(* ------------------------------------------------------------------ *)
(* Specs: small plain data from which a value is built, with an
   insertion order ([seed]) that changes the maps' shapes but not the
   value.  [near rate s] redraws each part of [s] with probability
   [rate]: a near miss of [s] for a small rate. *)

open QCheck.Gen

type 'a spec = { gen : 'a QCheck.Gen.t; near : float -> 'a -> 'a QCheck.Gen.t }

let redraw rate g x =
  let* u = float_bound_exclusive 1. in
  if u < rate then g else return x

let atom g = { gen = g; near = (fun rate x -> redraw rate g x) }

let ( ** ) a b =
  { gen = pair a.gen b.gen; near = (fun r (x, y) -> pair (a.near r x) (b.near r y)) }

let repeat n a =
  { gen = list_repeat n a.gen; near = (fun r l -> flatten_l (List.map (a.near r) l)) }

let upto n a =
  let gen = list_size (int_bound n) a.gen in
  { gen; near = (fun r l -> let* l = flatten_l (List.map (a.near r) l) in redraw r gen l) }

let option a =
  let gen = opt a.gen in
  {
    gen;
    near =
      (fun r -> function
        | None -> redraw r gen None
        | Some x -> let* x = a.near r x in redraw r gen (Some x));
  }

(* A time map: an optional timestamp per location v0..v4. *)
let tm_spec = repeat 5 (option (atom (int_range 1 3)))

let build_tm seed spec =
  List.fold_left
    (fun m (i, r) -> Ps.View.TimeMap.set (var i) (t r) m)
    Ps.View.TimeMap.bot
    (permute seed
       (List.concat (List.mapi (fun i r -> Option.to_list (Option.map (fun r -> (i, r)) r)) spec)))

let view_spec = tm_spec ** tm_spec

let build_view seed (na, rlx) =
  { Ps.View.na = build_tm seed na; rlx = build_tm (seed + 1) rlx }

(* A message of v0 or v1; no view makes a reservation. *)
let msg_spec =
  atom (int_bound 1) ** atom (int_bound 1) ** atom (int_range 0 2)
  ** atom (int_range 1 2) ** option view_spec

let build_msg seed (x, (value, (from_, (width, view)))) =
  let var = var x and from_ = t from_ and to_ = t (from_ + width) in
  match view with
  | None -> Ps.Message.rsv ~var ~from_ ~to_
  | Some v -> Ps.Message.msg ~var ~value ~from_ ~to_ ~view:(build_view seed v)

(* A memory: per location v0..v4, a few adjacent or detached messages,
   each with a view, added in an order drawn from [seed]. *)
let mem_spec =
  repeat 5 (upto 2 (atom (int_bound 1) ** atom (int_bound 1) ** option view_spec))

let build_mem seed spec =
  let msgs =
    List.concat
      (List.mapi
         (fun i loc ->
           let x = var i in
           fst
             (List.fold_left
                (fun (acc, cur) (skip, (value, view)) ->
                  let from_ = cur + t skip in
                  let to_ = from_ + t 1 in
                  let mg =
                    match view with
                    | None -> Ps.Message.rsv ~var:x ~from_ ~to_
                    | Some v ->
                        Ps.Message.msg ~var:x ~value ~from_ ~to_
                          ~view:(build_view seed v)
                  in
                  (mg :: acc, to_))
                ([], 0) loc))
         spec)
  in
  List.fold_left
    (fun m mg -> Ps.Memory.add_exn mg m)
    (Ps.Memory.init (permute seed (List.init 5 var)))
    (permute (seed + 2) msgs)

(* One block: a run of [run] identical instructions, then a store. *)
let run = 6

let code =
  let open Lang.Ast in
  code_of_list
    [
      ( "f",
        codeheap ~entry:"L"
          [
            ( "L",
              block
                (List.init run (fun _ -> Assign ("a", Bin (Add, Reg "a", Val 1)))
                @ [ Store ("v0", Reg "a", Lang.Modes.WRlx) ])
                Return );
          ] );
    ]

(* A local state: registers r0..r4, a point inside the block ([-1]:
   finished) and a stack of frames. *)
let local_spec =
  repeat 5 (atom (int_bound 2))
  ** atom (int_range (-1) (run + 1))
  ** upto 2 (atom (int_bound 1))

let build_local seed (regs, (at, stack)) =
  let l0 = Option.get (Ps.Local.init code "f") in
  let l =
    if at < 0 then { l0 with Ps.Local.pos = Ps.Local.Finished }
    else
      List.fold_left (fun l _ -> Ps.Local.step_over l) l0 (List.init at Fun.id)
  in
  let l =
    List.fold_left
      (fun l (i, v) -> Ps.Local.set_reg (Printf.sprintf "r%d" i) v l)
      l
      (permute seed (List.mapi (fun i v -> (i, v)) regs))
  in
  {
    l with
    Ps.Local.stack =
      List.map
        (fun i -> { Ps.Local.fn = "f"; ret = Printf.sprintf "R%d" i })
        stack;
  }

let thread_spec =
  local_spec ** view_spec ** view_spec ** view_spec
  ** repeat 2 (option view_spec)
  ** upto 2 msg_spec

let build_thread seed (local, (view, (vacq, (vrel, (vrel_loc, prm))))) =
  {
    Ps.Thread.local = build_local seed local;
    view = build_view seed view;
    vacq = build_view (seed + 3) vacq;
    vrel = build_view (seed + 5) vrel;
    vrel_loc =
      List.fold_left
        (fun m (i, v) -> Lang.Ast.VarMap.add (var i) (build_view seed v) m)
        Lang.Ast.VarMap.empty
        (permute seed
           (List.concat
              (List.mapi
                 (fun i v -> Option.to_list (Option.map (fun v -> (i, v)) v))
                 vrel_loc)));
    prm =
      List.sort_uniq Ps.Message.compare (List.map (build_msg seed) prm);
  }

let world_spec = thread_spec ** thread_spec ** atom (int_bound 1) ** mem_spec

let build_world seed (t0, (t1, (cur, mem))) =
  {
    Ps.Machine.tp =
      List.fold_left
        (fun m (tid, ts) -> Ps.Machine.TidMap.add tid ts m)
        Ps.Machine.TidMap.empty
        (permute seed [ (0, build_thread seed t0); (1, build_thread (seed + 7) t1) ]);
    cur;
    mem = build_mem seed mem;
  }

(* A pair of values sharing no block: one spec built in two orders
   (equal values, differently shaped maps), a near miss of it, or two
   independent specs.  The flag says whether the pair must be equal. *)
let pair_of spec build =
  let* kind = int_bound 2 and* s1 = spec.gen in
  let* o1 = int_bound 1000 and* o2 = int_bound 1000 in
  let* s2 =
    match kind with
    | 0 -> return s1
    | 1 ->
        let* rate = oneofl [ 0.3; 0.05; 0.01 ] in
        spec.near rate s1
    | _ -> spec.gen
  in
  return (kind = 0, build o1 s1, copy (build o2 s2))

let agrees (type a) name ?(count = 2000) spec build ~equal ~compare ~hash
    ~(pp : Format.formatter -> a -> unit) =
  QCheck.Test.make ~count ~name
    (QCheck.make
       ~print:(fun (_, a, b) -> Format.asprintf "%a@\nvs@\n%a" pp a pp b)
       (pair_of spec build))
    (fun (same, (a : a), b) ->
      let eq = equal a b in
      eq = (compare a b = 0)
      && eq = (compare b a = 0)
      && ((not eq) || hash a = hash b)
      && ((not same) || eq))

let props =
  [
    agrees "Local: equal = (compare = 0), equal => same hash" local_spec
      build_local ~equal:Ps.Local.equal ~compare:Ps.Local.compare
      ~hash:Ps.Local.hash ~pp:Ps.Local.pp;
    agrees "View: equal = (compare = 0), equal => same hash" view_spec
      build_view ~equal:Ps.View.equal ~compare:Ps.View.compare
      ~hash:Ps.View.hash ~pp:Ps.View.pp;
    agrees "Message: equal = (compare = 0), equal => same hash" msg_spec
      build_msg ~equal:Ps.Message.equal ~compare:Ps.Message.compare
      ~hash:Ps.Message.hash ~pp:Ps.Message.pp;
    agrees "Memory: equal = (compare = 0), equal => same hash" mem_spec
      build_mem ~equal:Ps.Memory.equal ~compare:Ps.Memory.compare
      ~hash:Ps.Memory.hash ~pp:Ps.Memory.pp;
    agrees "Thread: equal = (compare = 0), equal => same hash" thread_spec
      build_thread ~equal:Ps.Thread.equal ~compare:Ps.Thread.compare
      ~hash:Ps.Thread.hash ~pp:Ps.Thread.pp;
    agrees "Machine: equal = (compare = 0), equal => same hash" ~count:1000
      world_spec build_world ~equal:Ps.Machine.equal
      ~compare:Ps.Machine.compare ~hash:Ps.Machine.hash ~pp:Ps.Machine.pp;
  ]

(* ------------------------------------------------------------------ *)
(* Positions inside one run of identical instructions: their [rest]
   lists are equal up to length, and [Hashtbl.hash] stops reading
   before the difference. *)

let test_run_positions () =
  let l0 = Option.get (Ps.Local.init code "f") in
  let at k = List.fold_left (fun l _ -> Ps.Local.step_over l) l0 (List.init k Fun.id) in
  let ls = List.init (run + 2) at in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          Alcotest.(check bool)
            (Printf.sprintf "equal %d %d" i j)
            (i = j) (Ps.Local.equal a b);
          Alcotest.(check bool)
            (Printf.sprintf "compare %d %d" i j)
            (i = j)
            (Ps.Local.compare a b = 0))
        ls)
    ls;
  Alcotest.(check int) "distinct hashes" (run + 2)
    (List.length (List.sort_uniq Int.compare (List.map Ps.Local.hash ls)))

(* ------------------------------------------------------------------ *)
(* Hash spread over a real state space: the certification-bound LB
   family of the benchmarks, whose first thread runs long blocks of
   identical instructions. *)

let cert_heavy ~pad ~noise =
  let h1 = pad / 2 in
  let h2 = pad - h1 in
  let open Lang.Build in
  let padding n = List.init n (fun _ -> assign "a" (r "a" + i 1)) in
  program ~atomics:[ "x"; "y"; "z" ]
    [
      proc "t1"
        [
          blk "L0"
            ([ assign "a" (i 0) ]
            @ padding h1
            @ [ load "r1" "y" ~mode:Lang.Modes.Rlx ]
            @ padding h2
            @ [ store "x" ~mode:Lang.Modes.WRlx (i 1); print (r "r1") ])
            ret;
        ];
      proc "t2"
        [
          blk "L0"
            (List.init noise (fun _ -> load "s" "z" ~mode:Lang.Modes.Rlx)
            @ [
                load "r2" "x" ~mode:Lang.Modes.Rlx;
                store "y" ~mode:Lang.Modes.WRlx (i 1);
                print (r "r2");
              ])
            ret;
        ];
    ]
    ~threads:[ "t1"; "t2" ]

module WorldSet = Set.Make (struct
  type t = Ps.Machine.world

  let compare = Ps.Machine.compare
end)

let reachable prog =
  let acc = ref [] in
  (match
     Explore.Enum.iter_reachable Explore.Enum.Interleaving prog
       ~f:(fun ~committed:_ w -> acc := w :: !acc)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  List.rev !acc

let test_hash_spread () =
  let ws = reachable (cert_heavy ~pad:20 ~noise:8) in
  let distinct = WorldSet.cardinal (WorldSet.of_list ws) in
  let hashes =
    List.length (List.sort_uniq Int.compare (List.map Ps.Machine.hash ws))
  in
  Alcotest.(check int) "distinct worlds" 3594 distinct;
  Alcotest.(check int) "distinct hashes = distinct worlds" distinct hashes

(* On the same worlds: each equals a copy sharing nothing with it, and
   [equal] agrees with [compare] on neighbours in visit order. *)
let test_reachable_agree () =
  let ws = Array.of_list (reachable (cert_heavy ~pad:20 ~noise:8)) in
  let n = Array.length ws in
  Array.iteri
    (fun i w ->
      let c = copy w in
      if not (Ps.Machine.equal w c && Ps.Machine.hash w = Ps.Machine.hash c)
      then Alcotest.failf "world %d differs from its copy" i;
      List.iter
        (fun d ->
          let v = ws.((i + d) mod n) in
          if Ps.Machine.equal w v <> (Ps.Machine.compare w v = 0) then
            Alcotest.failf "worlds %d and %d: equal and compare disagree" i
              ((i + d) mod n))
        [ 1; 7; 101 ])
    ws

(* Two equal worlds reached by different interleavings, the pair the
   bench's [ps_machine_equal] row times: comparing them allocates
   nothing. *)
let test_equal_allocates_nothing () =
  let a, b = Litmus.interleaved_worlds () in
  Alcotest.(check bool) "equal" true (Ps.Machine.equal a b);
  Alcotest.(check bool) "not shared" false (a.Ps.Machine.mem == b.Ps.Machine.mem);
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (Ps.Machine.equal a b))
  done;
  let words = Gc.minor_words () -. w0 in
  if words > 100. then Alcotest.failf "1000 comparisons allocated %.0f words" words

(* ------------------------------------------------------------------ *)
(* Renumbering returns what it does not move physically. *)

let test_renumber_shares () =
  let y_view = Ps.View.observe_write "y" (t 1) Ps.View.bot in
  let y_msg =
    Ps.Message.msg ~var:"y" ~value:1 ~from_:0 ~to_:(t 1) ~view:y_view
  in
  (* [x] gets an off-grid message, as a write into a gap leaves it *)
  let mem =
    Ps.Memory.init [ "x"; "y" ]
    |> Ps.Memory.add_exn y_msg
    |> Ps.Memory.add_exn
         (Ps.Message.msg ~var:"x" ~value:1 ~from_:2 ~to_:4 ~view:Ps.View.bot)
  in
  let r =
    match Ps.Memory.renumbering [ mem ] with
    | Some r -> r
    | None -> Alcotest.fail "expected a renumbering"
  in
  let f = Ps.Memory.apply r in
  let mem' = Ps.Memory.renumber r mem in
  Alcotest.(check bool) "untouched location's list shared" true
    (Ps.Memory.per_loc "y" mem' == Ps.Memory.per_loc "y" mem);
  Alcotest.(check bool) "moved location rebuilt" false
    (Ps.Memory.per_loc "x" mem' == Ps.Memory.per_loc "x" mem);
  Alcotest.(check bool) "view naming no moved location shared" true
    (Ps.View.renumber f y_view == y_view);
  Alcotest.(check bool) "message that does not move shared" true
    (Ps.Message.renumber f y_msg == y_msg);
  let ts = Option.get (Ps.Thread.init code "f") in
  let ts = { ts with Ps.Thread.view = y_view; prm = [ y_msg ] } in
  Alcotest.(check bool) "thread that does not move shared" true
    (Ps.Thread.renumber f ts == ts);
  let moved = { ts with Ps.Thread.view = Ps.View.observe_write "x" 4 y_view } in
  Alcotest.(check bool) "thread that moves rebuilt" false
    (Ps.Thread.renumber f moved == moved);
  let mem_on_grid = Ps.Memory.init [ "x"; "y" ] |> Ps.Memory.add_exn y_msg in
  Alcotest.(check bool) "memory that does not move shared" true
    (Ps.Memory.renumber r mem_on_grid == mem_on_grid)

let () =
  Alcotest.run "keys"
    [
      ( "properties",
        List.map
          (QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 23 |]))
          props );
      ( "positions",
        [ Alcotest.test_case "runs of identical instructions" `Quick
            test_run_positions ] );
      ( "reachable",
        [
          Alcotest.test_case "cert_heavy 20/8: hashes spread" `Quick
            test_hash_spread;
          Alcotest.test_case "cert_heavy 20/8: equal agrees" `Quick
            test_reachable_agree;
          Alcotest.test_case "equal worlds: no allocation" `Quick
            test_equal_allocates_nothing;
        ] );
      ( "renumbering",
        [ Alcotest.test_case "shares what it does not move" `Quick
            test_renumber_shares ] );
    ]
