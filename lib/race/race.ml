type kind = WW | RW

type race = {
  kind : kind;
  tid : int;
  var : Lang.Ast.var;
  message : Ps.Message.t;
}

let pp_kind ppf = function
  | WW -> Format.pp_print_string ppf "write-write"
  | RW -> Format.pp_print_string ppf "read-write"

let pp_race ppf r =
  Format.fprintf ppf "%a race: thread %d about to access %s, unobserved %a"
    pp_kind r.kind r.tid r.var Ps.Message.pp r.message

(* The next non-atomic access of a thread, if any, filtered by the
   race kind we are looking for. *)
let next_na_access kind (ts : Ps.Thread.ts) =
  match Ps.Local.nxt ts.Ps.Thread.local with
  | Ps.Local.NInstr (Lang.Ast.Store (x, _, Lang.Modes.WNa)) when kind = WW ->
      Some x
  | Ps.Local.NInstr (Lang.Ast.Load (_, x, Lang.Modes.Na)) when kind = RW ->
      Some x
  | _ -> None

let race_at kind (w : Ps.Machine.world) =
  Ps.Machine.TidMap.fold
    (fun tid ts acc ->
      match acc with
      | Some _ -> acc
      | None -> (
          match next_na_access kind ts with
          | None -> None
          | Some x ->
              (* Fig. 11 uses the relaxed view: unobserved means
                 [V.Trlx(x) < m.to]. *)
              let seen =
                Ps.View.TimeMap.get x ts.Ps.Thread.view.Ps.View.rlx
              in
              let own m =
                List.exists (Ps.Message.equal m) ts.Ps.Thread.prm
              in
              let racy =
                List.find_opt
                  (fun m ->
                    Ps.Message.is_concrete m
                    && Ps.Message.to_ m > seen
                    && not (own m))
                  (Ps.Memory.per_loc x w.Ps.Machine.mem)
              in
              Option.map (fun m -> { kind; tid; var = x; message = m }) racy))
    w.Ps.Machine.tp None

type verdict = Free | Racy of race | Inconclusive of string

(* A race found anywhere is a race at a genuinely reachable state, so
   [Racy] needs no completeness caveat — but claiming freedom over a
   truncated walk would be unsound. *)
let verdict_of first completeness =
  match (first, completeness) with
  | Some r, _ -> Racy r
  | None, Explore.Enum.Exhaustive -> Free
  | None, Explore.Enum.Truncated reasons ->
      Inconclusive
        (Format.asprintf
           "no race found, but the reachability walk was truncated (%a)"
           Explore.Errors.pp_reasons reasons)

exception Found of race

let scan kind disc ?config p =
  match
    Explore.Enum.iter_reachable ?config disc p ~f:(fun ~committed w ->
        if committed then
          match race_at kind w with
          | Some r -> raise (Found r)
          | None -> ())
  with
  | Ok stats -> Ok (verdict_of None (Explore.Enum.completeness_of stats))
  | Error e -> Error e
  | exception Found r -> Ok (Racy r)

let ww_rf ?config p = scan WW Explore.Enum.Interleaving ?config p
let ww_nprf ?config p = scan WW Explore.Enum.Non_preemptive ?config p

let behaviors_ww_rf ?config p =
  let first = ref None in
  let observe w = if Option.is_none !first then first := race_at WW w in
  match Explore.Enum.behaviors ?config ~observe Explore.Enum.Interleaving p with
  | Ok o -> Ok (o, verdict_of !first o.Explore.Enum.completeness)
  | Error e -> Error e

(* One interleaving walk evaluating both predicates at every committed
   state: the first ww race in visit order (the witness [ww_rf]'s
   early exit reports) and the distinct rw race points, by thread and
   location. *)
let ww_rw_scan ?config p =
  let ww = ref None and rw = ref [] in
  match
    Explore.Enum.iter_reachable ?config Explore.Enum.Interleaving p
      ~f:(fun ~committed w ->
        if committed then begin
          if Option.is_none !ww then ww := race_at WW w;
          match race_at RW w with
          | Some r
            when not
                   (List.exists
                      (fun r' -> r'.tid = r.tid && String.equal r'.var r.var)
                      !rw) ->
              rw := r :: !rw
          | _ -> ()
        end)
  with
  | Ok stats -> Ok (!ww, List.rev !rw, Explore.Enum.completeness_of stats)
  | Error e -> Error e

let rw_races ?config p =
  Result.map (fun (_, rw, _) -> rw) (ww_rw_scan ?config p)

let is_ww_rf ?config p =
  match ww_rf ?config p with Ok Free -> true | _ -> false

type report = {
  ww : (verdict, string) result;
  ww_np : (verdict, string) result;
  rw : (race list * Explore.Enum.completeness, string) result;
}

(* Two walks: interleaving ww and rw share one, non-preemptive ww is
   the other.  The walks stream states and stay single-domain, so with
   a domain budget > 1 the parallelism is one pool task per walk. *)
let check_all ?(config = Explore.Config.default) p =
  let j, _ = Explore.Pool.split ~j:config.Explore.Config.domains ~tasks:2 in
  let run = function
    | `Il -> `Il (ww_rw_scan ~config p)
    | `Np -> `Np (ww_nprf ~config p)
  in
  match Explore.Pool.map ~j run [ `Il; `Np ] with
  | [ `Il il; `Np ww_np ] ->
      let ww = Result.map (fun (ww, _, c) -> verdict_of ww c) il in
      let rw = Result.map (fun (_, rw, c) -> (rw, c)) il in
      { ww; ww_np; rw }
  | _ -> assert false

let pp_verdict ppf = function
  | Free -> Format.pp_print_string ppf "write-write race free"
  | Racy r -> pp_race ppf r
  | Inconclusive why -> Format.fprintf ppf "inconclusive: %s" why
