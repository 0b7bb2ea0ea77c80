(* Canonical report renderings shared by the CLI and the daemon.

   The byte-identity contract: `psopt litmus`/`psopt races` and the
   service path (`psopt batch --litmus`, `psopt submit`) print through
   these same functions, so a cached reply replayed from the store is
   indistinguishable from a fresh run.  For that to be sound the text
   must be a pure function of the verdict — no wall-clock stats, no
   file paths, no pool widths. *)

let exit_ok = 0
let exit_fail = 1
let exit_inconclusive = 2
let exit_error = 3

let with_buffer f =
  let b = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer b in
  let code = f ppf in
  Format.pp_print_flush ppf ();
  (Buffer.contents b, code)

(* ------------------------------------------------------------------ *)

let litmus (t : Litmus.t) (r : Litmus.result) =
  with_buffer (fun ppf ->
      Format.fprintf ppf "%-18s %a — %s@." t.Litmus.name Litmus.pp_verdict
        r.Litmus.verdict t.Litmus.descr;
      List.iter
        (fun o ->
          Format.fprintf ppf "    [%s]@."
            (String.concat ";" (List.map string_of_int o)))
        r.Litmus.observed;
      match r.Litmus.verdict with
      | Litmus.Pass -> exit_ok
      | Litmus.Mismatch _ -> exit_fail
      | Litmus.Inconclusive _ -> exit_inconclusive)

let races (rep : Race.report) =
  with_buffer (fun ppf ->
      let worst = ref exit_ok in
      let bump c = if c > !worst then worst := c in
      let report label v =
        match v with
        | Ok (Race.Racy _ as v) ->
            Format.fprintf ppf "%s %a@." label Race.pp_verdict v;
            bump exit_fail
        | Ok (Race.Inconclusive _ as v) ->
            Format.fprintf ppf "%s %a@." label Race.pp_verdict v;
            bump exit_inconclusive
        | Ok Race.Free ->
            Format.fprintf ppf "%s %a@." label Race.pp_verdict Race.Free
        | Error e ->
            Format.fprintf ppf "%s error: %s@." label e;
            bump exit_error
      in
      report "ww-RF:  " rep.Race.ww;
      report "ww-NPRF:" rep.Race.ww_np;
      (match rep.Race.rw with
      | Ok ([], Explore.Enum.Exhaustive) -> Format.fprintf ppf "rw:      none@."
      | Ok ([], Explore.Enum.Truncated rs) ->
          Format.fprintf ppf "rw:      none found (walk truncated: %a)@."
            Explore.Errors.pp_reasons rs
      | Ok (races, c) -> (
          List.iter (fun r -> Format.fprintf ppf "rw:      %a@." Race.pp_race r) races;
          match c with
          | Explore.Enum.Exhaustive -> ()
          | Explore.Enum.Truncated rs ->
              Format.fprintf ppf "rw:      list incomplete (walk truncated: %a)@."
                Explore.Errors.pp_reasons rs)
      | Error e ->
          Format.fprintf ppf "rw:      error: %s@." e;
          bump exit_error);
      !worst)

(* No config or stats line: the traceset and completeness are pure
   functions of (program, discipline, semantic config, budget) — the
   stats counters are not (they vary with pool width and caches). *)
let explore disc (o : Explore.Enum.outcome) =
  with_buffer (fun ppf ->
      Format.fprintf ppf "discipline: %a@." Explore.Enum.pp_discipline disc;
      Format.fprintf ppf "behaviours (%a):@.%a@." Explore.Enum.pp_completeness
        o.Explore.Enum.completeness Explore.Traceset.pp o.Explore.Enum.traces;
      match o.Explore.Enum.completeness with
      | Explore.Enum.Exhaustive -> exit_ok
      | Explore.Enum.Truncated _ -> exit_inconclusive)

(* Identified by pass name only — the program is content-addressed, a
   file path would poison the cache. *)
let verify ~pass (v : Sim.Verif.verdict) =
  with_buffer (fun ppf ->
      Format.fprintf ppf "%s: %a@." pass Sim.Verif.pp_verdict v;
      match v with
      | Sim.Verif.Verified -> exit_ok
      | Sim.Verif.Fail _ -> exit_fail
      | Sim.Verif.Inconclusive _ -> exit_inconclusive)
