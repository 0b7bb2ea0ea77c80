type verdict =
  | Refines
  | Violates of Ps.Event.trace list
  | Inconclusive of string

type report = {
  verdict : verdict;
  target : Enum.outcome;
  source : Enum.outcome;
}

(* The two sides of a refinement check (and the two disciplines of an
   equivalence check) are independent explorations: with a domain
   budget > 1 they run as two pool tasks, splitting the budget by
   {!Pool.split}.  [Enum.behaviors] is deterministic in [domains], so
   the verdict is identical either way. *)
let both_behaviors ~config disc pa pb =
  let stage d p cfg =
    Obs.Trace.span ~cat:"refine" "refine.stage" (fun () ->
        Enum.behaviors_exn ~config:cfg d p)
  in
  let outer, inner = Pool.split ~j:config.Config.domains ~tasks:2 in
  if outer > 1 then
    let inner = { config with Config.domains = inner } in
    match
      Pool.map ~j:outer
        (fun (d, p) -> stage d p inner)
        [ (fst disc, pa); (snd disc, pb) ]
    with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  else (stage (fst disc) pa config, stage (snd disc) pb config)

let of_outcomes ~(target : Enum.outcome) ~(source : Enum.outcome) =
  let reasons o =
    match o.Enum.completeness with
    | Enum.Exhaustive -> []
    | Enum.Truncated rs -> rs
  in
  match List.sort_uniq compare (reasons target @ reasons source) with
  | _ :: _ as rs ->
      Inconclusive
        (Format.asprintf
           "exploration truncated (%a); raise the exhausted budgets"
           Errors.pp_reasons rs)
  | [] ->
      (* The paper's behaviour sets are prefix-closed; compare the
         closures so that a divergence prefix of one side is matched
         by any extension on the other. *)
      let bad =
        Traceset.diff
          (Traceset.closure target.traces)
          (Traceset.closure source.traces)
      in
      if Traceset.is_empty bad then Refines
      else
        (* Completed counterexamples first: they are the decisive
           ones. *)
        let done_, open_ =
          List.partition
            (fun tr -> tr.Ps.Event.ending = Ps.Event.Done)
            (Traceset.elements bad)
        in
        Violates (done_ @ open_)

let check ?(config = Config.default) ?(discipline = Enum.Interleaving)
    ~target ~source () =
  let t, s = both_behaviors ~config (discipline, discipline) target source in
  { verdict = of_outcomes ~target:t ~source:s; target = t; source = s }

let refines ?config ?discipline ~target ~source () =
  (check ?config ?discipline ~target ~source ()).verdict = Refines

let equivalent ?config ?discipline p1 p2 =
  refines ?config ?discipline ~target:p1 ~source:p2 ()
  && refines ?config ?discipline ~target:p2 ~source:p1 ()

let equivalent_disciplines ?(config = Config.default) p =
  let a, b =
    both_behaviors ~config (Enum.Interleaving, Enum.Non_preemptive) p p
  in
  match of_outcomes ~target:a ~source:b with
  | Refines -> of_outcomes ~target:b ~source:a
  | v -> v

let safe ?config p =
  let o = Enum.behaviors_exn ?config Enum.Interleaving p in
  Traceset.for_all
    (fun tr -> tr.Ps.Event.ending <> Ps.Event.Abort)
    o.Enum.traces

let pp_verdict ppf = function
  | Refines -> Format.pp_print_string ppf "refines"
  | Violates bad ->
      Format.fprintf ppf "violates (%d counterexample trace(s)): @[<v>%a@]"
        (List.length bad)
        (Format.pp_print_list Ps.Event.pp_trace)
        bad
  | Inconclusive why -> Format.fprintf ppf "inconclusive: %s" why
