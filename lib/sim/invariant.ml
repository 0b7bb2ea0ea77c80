type t = {
  name : string;
  holds : Tmap.t -> Ps.Memory.t * Ps.Memory.t -> Lang.Ast.VarSet.t -> bool;
}

let iid =
  {
    name = "Iid";
    holds =
      (fun phi (mt, ms) _atomics ->
        Ps.Memory.equal mt ms && Tmap.is_identity_on mt phi);
  }

(* Map a view through φ: every observed target timestamp must have a
   φ-image equal to the source view's timestamp at that location. *)
let timemap_related phi vt vs =
  let ok tm_t tm_s =
    List.for_all
      (fun (y, ts) ->
        match Tmap.find y ts phi with
        | Some ts' -> ts' = Ps.View.TimeMap.get y tm_s
        | None -> false)
      (Ps.View.TimeMap.bindings tm_t)
    (* and conversely the source view observes nothing the target's
       φ-image does not justify *)
    && List.for_all
         (fun (y, ts') ->
           List.exists
             (fun (y2, ts) ->
               String.equal y y2
               && Tmap.find y ts phi = Some ts')
             (Ps.View.TimeMap.bindings tm_t)
           || ts' = 0)
         (Ps.View.TimeMap.bindings tm_s)
  in
  ok vt vs

let view_related phi (vt : Ps.View.t) (vs : Ps.View.t) =
  timemap_related phi vt.Ps.View.na vs.Ps.View.na
  && timemap_related phi vt.Ps.View.rlx vs.Ps.View.rlx

(* The unused timestamp interval before a source message (Fig. 16):
   ∃ tr < f'. ∀ m ∈ Ms(x). m.to ≤ tr ∨ t' ≤ m.from — i.e. the gap
   immediately before the message is open. *)
let gap_before ms_mem x (msg : Ps.Message.t) =
  let f' = Ps.Message.from_ msg in
  List.for_all
    (fun m ->
      Ps.Message.equal m msg
      || Ps.Message.to_ m < f'
      || Ps.Message.from_ m >= Ps.Message.to_ msg)
    (Ps.Memory.per_loc x ms_mem)

let idce =
  {
    name = "Idce";
    holds =
      (fun phi (mt, ms) atomics ->
        Ps.Memory.fold
          (fun msg ok ->
            ok
            &&
            let x = Ps.Message.var msg in
            if
              (not (Ps.Message.is_concrete msg))
              || Lang.Ast.VarSet.mem x atomics
              || Ps.Message.to_ msg = 0
            then true
            else
              match Tmap.find x (Ps.Message.to_ msg) phi with
              | None -> false
              | Some t' -> (
                  match Ps.Memory.find x t' ms with
                  | Some src when Ps.Message.is_concrete src ->
                      Ps.Message.value src = Ps.Message.value msg
                      && (match (Ps.Message.view msg, Ps.Message.view src) with
                         | Some vt, Some vs -> view_related phi vt vs
                         | _ -> false)
                      && gap_before ms x src
                  | _ -> false))
          mt true);
  }

(* The paper's side condition (φ, ι ⊢ M_t ∼ M_s) (definition elided
   there "for brevity"): every concrete target message is φ-related to
   a concrete source message with the same value and φ-related view.
   This is what rules out eliminating a write across a release write:
   the release message's view would record the eliminated write at the
   source but not at the target. *)
let messages_related phi (mt, ms) =
  Ps.Memory.fold
    (fun msg ok ->
      ok
      &&
      if
        (not (Ps.Message.is_concrete msg))
        || Ps.Message.to_ msg = 0
      then true
      else
        let x = Ps.Message.var msg in
        match Tmap.find x (Ps.Message.to_ msg) phi with
        | None -> false
        | Some t' -> (
            match Ps.Memory.find x t' ms with
            | Some src when Ps.Message.is_concrete src -> (
                Ps.Message.value src = Ps.Message.value msg
                &&
                match (Ps.Message.view msg, Ps.Message.view src) with
                | Some vt, Some vs -> view_related phi vt vs
                | _ -> false)
            | _ -> false))
    mt true

let wf_conditions phi (mt, ms) =
  Tmap.dom_covers mt phi && Tmap.image_in ms phi && Tmap.mon phi
  && messages_related phi (mt, ms)

let wf_initial inv vars atomics =
  let m0 = Ps.Memory.init vars in
  inv.holds (Tmap.init vars) (m0, m0) atomics

let holds_wf inv phi (mt, ms) atomics =
  wf_conditions phi (mt, ms) && inv.holds phi (mt, ms) atomics
