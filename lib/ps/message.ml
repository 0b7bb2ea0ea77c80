type t =
  | Msg of {
      var : Lang.Ast.var;
      value : Lang.Ast.value;
      from_ : Time.t;
      to_ : Time.t;
      view : View.t;
    }
  | Rsv of { var : Lang.Ast.var; from_ : Time.t; to_ : Time.t }

let msg ~var ~value ~from_ ~to_ ~view = Msg { var; value; from_; to_; view }
let rsv ~var ~from_ ~to_ = Rsv { var; from_; to_ }

let init x =
  Msg { var = x; value = 0; from_ = 0; to_ = 0; view = View.bot }

let var = function Msg m -> m.var | Rsv r -> r.var
let from_ = function Msg m -> m.from_ | Rsv r -> r.from_
let to_ = function Msg m -> m.to_ | Rsv r -> r.to_
let value = function Msg m -> Some m.value | Rsv _ -> None
let view = function Msg m -> Some m.view | Rsv _ -> None
let is_concrete = function Msg _ -> true | Rsv _ -> false
let is_reservation = function Rsv _ -> true | Msg _ -> false

let overlaps a b =
  String.equal (var a) (var b)
  && from_ a <> to_ a
  && from_ b <> to_ b
  && from_ a < to_ b
  && from_ b < to_ a

let compare (a : t) (b : t) =
  let c = String.compare (var a) (var b) in
  if c <> 0 then c
  else
    let c = Int.compare (to_ a) (to_ b) in
    if c <> 0 then c
    else
      let c = Int.compare (from_ a) (from_ b) in
      if c <> 0 then c
      else
        (* Views contain maps; compare canonically, never with
           polymorphic compare. *)
        match (a, b) with
        | Msg ma, Msg mb ->
            let c = Int.compare ma.value mb.value in
            if c <> 0 then c else View.compare ma.view mb.view
        | Rsv _, Rsv _ -> 0
        | Msg _, Rsv _ -> -1
        | Rsv _, Msg _ -> 1

(* [compare = 0], the interval ends first (the cheapest
   discriminators), the location name last but one. *)
let equal a b =
  a == b
  ||
  match (a, b) with
  | Msg ma, Msg mb ->
      ma.to_ = mb.to_ && ma.from_ = mb.from_ && ma.value = mb.value
      && String.equal ma.var mb.var
      && View.equal ma.view mb.view
  | Rsv ra, Rsv rb ->
      ra.to_ = rb.to_ && ra.from_ = rb.from_ && String.equal ra.var rb.var
  | Msg _, Rsv _ | Rsv _, Msg _ -> false

let hash m =
  let ( ++ ) = Time.hash_combine in
  match m with
  | Msg m ->
      Hashtbl.hash m.var ++ m.value ++ Time.mix m.from_ ++ Time.mix m.to_
      ++ View.hash m.view
  | Rsv r -> 0x5e5e ++ Hashtbl.hash r.var ++ Time.mix r.from_ ++ Time.mix r.to_

let renumber f mg =
  match mg with
  | Msg m ->
      let from_ = f m.var m.from_ and to_ = f m.var m.to_ in
      let view = View.renumber f m.view in
      if from_ = m.from_ && to_ = m.to_ && view == m.view then mg
      else Msg { m with from_; to_; view }
  | Rsv r ->
      let from_ = f r.var r.from_ and to_ = f r.var r.to_ in
      if from_ = r.from_ && to_ = r.to_ then mg else Rsv { r with from_; to_ }

let pp ppf = function
  | Msg m ->
      Format.fprintf ppf "<%s:%d@(%a,%a] %a>" m.var m.value Time.pp m.from_
        Time.pp m.to_ View.pp m.view
  | Rsv r ->
      Format.fprintf ppf "<%s:(%a,%a]>" r.var Time.pp r.from_ Time.pp r.to_
