module Stepper = Explore.Stepper

type t = {
  s_header : Trace.header;
  stepper : Stepper.t;
  records : Trace.record array;
  keyframes : Stepper.state array;
      (* keyframes.(i) = state at position i * kf; slot 0 is the
         initial state, the array always covers the whole trace *)
  kf : int;
  mutable pos : int;
  mutable cur : Stepper.state;
  mutable replayed : int;
}

let header t = t.s_header
let length t = Array.length t.records
let pos t = t.pos
let state t = t.cur
let world t = Stepper.world t.cur
let replayed_steps t = t.replayed

let record_at t n =
  if n < 0 || n >= Array.length t.records then None else Some t.records.(n)

(* Apply record [r] from [st]; check the trace still describes this
   program's deterministic enumeration. *)
let apply_record stepper st (r : Trace.record) =
  match Stepper.apply stepper st r.Trace.kind ~choice:r.Trace.choice with
  | None -> Error "recorded choice not available — trace/config mismatch"
  | Some succ ->
      if
        Stepper.tid succ <> r.Trace.tid
        || not (Option.equal Ps.Event.equal_te succ.event r.Trace.event)
      then Error "recorded event differs from the replayed step"
      else Ok succ.next

let of_records ?(keyframe_every = 16) (h : Trace.header) records =
  if keyframe_every <= 0 then Error "keyframe_every must be positive"
  else
    match Stepper.init h.Trace.program with
    | Error m -> Error m
    | Ok st0 -> (
        let stepper =
          Stepper.create ~config:h.Trace.config ~discipline:h.Trace.discipline
            h.Trace.program
        in
        let records = Array.of_list records in
        let n = Array.length records in
        let kf = keyframe_every in
        let keyframes = Array.make ((n / kf) + 1) st0 in
        (* Validation pass: replay everything once, snapshotting every
           [kf] steps. *)
        let rec validate i st =
          if i mod kf = 0 then keyframes.(i / kf) <- st;
          if i = n then Ok ()
          else
            let r = records.(i) in
            if r.Trace.num <> i then
              Error (Printf.sprintf "record %d numbered %d" i r.Trace.num)
            else
              match apply_record stepper st r with
              | Error m -> Error (Printf.sprintf "step %d: %s" i m)
              | Ok st' -> validate (i + 1) st'
        in
        match validate 0 st0 with
        | Error m -> Error m
        | Ok () ->
            Ok
              {
                s_header = h;
                stepper;
                records;
                keyframes;
                kf;
                pos = 0;
                cur = st0;
                replayed = 0;
              })

let load ?keyframe_every path =
  match Store.read path with
  | Error e -> Error e
  | Ok (h, records) -> (
      match of_records ?keyframe_every h records with
      | Ok t -> Ok t
      | Error m -> Error (Store.Corrupt_record (0, m)))

let jump t n =
  let len = Array.length t.records in
  if n < 0 || n > len then
    Error (Printf.sprintf "step %d out of range 0..%d" n len)
  else begin
    (* Start from whichever is closest at or below [n]: the current
       position (cheap forward stepping) or the nearest keyframe. *)
    let base_kf = n / t.kf * t.kf in
    let start_pos, start_state =
      if t.pos <= n && t.pos >= base_kf then (t.pos, t.cur)
      else (base_kf, t.keyframes.(n / t.kf))
    in
    let rec forward i st =
      if i = n then begin
        t.pos <- n;
        t.cur <- st;
        Ok ()
      end
      else
        match apply_record t.stepper st t.records.(i) with
        | Error m -> Error (Printf.sprintf "step %d: %s" i m)
        | Ok st' ->
            t.replayed <- t.replayed + 1;
            forward (i + 1) st'
    in
    forward start_pos start_state
  end

let step t =
  if t.pos >= Array.length t.records then Ok None
  else
    let r = t.records.(t.pos) in
    match jump t (t.pos + 1) with Error m -> Error m | Ok () -> Ok (Some r)

let back t =
  if t.pos = 0 then Ok None
  else
    let r = t.records.(t.pos - 1) in
    match jump t (t.pos - 1) with Error m -> Error m | Ok () -> Ok (Some r)

let find_from t ~from ~f =
  let n = Array.length t.records in
  let rec go i =
    if i >= n then None else if f t.records.(i) then Some i else go (i + 1)
  in
  go (max 0 from)
