(* The content-addressed on-disk result store (see store.mli).

   Layout: one record per file under [root]/<k0k1>/<key>.sexp, where
   [key] is the hex MD5 of (program digest, subcommand tag, semantic
   config fingerprint) and <k0k1> are its first two characters (a
   256-way fan-out so directories stay small under millions of
   entries).  Any failure to read or decode a record is a cache miss,
   never an error: the store is an accelerator, the engine is the
   truth.  The frame's digest is what makes a damaged record that
   still parses (an exit code or a letter of the output changed) a
   miss rather than a different verdict. *)

type budget = {
  steps : int;
  deadline_ms : int option;
  max_nodes : int option;
  max_live_words : int option;
}

let budget_of_config (c : Explore.Config.t) =
  {
    steps = c.Explore.Config.max_steps;
    deadline_ms = c.Explore.Config.deadline_ms;
    max_nodes = c.Explore.Config.max_nodes;
    max_live_words = c.Explore.Config.max_live_words;
  }

(* [ge_opt a b]: budget component [a] is at least as generous as [b]
   ([None] = unlimited). *)
let ge_opt a b =
  match (a, b) with
  | None, _ -> true
  | Some _, None -> false
  | Some a, Some b -> a >= b

let covers ~cached ~request =
  cached.steps >= request.steps
  && ge_opt cached.deadline_ms request.deadline_ms
  && ge_opt cached.max_nodes request.max_nodes
  && ge_opt cached.max_live_words request.max_live_words

type entry = {
  exit_code : int;
  output : string;
  conclusive : bool;
  budget : budget;
}

type t = {
  root : string;
  (* damaged-record misses: the file was there and readable but was
     not one intact frame, or its payload failed to parse or decode.
     A missing file is an ordinary miss and does not count. *)
  corrupt : int Atomic.t;
}

(* 3: timestamps print as grid ranks; a cached race or verify text
   that printed a fraction reads differently now.
   4: the simulation game no longer reuses a proof whose cycle
   assumption was refuted, and unchanged functions take the identity
   without a game; a cached verify verdict can read differently now.
   5: a record file is a digest-checked frame.
   6: a search that meets a cycle with an output is truncated; a
   cached refines or exhaustive answer for a print loop is wrong. *)
let record_version = 6

(* ------------------------------------------------------------------ *)

let ensure_dir dir =
  try Unix.mkdir dir 0o755 with
  | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | Unix.Unix_error (e, _, _) ->
      failwith
        (Printf.sprintf "store: cannot create %s: %s" dir
           (Unix.error_message e))

let open_ root =
  ensure_dir root;
  { root; corrupt = Atomic.make 0 }

let corrupt_misses t = Atomic.get t.corrupt

let m_corrupt =
  Obs.Metrics.counter ~help:"Store lookups that found a damaged record"
    "psopt_store_corrupt_total"

let lookup_hist =
  Obs.Metrics.histogram ~help:"Store lookup (read + decode) time"
    "psopt_store_lookup_duration_ns"

let program_digest p = Digest.to_hex (Digest.string (Lang.Sexp.program_to_string p))

let key ~program_digest ~kind ~fingerprint =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "psopt-store/%d|%s|%s|%s" record_version program_digest
          kind fingerprint))

let shard_dir t key = Filename.concat t.root (String.sub key 0 2)
let path t key = Filename.concat (shard_dir t key) (key ^ ".sexp")

(* ------------------------------------------------------------------ *)
(* Records *)

open Lang.Sexp

let ( let* ) = Result.bind

let sexp_of_entry key e =
  List
    [
      Atom "psopt-result";
      List [ Atom "version"; Atom (string_of_int record_version) ];
      List [ Atom "key"; Atom key ];
      List [ Atom "exit"; Atom (string_of_int e.exit_code) ];
      List [ Atom "conclusive"; Atom (string_of_bool e.conclusive) ];
      List
        [
          Atom "budget";
          Proto.sexp_of_int e.budget.steps;
          Proto.sexp_of_int_opt e.budget.deadline_ms;
          Proto.sexp_of_int_opt e.budget.max_nodes;
          Proto.sexp_of_int_opt e.budget.max_live_words;
        ];
      List [ Atom "output"; Proto.atom_of_string e.output ];
    ]

let entry_of_sexp key s =
  match s with
  | List
      [
        Atom "psopt-result";
        List [ Atom "version"; Atom v ];
        List [ Atom "key"; Atom k ];
        List [ Atom "exit"; code ];
        List [ Atom "conclusive"; concl ];
        List [ Atom "budget"; steps; deadline; nodes; live ];
        List [ Atom "output"; output ];
      ] ->
      if v <> string_of_int record_version then Error "record version mismatch"
      else if k <> key then Error "record key mismatch"
      else
        let* exit_code = Proto.int_of_sexp code in
        let* conclusive = Proto.bool_of_sexp concl in
        let* steps = Proto.int_of_sexp steps in
        let* deadline_ms = Proto.int_opt_of_sexp deadline in
        let* max_nodes = Proto.int_opt_of_sexp nodes in
        let* max_live_words = Proto.int_opt_of_sexp live in
        let* output = Proto.string_of_atom output in
        Ok
          {
            exit_code;
            output;
            conclusive;
            budget = { steps; deadline_ms; max_nodes; max_live_words };
          }
  | _ -> Error "malformed record"

(* ------------------------------------------------------------------ *)

let decode_record k contents =
  let* payload =
    Result.map_error Frame.damage_to_string (Frame.decode contents)
  in
  Result.bind (parse payload) (entry_of_sexp k)

(* Corruption-tolerant: every failure mode is [None] (a miss). *)
let peek t k =
  Obs.Metrics.time lookup_hist @@ fun () ->
  match In_channel.with_open_bin (path t k) In_channel.input_all with
  | exception _ -> None
  | contents -> (
      match decode_record k contents with
      | Ok e -> Some e
      | Error _ ->
          Atomic.incr t.corrupt;
          Obs.Metrics.incr m_corrupt;
          None)

(* Completeness-aware reuse: a conclusive verdict (verified/refuted)
   holds under every budget, so it is always served.  An inconclusive
   record is served only when the cached run's budget covers the
   request's — a larger-budget request must re-run, because it might
   turn inconclusive into a verdict (docs/SERVICE.md). *)
let find t ~key:k ~budget =
  match peek t k with
  | Some e when e.conclusive || covers ~cached:e.budget ~request:budget ->
      Some e
  | _ -> None

let put t ~key:k e =
  ensure_dir (shard_dir t k);
  Frame.publish (path t k) (Frame.encode (to_string (sexp_of_entry k e)))

let entries t =
  let files dir = try Sys.readdir dir with Sys_error _ -> [||] in
  let count n f = if Filename.check_suffix f ".sexp" then n + 1 else n in
  Array.fold_left
    (fun acc shard ->
      if String.length shard <> 2 then acc
      else Array.fold_left count acc (files (Filename.concat t.root shard)))
    0 (files t.root)

(* Writes are synchronous and atomic, so there is no dirty in-memory
   state to lose; flushing asks the kernel to push the root directory
   entry so a post-shutdown crash cannot unlink freshly renamed
   records on journal replay. *)
let flush t =
  match Unix.openfile t.root [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
