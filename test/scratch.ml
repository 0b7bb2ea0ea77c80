(* Scratch directories under the temp dir, each removed with
   everything in it when the test executable exits. *)

let rec remove path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> remove (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let counter = Atomic.make 0

let dir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ())
         (Atomic.fetch_and_add counter 1))
  in
  (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  at_exit (fun () -> try remove d with Sys_error _ -> ());
  d
