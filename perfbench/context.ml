(* The run context stamped on every result: where and how the numbers were
   made.  Parallel figures only mean something against the cores actually
   present, so [nproc] is always recorded. *)

let nproc () = Domain.recommended_domain_count ()

(* The commit when the tree is a git checkout; otherwise a digest of the
   sources the benchmark builds, so two results can still be matched to
   the code they measured.  git is asked only when the working directory
   itself holds [.git], so it never reads a repository above the tree. *)
let git_commit () =
  if not (Sys.file_exists ".git") then "none"
  else
    match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
    | exception Unix.Unix_error _ -> "none"
    | ic -> (
        let line = try Some (input_line ic) with End_of_file -> None in
        match (Unix.close_process_in ic, line) with
        | Unix.WEXITED 0, Some l -> String.trim l
        | _ -> "none")

let rec sources dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.sort compare entries;
      Array.to_list entries
      |> List.concat_map (fun e ->
             let p = Filename.concat dir e in
             if Sys.is_directory p then sources p
             else if
               List.exists (Filename.check_suffix e) [ ".ml"; ".mli"; ".c"; "dune" ]
             then [ p ]
             else [])

let source_digest () =
  List.concat_map sources [ "lib"; "bin"; "perfbench" ]
  |> List.map (fun p -> p ^ ":" ^ Digest.to_hex (Digest.file p))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let json ~workload ~seed ~seconds ~trace ~reported extra =
  Out.obj
    [
      ( "context",
        Out.obj
          ([
             ("workload", Out.str workload);
             ("seed", string_of_int seed);
             ("seconds", Out.num seconds);
             ("trace", if trace then "true" else "false");
             ("nproc", string_of_int (nproc ()));
             ("ocaml", Out.str Sys.ocaml_version);
             ("git_commit", Out.str (git_commit ()));
             ("source_digest", Out.str (source_digest ()));
           ]
          @ List.map (fun (k, v) -> (k, Out.str v)) extra
          @
          match reported with
          | [] -> []
          | ms ->
              [
                ( "reported_metrics",
                  Out.obj
                    (List.map
                       (fun (x : Out.metric) ->
                         ( x.name,
                           Out.obj
                             [ ("value", Out.num x.value); ("unit", Out.str x.unit_) ]
                         ))
                       ms) );
              ]) );
    ]
