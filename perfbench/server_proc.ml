(* The real `learnq serve` binary as a child process.

   Spawned with an ephemeral port on a fresh state directory under the
   checkout; stdout (where it announces its port) and stderr go to files
   beside the state directory, so a chatty server can never block on a
   full pipe.  [stop] sends SIGTERM — the graceful drain — and waits for the
   exit status; the drain must exit 0. *)

let binary = Filename.concat "_build" (Filename.concat "default" "bin/learnq_cli.exe")
let work_dir = ".perfbench"

type t = {
  pid : int;
  port : int;
  dir : string;  (** state directory *)
  out_path : string;
  err_path : string;
  setup_s : float;  (** spawn to the first healthy /healthz *)
}

let now = Core.Monotonic.now

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let counter = ref 0

let port_of_output s =
  let prefix = "listening on " in
  String.split_on_char '\n' s
  |> List.find_map (fun line ->
         if String.starts_with ~prefix line then
           match String.rindex_opt line ':' with
           | Some i ->
               int_of_string_opt
                 (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
           | None -> None
         else None)

let healthy port =
  match Server.Client.connect ~host:"127.0.0.1" ~port with
  | Error _ -> false
  | Ok c ->
      let ok =
        match Server.Client.request c ~meth:"GET" ~path:"/healthz" () with
        | Ok (200, j) -> Server.Json.get_bool "ok" j = Some true
        | _ -> false
      in
      Server.Client.close c;
      ok

exception Start_failed of string

let start ~tag ~flags =
  incr counter;
  let base =
    Filename.concat work_dir
      (Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) !counter)
  in
  rm_rf base;
  mkdir_p base;
  let dir = Filename.concat base "state" in
  let out_path = Filename.concat base "stdout" in
  let err_path = Filename.concat base "stderr" in
  let out = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let err = Unix.openfile err_path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
            (Array.to_list (Unix.environment ()))))
      (* v=0x400: the runtime prints its GC counters at exit. *)
      [| "OCAMLRUNPARAM=v=0x400" |]
  in
  let args =
    Array.of_list
      ([ binary; "serve"; "--port"; "0"; "--state-dir"; dir ] @ flags)
  in
  let t0 = now () in
  let pid = Unix.create_process_env binary args env devnull out err in
  List.iter Unix.close [ out; err; devnull ];
  let deadline = t0 +. 30. in
  let rec wait_port () =
    if now () > deadline then None
    else
      match port_of_output (Option.value ~default:"" (Proc.read_file out_path)) with
      | Some p -> Some p
      | None ->
          (match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _ -> raise (Start_failed "server exited during start-up"));
          Thread.delay 0.001;
          wait_port ()
  in
  let fail msg =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    raise (Start_failed msg)
  in
  match wait_port () with
  | None -> fail "no port announced"
  | Some port ->
      let rec wait_healthy () =
        if now () > deadline then fail "never healthy"
        else if healthy port then now () -. t0
        else begin
          Thread.delay 0.001;
          wait_healthy ()
        end
      in
      let setup_s = wait_healthy () in
      { pid; port; dir = base; out_path; err_path; setup_s }

(* SIGTERM, then wait up to [grace] seconds for the drain.  Returns the
   exit code (or a negative number if it had to be killed). *)
let stop ?(grace = 30.) t =
  (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] t.pid);
          -1
        end
        else begin
          Thread.delay 0.005;
          wait ()
        end
    | _, Unix.WEXITED c -> c
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) -> -100 - abs s
  in
  wait ()

let cleanup t = rm_rf t.dir

(* One GET on a fresh connection (stats and debug scrapes stay off the
   generator's two connections). *)
let get t path =
  match Server.Client.connect ~host:"127.0.0.1" ~port:t.port with
  | Error e -> Error e
  | Ok c ->
      let r = Server.Client.request c ~meth:"GET" ~path () in
      Server.Client.close c;
      r

let stats t =
  match get t "/stats" with Ok (200, j) -> Some j | _ -> None

(* The runtime's exit report (OCAMLRUNPARAM=v=0x400) from stderr. *)
let gc_exit_stats t =
  let s = Option.value ~default:"" (Proc.read_file t.err_path) in
  let field k =
    String.split_on_char '\n' s
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.trim (String.sub line 0 i) = k ->
               float_of_string_opt
                 (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)
  in
  (field "minor_collections", field "major_collections", field "top_heap_words")

let cpu_s t = Proc.cpu_s (string_of_int t.pid)

let hwm_mb t =
  match Proc.status_kb (string_of_int t.pid) "VmHWM" with
  | Some kb -> kb /. 1024.
  | None -> nan
