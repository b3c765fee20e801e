(* Readings from /proc: memory high-water mark and CPU time of a process
   ("self" or a pid), taken from outside the program under test. *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Some (In_channel.input_all ic))

(* A "Key:   1234 kB" line of /proc/<pid>/status, in kB. *)
let status_kb pid key =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> None
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = key ->
                 String.sub line (i + 1) (String.length line - i - 1)
                 |> String.split_on_char ' '
                 |> List.filter (fun t -> t <> "" && t <> "kB" && t <> "\t")
                 |> (function
                      | v :: _ -> float_of_string_opt (String.trim v)
                      | [] -> None)
             | _ -> None)

(* utime + stime of /proc/<pid>/stat, in seconds.  Fields are counted
   after the parenthesised command name, which may contain spaces. *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%s/stat" pid) with
  | None -> None
  | Some s -> (
      match String.rindex_opt s ')' with
      | None -> None
      | Some i ->
          let fields =
            String.sub s (i + 2) (String.length s - i - 2)
            |> String.split_on_char ' '
            |> Array.of_list
          in
          (* fields.(0) is field 3 (state); utime is field 14, stime 15. *)
          if Array.length fields < 13 then None
          else
            match
              (float_of_string_opt fields.(11), float_of_string_opt fields.(12))
            with
            | Some u, Some st -> Some ((u +. st) /. 100.)
            | _ -> None)
