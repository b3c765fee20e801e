(* perfbench: the repository's benchmark.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --selftest

   Prints the run context as one JSON line, a human-readable report on
   stderr, and — as the last stdout line — the result object
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end set; with --trace 1 they are the per-layer
   set, from a traced pass that follows an untraced one (the difference is
   reported as tracing overhead).  See perfbench/README.md. *)

let workloads = [ "cli-engines"; "serve-mix"; "serve-evict" ]

(* The metrics a result carries are the ones BENCHMARK.json lists, with
   their units (read from the working directory, the root of the tree).
   End-to-end metrics a run measures but BENCHMARK.json does not list go to
   the run context as "reported_metrics"; a listed per-layer metric that a
   workload does not exercise reads 0.  Without BENCHMARK.json a result
   carries every metric the run measured. *)
let listed key =
  match Proc.read_file "BENCHMARK.json" with
  | None -> None
  | Some text -> (
      match Server.Json.parse text with
      | Ok j -> (
          match Server.Json.mem key j with
          | Some (Server.Json.Arr l) ->
              Some
                (List.filter_map
                   (fun m ->
                     match (Server.Json.get_str "name" m, Server.Json.get_str "unit" m) with
                     | Some n, Some u -> Some (n, u)
                     | _ -> None)
                   l)
          | _ -> None)
      | Error _ -> None)

let find n = List.find_opt (fun (x : Out.metric) -> x.name = n)

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable selftest : bool;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload (cli-engines|serve-mix|serve-evict) --seed N \
     --seconds S --trace 0|1\n       perfbench --selftest";
  exit 2

let parse argv =
  let o =
    { workload = ""; seed = 1; seconds = 20.; trace = false; selftest = false }
  in
  let rec go = function
    | [] -> ()
    | "--selftest" :: rest ->
        o.selftest <- true;
        go rest
    | "--workload" :: w :: rest ->
        o.workload <- w;
        go rest
    | "--seed" :: n :: rest -> (
        match int_of_string_opt n with
        | Some n -> o.seed <- n; go rest
        | None -> usage ())
    | "--seconds" :: n :: rest -> (
        match float_of_string_opt n with
        | Some s when s > 0. -> o.seconds <- s; go rest
        | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest ->
        o.trace <- t = "1";
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  if (not o.selftest) && not (List.mem o.workload workloads) then usage ();
  o

let () =
  let o = parse Sys.argv in
  if o.selftest then exit (if Selftest.run () then 0 else 1);
  (* The generator's own invariants gate every serve run: a broken
     schedule or connection bound would make its numbers meaningless. *)
  let selftest_ok =
    if String.starts_with ~prefix:"serve" o.workload then Selftest.run ()
    else true
  in
  let r =
    match o.workload with
    | "cli-engines" -> Run_cli.run ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
    | w -> Run_serve.run ~workload:w ~seed:o.seed ~seconds:o.seconds ~trace:o.trace
  in
  let wanted = listed (if o.trace then "per_layer" else "end_to_end") in
  let reported =
    match wanted with
    | Some names when not o.trace ->
        List.filter
          (fun (x : Out.metric) -> not (List.mem_assoc x.name names))
          r.Run_result.metrics
    | _ -> []
  in
  let ctx =
    Context.json ~workload:o.workload ~seed:o.seed ~seconds:o.seconds
      ~trace:o.trace ~reported r.Run_result.context
  in
  print_endline ctx;
  let metrics =
    match wanted with
    | None -> r.metrics
    | Some names ->
        List.map
          (fun (n, u) ->
            match find n r.metrics with
            | Some x -> x
            | None when o.trace -> Out.m n u 0.
            | None -> failwith ("missing end-to-end metric " ^ n))
          names
  in
  let finite = List.for_all (fun (x : Out.metric) -> Float.is_finite x.value) metrics in
  if not finite then
    List.iter
      (fun (x : Out.metric) ->
        if not (Float.is_finite x.value) then Out.log "non-finite metric %s" x.name)
      metrics;
  print_endline
    (Out.result
       ~correct:(r.correct && selftest_ok && finite)
       ~attempted:r.attempted ~failed:r.failed
       (List.map
          (fun (x : Out.metric) ->
            if Float.is_finite x.value then x else { x with value = 0. })
          metrics))
