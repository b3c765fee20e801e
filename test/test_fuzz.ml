(* The fuzzing harness tested on itself: generator determinism, greedy
   shrinking, artifact round-trips, and — the acceptance demonstration — a
   deliberately injected engine bug (disabling the probe memo's
   negative-prefix recheck) being caught by the [interact-batch] oracle and
   minimized to a counterexample of at most five document nodes. *)

let find name =
  match Fuzz.Oracle.find name with
  | Some o -> o
  | None -> Alcotest.failf "oracle %s not registered" name

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_gen_deterministic () =
  let once () =
    let g = Core.Prng.create 12345 in
    let doc = Fuzz.Gen.xml_tree g ~size:12 in
    let q = Fuzz.Gen.twig g ~size:6 in
    Xmltree.Print.to_xml doc ^ "\n" ^ Twig.Query.to_string q
  in
  Alcotest.(check string) "same seed, same values" (once ()) (once ())

let test_gen_tree_size () =
  let g = Core.Prng.create 5 in
  for size = 1 to 30 do
    let t = Fuzz.Gen.tree g ~size in
    Alcotest.(check int) "exact node count" size (Xmltree.Tree.size t)
  done

let test_gen_twig_wellformed () =
  let g = Core.Prng.create 11 in
  for size = 1 to 20 do
    let q = Fuzz.Gen.anchored_twig g ~size in
    Alcotest.(check bool)
      "anchored generator stays in the fragment" true
      (Twig.Query.is_anchored q);
    (* and it survives its own concrete syntax *)
    match Twig.Parse.query_result (Twig.Query.to_string q) with
    | Ok q' ->
        Alcotest.(check bool) "parses back" true (Twig.Query.equal q q')
    | Error e -> Alcotest.failf "unparseable: %s" (Core.Error.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* Shrinking                                                           *)
(* ------------------------------------------------------------------ *)

let test_shrink_string () =
  let still_failing s = String.contains s 'x' in
  let shrunk, steps =
    Fuzz.Shrink.minimize ~candidates:Fuzz.Shrink.string_ ~still_failing
      "aaaaxbbbbccccdddd"
  in
  Alcotest.(check string) "minimal witness" "x" shrunk;
  Alcotest.(check bool) "took steps" true (steps > 0)

let test_shrink_tree_preserves_failure () =
  (* Failure: the document contains a [b] node.  The minimum is the
     one-node tree [b]. *)
  let still_failing t =
    Xmltree.Tree.all_paths t
    |> List.exists (fun p ->
           match Xmltree.Tree.node_at t p with
           | Some n -> n.Xmltree.Tree.label = "b"
           | None -> false)
  in
  let g = Core.Prng.create 3 in
  let rec doc_with_b () =
    let t = Fuzz.Gen.tree g ~size:20 in
    if still_failing t then t else doc_with_b ()
  in
  let shrunk, _ =
    Fuzz.Shrink.minimize ~candidates:Fuzz.Shrink.tree ~still_failing
      (doc_with_b ())
  in
  Alcotest.(check int) "single node" 1 (Xmltree.Tree.size shrunk);
  Alcotest.(check bool) "still fails" true (still_failing shrunk)

(* ------------------------------------------------------------------ *)
(* Artifacts                                                           *)
(* ------------------------------------------------------------------ *)

let test_artifact_roundtrip () =
  let a =
    {
      Fuzz.Artifact.oracle = "eval-cache";
      seed = 123456789;
      size = 7;
      steps = 3;
      shrunk_size = 2;
      reason = "it: broke";
      input = "doc: a(b)\ngoal: //b\n";
    }
  in
  match Fuzz.Artifact.of_string (Fuzz.Artifact.to_string a) with
  | Ok a' -> Alcotest.(check bool) "fields survive" true (a = a')
  | Error e -> Alcotest.failf "artifact did not parse back: %s" e

let test_oracle_registry () =
  let names = List.map Fuzz.Oracle.name Fuzz.Oracle.all in
  Alcotest.(check int)
    "names unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool)
    "find hits" true
    (Option.is_some (Fuzz.Oracle.find "roundtrip-xml"));
  Alcotest.(check bool)
    "find misses" true
    (Option.is_none (Fuzz.Oracle.find "no-such-oracle"))

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let test_runner_green () =
  let report =
    Fuzz.Runner.run
      ~oracles:[ find "roundtrip-twig"; find "roundtrip-csv" ]
      ~iters:100 ~seed:7 ()
  in
  Alcotest.(check int) "no counterexamples" 0
    (List.length report.counterexamples);
  List.iter
    (fun (s : Fuzz.Runner.stats) ->
      Alcotest.(check int) (s.oracle ^ " ran all cases") 100 s.runs)
    report.stats

let test_runner_budget () =
  let budget = Core.Budget.create ~fuel:5 () in
  let report =
    Fuzz.Runner.run ~oracles:[ find "roundtrip-twig" ] ~budget ~iters:100
      ~seed:7 ()
  in
  Alcotest.(check bool) "interrupted" true report.interrupted;
  Alcotest.(check bool)
    "ran at most the budget" true
    ((List.hd report.stats).runs <= 5)

(* Parallel dispatch must not perturb the per-oracle PRNG streams: the
   report (stats in oracle order, counterexamples, interruption flag) is
   identical whatever [jobs] is. *)
let test_runner_jobs_deterministic () =
  let oracles =
    [ find "roundtrip-twig"; find "roundtrip-csv"; find "xmlstore-eval" ]
  in
  let run jobs = Fuzz.Runner.run ~oracles ~jobs ~iters:25 ~seed:11 () in
  let r1 = run 1 in
  List.iter
    (fun jobs ->
      let r = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "report at jobs=%d equals jobs=1" jobs)
        true (r = r1))
    [ 2; 4 ]

(* Warnings are for sessions that ran dry, not for budgets an oracle trips
   on purpose: [rpq-naive] exhausts a small fuel budget in most cases to
   check partial answers, and must do so without a line on stderr, while
   an interactive session cut short by its budget still warns once. *)
let warn_lines f =
  let module Log = Core.Telemetry.Log in
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  let saved = Log.level () in
  Log.set_formatter ppf;
  Log.set_level (Some Core.Telemetry.Warn);
  let result =
    Fun.protect
      ~finally:(fun () ->
        Log.set_level saved;
        Log.set_formatter Format.err_formatter)
      f
  in
  Format.pp_print_flush ppf ();
  let lines = String.split_on_char '\n' (Buffer.contents buf) in
  let is_warn l =
    let n = String.length l and pat = " warn ]" in
    let k = String.length pat in
    let rec at i = i + k <= n && (String.sub l i k = pat || at (i + 1)) in
    at 0
  in
  (result, List.length (List.filter is_warn lines))

let test_expected_trips_are_quiet () =
  let report, warns =
    warn_lines (fun () ->
        Fuzz.Runner.run ~oracles:[ find "rpq-naive" ] ~iters:200 ~seed:42 ())
  in
  Alcotest.(check int) "rpq-naive green" 0 (List.length report.counterexamples);
  Alcotest.(check int) "no warn line from deliberate trips" 0 warns;
  let doc = Fuzz.Gen.tree (Core.Prng.create 1) ~size:6 in
  let outcome, warns =
    warn_lines (fun () ->
        Twiglearn.Interactive.Loop.run
          ~budget:(Core.Budget.create ~fuel:1 ())
          ~oracle:(fun _ -> true)
          ~items:(Twiglearn.Interactive.items_of_doc doc)
          ())
  in
  Alcotest.(check bool) "session degraded" true outcome.degraded;
  Alcotest.(check int) "exhausted session warns once" 1 warns

(* ------------------------------------------------------------------ *)
(* Acceptance demo: an injected engine bug is caught and minimized      *)
(* ------------------------------------------------------------------ *)

(* Disable the probe memo's recheck of negatives recorded since an entry
   was cached (the staleness protection the memo's survived-count exists
   for).  The [interact-batch] differential oracle — batch-refold sessions
   versus incremental sessions must ask byte-identical question sequences —
   catches the fault within a few dozen cases, and the counterexample
   minimizes to a document of at most five nodes. *)
let test_injected_probe_bug_caught () =
  Twiglearn.Interactive.set_probe_recheck false;
  let report =
    Fun.protect
      ~finally:(fun () -> Twiglearn.Interactive.set_probe_recheck true)
      (fun () ->
        Fuzz.Runner.run
          ~oracles:[ find "interact-batch" ]
          ~iters:100 ~seed:7 ())
  in
  match report.counterexamples with
  | [ { artifact; _ } ] ->
      Alcotest.(check bool)
        "caught before exhausting the case budget" true
        ((List.hd report.stats).runs < 100);
      Alcotest.(check bool)
        (Printf.sprintf "minimized to <= 5 doc nodes (got %d)"
           artifact.shrunk_size)
        true
        (artifact.shrunk_size <= 5);
      (* With the fault still injected the artifact reproduces the bug ... *)
      Twiglearn.Interactive.set_probe_recheck false;
      (Fun.protect
         ~finally:(fun () -> Twiglearn.Interactive.set_probe_recheck true)
       @@ fun () ->
       match Fuzz.Runner.replay artifact with
       | `Failed _ -> ()
       | `Passed -> Alcotest.fail "artifact does not reproduce the fault"
       | `Unknown_oracle o -> Alcotest.failf "unknown oracle %s" o);
      (* ... and with the engine repaired it replays green. *)
      (match Fuzz.Runner.replay artifact with
      | `Passed -> ()
      | `Failed r -> Alcotest.failf "still failing after repair: %s" r
      | `Unknown_oracle o -> Alcotest.failf "unknown oracle %s" o)
  | [] -> Alcotest.fail "injected probe-recheck bug was not caught"
  | _ -> Alcotest.fail "expected exactly one counterexample"

(* A healthy engine passes the same oracle on the same seeds — the demo
   above fails because of the injected fault, not the harness. *)
let test_probe_oracle_green_when_healthy () =
  let report =
    Fuzz.Runner.run ~oracles:[ find "interact-batch" ] ~iters:40 ~seed:7 ()
  in
  Alcotest.(check int) "no counterexamples" 0
    (List.length report.counterexamples)

let () =
  Alcotest.run "fuzz"
    [
      ( "generators",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "tree size" `Quick test_gen_tree_size;
          Alcotest.test_case "anchored twig" `Quick test_gen_twig_wellformed;
        ] );
      ( "shrinking",
        [
          Alcotest.test_case "string minimal witness" `Quick
            test_shrink_string;
          Alcotest.test_case "tree minimal witness" `Quick
            test_shrink_tree_preserves_failure;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "roundtrip" `Quick test_artifact_roundtrip;
          Alcotest.test_case "oracle registry" `Quick test_oracle_registry;
        ] );
      ( "runner",
        [
          Alcotest.test_case "green run" `Quick test_runner_green;
          Alcotest.test_case "budget interrupt" `Quick test_runner_budget;
          Alcotest.test_case "jobs determinism" `Quick
            test_runner_jobs_deterministic;
          Alcotest.test_case "expected trips are quiet" `Quick
            test_expected_trips_are_quiet;
        ] );
      ( "acceptance",
        [
          Alcotest.test_case "injected probe bug caught and minimized" `Quick
            test_injected_probe_bug_caught;
          Alcotest.test_case "oracle green when healthy" `Quick
            test_probe_oracle_green_when_healthy;
        ] );
    ]
