(* Tests for join-query learning: signatures, version spaces, semijoin
   search, interactive sessions. *)

let qcheck = QCheck_alcotest.to_alcotest

let tuple vs = Array.of_list (List.map (fun i -> Relational.Value.Int i) vs)

let sp = Joinlearn.Signature.space ~left_arity:3 ~right_arity:2

(* ------------------------------------------------------------------ *)
(* Signatures                                                          *)
(* ------------------------------------------------------------------ *)

let test_space_dimension () =
  Alcotest.(check int) "3x2 pairs" 6 (Joinlearn.Signature.dimension sp);
  Alcotest.(check int) "full popcount" 6
    (Joinlearn.Signature.popcount (Joinlearn.Signature.full sp))

let test_space_too_large () =
  match Joinlearn.Signature.space ~left_arity:8 ~right_arity:8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "64 pairs exceed the word size"

let test_predicate_roundtrip () =
  let p = [ (0, 1); (2, 0) ] in
  let m = Joinlearn.Signature.of_predicate sp p in
  Alcotest.(check (list (pair int int))) "roundtrip" p
    (Joinlearn.Signature.to_predicate sp m)

let test_signature_agreement () =
  let rt = tuple [ 1; 2; 3 ] and st = tuple [ 2; 3 ] in
  let m = Joinlearn.Signature.signature sp rt st in
  (* Agreements: a1=b0 (2) and a2=b1 (3). *)
  Alcotest.(check (list (pair int int))) "agreeing pairs"
    [ (1, 0); (2, 1) ]
    (Joinlearn.Signature.to_predicate sp m)

let test_subset () =
  let open Joinlearn.Signature in
  Alcotest.(check bool) "sub" true (subset 0b0010 0b0110);
  Alcotest.(check bool) "not sub" false (subset 0b1010 0b0110);
  Alcotest.(check bool) "empty sub anything" true (subset 0 0b1);
  Alcotest.(check int) "inter" 0b0010 (inter 0b1010 0b0110)

(* ------------------------------------------------------------------ *)
(* Join learning                                                       *)
(* ------------------------------------------------------------------ *)

let test_learn_most_specific () =
  let pos1 = Joinlearn.Signature.signature sp (tuple [ 1; 2; 3 ]) (tuple [ 2; 3 ]) in
  let pos2 = Joinlearn.Signature.signature sp (tuple [ 5; 7; 9 ]) (tuple [ 7; 9 ]) in
  let m = Joinlearn.Join.most_specific sp [ pos1; pos2 ] in
  Alcotest.(check (list (pair int int))) "intersection"
    [ (1, 0); (2, 1) ]
    (Joinlearn.Signature.to_predicate sp m)

let test_learn_consistent () =
  let ex pair label = Joinlearn.Join.example sp pair label in
  let examples =
    [
      ex (tuple [ 1; 2; 3 ], tuple [ 2; 3 ]) true;
      ex (tuple [ 1; 2; 3 ], tuple [ 9; 9 ]) false;
    ]
  in
  match Joinlearn.Join.learn sp examples with
  | Some m ->
      Alcotest.(check bool) "predicate rejects the negative" false
        (Joinlearn.Signature.subset m
           (Joinlearn.Signature.signature sp (tuple [ 1; 2; 3 ]) (tuple [ 9; 9 ])))
  | None -> Alcotest.fail "consistent sample"

let test_learn_inconsistent () =
  let ex pair label = Joinlearn.Join.example sp pair label in
  (* The same pair labeled both ways. *)
  let examples =
    [
      ex (tuple [ 1; 2; 3 ], tuple [ 2; 3 ]) true;
      ex (tuple [ 1; 2; 3 ], tuple [ 2; 3 ]) false;
    ]
  in
  Alcotest.(check bool) "inconsistent" true
    (Joinlearn.Join.learn sp examples = None)

let test_version_space_determined () =
  let open Joinlearn.Join.Version_space in
  let vs = init sp in
  (* Record a positive with signature {(0,0),(1,1)}. *)
  let s1 = Joinlearn.Signature.of_predicate sp [ (0, 0); (1, 1) ] in
  let vs = record vs s1 true in
  (* A pair agreeing on a superset of the specific set is forced positive. *)
  Alcotest.(check (option bool)) "superset forced positive" (Some true)
    (determined vs (Joinlearn.Signature.of_predicate sp [ (0, 0); (1, 1); (2, 0) ]));
  (* A disjoint pair is undetermined while no negative exists. *)
  Alcotest.(check (option bool)) "open" None
    (determined vs (Joinlearn.Signature.of_predicate sp [ (2, 1) ]));
  (* After a negative covering that candidate ceiling, it is forced. *)
  let vs = record vs (Joinlearn.Signature.of_predicate sp [ (2, 1); (0, 0) ]) false in
  Alcotest.(check (option bool)) "forced negative" (Some false)
    (determined vs (Joinlearn.Signature.of_predicate sp [ (2, 1) ]))

(* ------------------------------------------------------------------ *)
(* Semijoin learning                                                   *)
(* ------------------------------------------------------------------ *)

let semijoin_ctx rows =
  let right =
    Relational.Relation.make ~name:"S" ~attrs:[ "b0"; "b1" ] rows
  in
  let left = Relational.Relation.make ~name:"R" ~attrs:[ "a0"; "a1"; "a2" ] [] in
  Joinlearn.Semijoin.make left right

let test_semijoin_selects () =
  let ctx = semijoin_ctx [ tuple [ 1; 2 ]; tuple [ 7; 7 ] ] in
  let theta =
    Joinlearn.Signature.of_predicate (Joinlearn.Semijoin.space ctx) [ (0, 0) ]
  in
  Alcotest.(check bool) "witness exists" true
    (Joinlearn.Semijoin.selects ctx theta (tuple [ 1; 9; 9 ]));
  Alcotest.(check bool) "no witness" false
    (Joinlearn.Semijoin.selects ctx theta (tuple [ 3; 9; 9 ]))

let test_semijoin_exact_consistent () =
  let ctx = semijoin_ctx [ tuple [ 1; 2 ]; tuple [ 5; 6 ] ] in
  let labeled =
    [
      (tuple [ 1; 2; 0 ], true);   (* matches right (1,2) on a0=b0, a1=b1 *)
      (tuple [ 5; 6; 0 ], true);   (* matches right (5,6) likewise *)
      (tuple [ 9; 9; 9 ], false);
    ]
  in
  let out = Joinlearn.Semijoin.consistent_exact ctx labeled in
  (match out.theta with
  | Some theta ->
      Alcotest.(check bool) "selects positives" true
        (Joinlearn.Semijoin.selects ctx theta (tuple [ 1; 2; 0 ])
        && Joinlearn.Semijoin.selects ctx theta (tuple [ 5; 6; 0 ]));
      Alcotest.(check bool) "rejects negative" false
        (Joinlearn.Semijoin.selects ctx theta (tuple [ 9; 9; 9 ]))
  | None -> Alcotest.fail "a consistent semijoin exists");
  Alcotest.(check bool) "complete" true out.complete

let test_semijoin_exact_inconsistent () =
  let ctx = semijoin_ctx [ tuple [ 1; 2 ] ] in
  (* The same tuple as positive and negative. *)
  let labeled = [ (tuple [ 1; 2; 3 ], true); (tuple [ 1; 2; 3 ], false) ] in
  let out = Joinlearn.Semijoin.consistent_exact ctx labeled in
  Alcotest.(check bool) "no theta" true (out.theta = None)

let test_semijoin_greedy_can_fail_where_exact_succeeds () =
  (* Right tuples (1,9) and (2,2): for positive (2,2,_) the greedy picks the
     maximal-agreement witness; craft a sample where the greedy's choice on
     the first positive clashes with a negative, while a smaller theta is
     consistent. *)
  let ctx = semijoin_ctx [ tuple [ 1; 1 ]; tuple [ 2; 9 ] ] in
  let labeled =
    [
      (tuple [ 1; 1; 0 ], true);  (* greedy: theta = {a0b0,a1b1} via (1,1) *)
      (tuple [ 2; 1; 0 ], true);  (* forces dropping a1=b1 or switching *)
      (tuple [ 9; 1; 0 ], false);
    ]
  in
  let exact = Joinlearn.Semijoin.consistent_exact ctx labeled in
  Alcotest.(check bool) "exact finds a predicate" true (exact.theta <> None);
  match exact.theta with
  | Some theta ->
      Alcotest.(check bool) "exact is really consistent" true
        (List.for_all
           (fun (t, l) -> Joinlearn.Semijoin.selects ctx theta t = l)
           labeled)
  | None -> ()

let test_semijoin_node_limit () =
  let rng = Core.Prng.create 17 in
  let inst =
    Relational.Generator.pair_instance ~rng ~left_rows:12 ~right_rows:12 ()
  in
  let ctx = Joinlearn.Semijoin.make inst.left inst.right in
  let labeled =
    List.map (fun t -> (t, true)) (Relational.Relation.tuples inst.left)
  in
  let out = Joinlearn.Semijoin.consistent_exact ~node_limit:5 ctx labeled in
  Alcotest.(check bool) "limit reported" true
    (out.complete || out.explored <= 5)

let prop_exact_result_is_consistent =
  QCheck.Test.make ~name:"semijoin exact output is consistent" ~count:50
    QCheck.small_int
    (fun seed ->
      let rng = Core.Prng.create seed in
      let inst =
        Relational.Generator.pair_instance ~rng ~left_arity:3 ~right_arity:3
          ~left_rows:8 ~right_rows:6 ~domain:4 ()
      in
      let ctx = Joinlearn.Semijoin.make inst.left inst.right in
      let goal =
        Joinlearn.Signature.of_predicate (Joinlearn.Semijoin.space ctx)
          inst.planted
      in
      let labeled =
        List.map
          (fun t -> (t, Joinlearn.Semijoin.selects ctx goal t))
          (Relational.Relation.tuples inst.left)
      in
      let out = Joinlearn.Semijoin.consistent_exact ctx labeled in
      match out.theta with
      | None -> not out.complete
      | Some theta ->
          List.for_all
            (fun (t, l) -> Joinlearn.Semijoin.selects ctx theta t = l)
            labeled)

let test_semijoin_interactive () =
  let rng = Core.Prng.create 21 in
  let inst =
    Relational.Generator.pair_instance ~rng ~left_arity:3 ~right_arity:3
      ~left_rows:10 ~right_rows:8 ~domain:4 ()
  in
  let outcome =
    Joinlearn.Semijoin_interactive.run_with_goal ~rng ~left:inst.left
      ~right:inst.right ~goal:inst.planted ()
  in
  Alcotest.(check int) "pool covered"
    (Relational.Relation.cardinal inst.left)
    (outcome.questions + outcome.pruned);
  match outcome.query with
  | None -> Alcotest.fail "a consistent semijoin exists (the goal)"
  | Some learned ->
      let ctx = Joinlearn.Semijoin.make inst.left inst.right in
      let goal =
        Joinlearn.Signature.of_predicate (Joinlearn.Semijoin.space ctx)
          inst.planted
      in
      (* The learned predicate classifies every left tuple like the goal. *)
      List.iter
        (fun t ->
          Alcotest.(check bool) "same selection"
            (Joinlearn.Semijoin.selects ctx goal t)
            (Joinlearn.Semijoin.selects ctx learned t))
        (Relational.Relation.tuples inst.left)

let test_semijoin_interactive_requires_context () =
  match Joinlearn.Semijoin_interactive.Session.init [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bare init must be rejected"

(* ------------------------------------------------------------------ *)
(* Robust (agreement-maximizing) learning                              *)
(* ------------------------------------------------------------------ *)

let test_robust_consistent_matches_exact () =
  let ex pair label = Joinlearn.Join.example sp pair label in
  let examples =
    [
      ex (tuple [ 1; 2; 3 ], tuple [ 2; 3 ]) true;
      ex (tuple [ 1; 2; 3 ], tuple [ 9; 9 ]) false;
    ]
  in
  let out = Joinlearn.Robust.learn sp examples in
  Alcotest.(check int) "no training errors" 0 out.training_errors;
  Alcotest.(check int) "nothing ignored" 0 out.ignored;
  match Joinlearn.Join.learn sp examples with
  | Some exact -> Alcotest.(check bool) "same predicate" true (exact = out.theta)
  | None -> Alcotest.fail "consistent sample"

let test_robust_handles_noise () =
  (* A mislabeled positive with an empty signature would wreck the
     intersection; the robust learner ignores it. *)
  let clean_sig = Joinlearn.Signature.of_predicate sp [ (0, 0); (1, 1) ] in
  let noise_sig = 0 in
  let examples =
    [
      Core.Example.positive clean_sig;
      Core.Example.positive clean_sig;
      Core.Example.positive noise_sig;
      (* negatives that the clean predicate rejects *)
      Core.Example.negative (Joinlearn.Signature.of_predicate sp [ (0, 0) ]);
      Core.Example.negative (Joinlearn.Signature.of_predicate sp [ (2, 1) ]);
    ]
  in
  Alcotest.(check bool) "exact learner fails" true
    (Joinlearn.Join.learn sp examples = None);
  let out = Joinlearn.Robust.learn sp examples in
  Alcotest.(check int) "one positive ignored" 1 out.ignored;
  Alcotest.(check int) "only the noise misclassified" 1 out.training_errors;
  Alcotest.(check bool) "clean positives selected" true
    (Joinlearn.Signature.subset out.theta clean_sig)

(* ------------------------------------------------------------------ *)
(* Chains                                                              *)
(* ------------------------------------------------------------------ *)

let chain_relations =
  [
    Relational.Relation.make ~name:"R1" ~attrs:[ "a"; "b" ]
      [ tuple [ 1; 2 ]; tuple [ 3; 4 ] ];
    Relational.Relation.make ~name:"R2" ~attrs:[ "c"; "d" ]
      [ tuple [ 2; 5 ]; tuple [ 4; 6 ] ];
    Relational.Relation.make ~name:"R3" ~attrs:[ "e" ]
      [ tuple [ 5 ]; tuple [ 6 ]; tuple [ 9 ] ];
  ]

let chain_goal = [ [ (1, 0) ]; [ (1, 0) ] ]
(* R1.b = R2.c and R2.d = R3.e *)

let test_chain_signature_selects () =
  let c = Joinlearn.Chain.make chain_relations in
  Alcotest.(check int) "three relations" 3 (Joinlearn.Chain.length c);
  let goal = Joinlearn.Chain.of_predicates c chain_goal in
  let good = Joinlearn.Chain.signature c [ tuple [ 1; 2 ]; tuple [ 2; 5 ]; tuple [ 5 ] ] in
  let bad = Joinlearn.Chain.signature c [ tuple [ 1; 2 ]; tuple [ 4; 6 ]; tuple [ 6 ] ] in
  Alcotest.(check bool) "chain match" true (Joinlearn.Chain.selects goal good);
  Alcotest.(check bool) "broken first link" false (Joinlearn.Chain.selects goal bad);
  Alcotest.(check (list (list (pair int int)))) "predicate roundtrip"
    chain_goal
    (Joinlearn.Chain.to_predicates c goal)

let test_chain_learn () =
  let c = Joinlearn.Chain.make chain_relations in
  let goal = Joinlearn.Chain.of_predicates c chain_goal in
  let labeled =
    List.map
      (fun (it : Joinlearn.Chain.item) ->
        (it.mask, Joinlearn.Chain.selects goal it.mask))
      (Joinlearn.Chain.items_of c chain_relations)
  in
  match Joinlearn.Chain.learn c labeled with
  | None -> Alcotest.fail "consistent by construction"
  | Some learned ->
      List.iter
        (fun (mask, label) ->
          Alcotest.(check bool) "same selection" label
            (Joinlearn.Chain.selects learned mask))
        labeled

let test_chain_interactive () =
  let outcome =
    Joinlearn.Chain.run_with_goal ~rng:(Core.Prng.create 12)
      ~relations:chain_relations ~goal:chain_goal ()
  in
  let pool = 2 * 2 * 3 in
  Alcotest.(check int) "pool covered" pool (outcome.questions + outcome.pruned);
  match outcome.query with
  | None -> Alcotest.fail "candidate expected"
  | Some learned ->
      let c = Joinlearn.Chain.make chain_relations in
      let goal = Joinlearn.Chain.of_predicates c chain_goal in
      List.iter
        (fun (it : Joinlearn.Chain.item) ->
          Alcotest.(check bool) "selection recovered"
            (Joinlearn.Chain.selects goal it.mask)
            (Joinlearn.Chain.selects learned it.mask))
        (Joinlearn.Chain.items_of c chain_relations)

let test_chain_rejects_short () =
  match Joinlearn.Chain.make [ List.hd chain_relations ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "one relation is not a chain"

(* ------------------------------------------------------------------ *)
(* Interactive                                                         *)
(* ------------------------------------------------------------------ *)

let run_session ~seed ~strategy =
  let rng = Core.Prng.create seed in
  let inst = Relational.Generator.pair_instance ~rng () in
  let outcome =
    Joinlearn.Interactive.run_with_goal ~rng ~strategy ~left:inst.left
      ~right:inst.right ~goal:inst.planted ()
  in
  (inst, outcome)

let check_recovers_goal (inst : Relational.Generator.pair_instance) outcome =
  let space =
    Joinlearn.Signature.space
      ~left_arity:(Relational.Relation.arity inst.left)
      ~right_arity:(Relational.Relation.arity inst.right)
  in
  let goal = Joinlearn.Signature.of_predicate space inst.planted in
  match (outcome : Joinlearn.Interactive.Loop.outcome).query with
  | None -> Alcotest.fail "session must end with a candidate"
  | Some learned ->
      (* The learned predicate selects exactly the pairs the goal selects. *)
      let items = Joinlearn.Interactive.items_of space inst.left inst.right in
      List.iter
        (fun (it : Joinlearn.Interactive.item) ->
          Alcotest.(check bool) "same selection"
            (Joinlearn.Signature.subset goal it.mask)
            (Joinlearn.Signature.subset learned it.mask))
        items

let test_interactive_first_strategy () =
  let inst, outcome = run_session ~seed:3 ~strategy:Core.Interact.first_strategy in
  check_recovers_goal inst outcome

let test_interactive_lattice_strategy () =
  let inst, outcome =
    run_session ~seed:4 ~strategy:Joinlearn.Interactive.lattice_strategy
  in
  check_recovers_goal inst outcome

let test_interactive_split_strategy () =
  let inst, outcome =
    run_session ~seed:5 ~strategy:(Joinlearn.Interactive.split_strategy ())
  in
  check_recovers_goal inst outcome

let test_interactive_prunes_bulk () =
  let _inst, outcome = run_session ~seed:6 ~strategy:Core.Interact.first_strategy in
  Alcotest.(check bool) "orders of magnitude pruned" true
    (outcome.pruned > 10 * outcome.questions)

let test_crowd_budget () =
  let rng = Core.Prng.create 9 in
  let inst = Relational.Generator.pair_instance ~rng () in
  let report =
    Joinlearn.Crowd.run ~rng ~price_per_hit:0.1 ~budget:1.0 ~left:inst.left
      ~right:inst.right ~goal:inst.planted ()
  in
  Alcotest.(check bool) "at most 10 questions" true
    (report.outcome.questions <= 10);
  Alcotest.(check bool) "spend within budget" true (report.spent <= 1.0 +. 1e-9)

(* The production pool builder against the list-based reference at the
   size learn-join runs (256x256 rows), as the CLI seeds it. *)
let test_pool_matches_reference_cli_size () =
  List.iter
    (fun seed ->
      let rng = Core.Prng.create seed in
      let inst =
        Relational.Generator.pair_instance ~rng ~left_rows:256 ~right_rows:256 ()
      in
      let space =
        Joinlearn.Signature.space
          ~left_arity:(Relational.Relation.arity inst.left)
          ~right_arity:(Relational.Relation.arity inst.right)
      in
      match Fuzz.Reference.check_join_pool space inst.left inst.right with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: %s" seed e)
    [ 0; 1; 2 ]

let test_signature_mixed_values () =
  let sp = Joinlearn.Signature.space ~left_arity:3 ~right_arity:2 in
  let v = Relational.Value.of_string in
  let lt = [| v "1"; v "x"; v "1" |] and rt = [| v "1"; v "1x" |] in
  (* a0=b0 and a2=b0 agree; the Str "x" never equals an Int. *)
  Alcotest.(check int) "mask" 0b010001 (Joinlearn.Signature.signature sp lt rt);
  let rel name tuples =
    Relational.Relation.make ~name ~attrs:[ name ^ "0"; name ^ "1"; name ^ "2" ]
      tuples
  in
  let left = rel "l" [ lt; [| v "x"; v "1"; v "" |]; lt ] in
  let right =
    Relational.Relation.make ~name:"r" ~attrs:[ "r0"; "r1" ]
      [ rt; [| v "x"; v "" |] ]
  in
  match Fuzz.Reference.check_join_pool sp left right with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "joinlearn"
    [
      ( "signature",
        [
          Alcotest.test_case "dimension" `Quick test_space_dimension;
          Alcotest.test_case "too large" `Quick test_space_too_large;
          Alcotest.test_case "predicate roundtrip" `Quick test_predicate_roundtrip;
          Alcotest.test_case "agreement" `Quick test_signature_agreement;
          Alcotest.test_case "subset/inter" `Quick test_subset;
        ] );
      ( "join",
        [
          Alcotest.test_case "most specific" `Quick test_learn_most_specific;
          Alcotest.test_case "consistent" `Quick test_learn_consistent;
          Alcotest.test_case "inconsistent" `Quick test_learn_inconsistent;
          Alcotest.test_case "version space determined" `Quick test_version_space_determined;
        ] );
      ( "semijoin",
        [
          Alcotest.test_case "selects" `Quick test_semijoin_selects;
          Alcotest.test_case "exact consistent" `Quick test_semijoin_exact_consistent;
          Alcotest.test_case "exact inconsistent" `Quick test_semijoin_exact_inconsistent;
          Alcotest.test_case "exact beats greedy" `Quick test_semijoin_greedy_can_fail_where_exact_succeeds;
          Alcotest.test_case "node limit" `Quick test_semijoin_node_limit;
          Alcotest.test_case "interactive" `Slow test_semijoin_interactive;
          Alcotest.test_case "interactive needs context" `Quick test_semijoin_interactive_requires_context;
          qcheck prop_exact_result_is_consistent;
        ] );
      ( "robust",
        [
          Alcotest.test_case "consistent matches exact" `Quick test_robust_consistent_matches_exact;
          Alcotest.test_case "handles noise" `Quick test_robust_handles_noise;
        ] );
      ( "chain",
        [
          Alcotest.test_case "signature and selects" `Quick test_chain_signature_selects;
          Alcotest.test_case "learn" `Quick test_chain_learn;
          Alcotest.test_case "interactive" `Quick test_chain_interactive;
          Alcotest.test_case "rejects single relation" `Quick test_chain_rejects_short;
        ] );
      ( "interactive",
        [
          Alcotest.test_case "first strategy" `Slow test_interactive_first_strategy;
          Alcotest.test_case "lattice strategy" `Slow test_interactive_lattice_strategy;
          Alcotest.test_case "split strategy" `Slow test_interactive_split_strategy;
          Alcotest.test_case "prunes in bulk" `Slow test_interactive_prunes_bulk;
          Alcotest.test_case "crowd budget" `Quick test_crowd_budget;
          Alcotest.test_case "pool matches reference at CLI size" `Quick
            test_pool_matches_reference_cli_size;
          Alcotest.test_case "signature over mixed values" `Quick
            test_signature_mixed_values;
        ] );
    ]
