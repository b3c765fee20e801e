(* Tests for path-query learning: expressions, word learning, pair learning
   with refinement, interactive path labeling. *)

let qcheck = QCheck_alcotest.to_alcotest

let w s = if s = "" then [] else String.split_on_char '.' s
let dfa s = Automata.Dfa.of_regex (Automata.Regex.parse s)

(* ------------------------------------------------------------------ *)
(* Path expressions                                                    *)
(* ------------------------------------------------------------------ *)

let test_expr_matches () =
  let e = [ Pathlearn.Expr.Sym "h"; Pathlearn.Expr.Star "h"; Pathlearn.Expr.Sym "r" ] in
  Alcotest.(check bool) "hr" true (Pathlearn.Expr.matches e (w "h.r"));
  Alcotest.(check bool) "hhhr" true (Pathlearn.Expr.matches e (w "h.h.h.r"));
  Alcotest.(check bool) "r" false (Pathlearn.Expr.matches e (w "r"));
  Alcotest.(check bool) "h" false (Pathlearn.Expr.matches e (w "h"));
  Alcotest.(check bool) "eps vs eps expr" true (Pathlearn.Expr.matches [] [])

let test_expr_to_regex () =
  let e = [ Pathlearn.Expr.Sym "a"; Pathlearn.Expr.Star "b" ] in
  let d = Pathlearn.Expr.to_dfa e in
  Alcotest.(check bool) "agree" true
    (Automata.Dfa.equal_language d (dfa "a b*"))

let test_generalize_word () =
  Alcotest.(check string) "runs collapse" "h h* r"
    (Pathlearn.Expr.to_string (Pathlearn.Expr.generalize_word (w "h.h.h.r")));
  Alcotest.(check string) "singletons stay" "h r"
    (Pathlearn.Expr.to_string (Pathlearn.Expr.generalize_word (w "h.r")))

let test_star_all () =
  Alcotest.(check string) "coarsest" "h* r*"
    (Pathlearn.Expr.to_string (Pathlearn.Expr.star_all (w "h.h.r")))

let test_expr_learn () =
  (match Pathlearn.Expr.learn ~pos:[ w "h"; w "h.h.h" ] ~neg:[ []; w "r" ] with
  | Some e ->
      Alcotest.(check bool) "h+ shape" true
        (Pathlearn.Expr.matches e (w "h.h")
        && (not (Pathlearn.Expr.matches e []))
        && not (Pathlearn.Expr.matches e (w "r")))
  | None -> Alcotest.fail "learnable");
  Alcotest.(check bool) "no positives" true
    (Pathlearn.Expr.learn ~pos:[] ~neg:[ w "x" ] = None)

let test_expr_learn_smallest () =
  (* With no negatives, the learner prefers the smallest candidate. *)
  match Pathlearn.Expr.learn ~pos:[ w "a.a.a" ] ~neg:[] with
  | Some e ->
      Alcotest.(check bool) "collapsed not literal" true
        (Pathlearn.Expr.size e <= 2)
  | None -> Alcotest.fail "learnable"

let test_expr_of_dfa () =
  (match Pathlearn.Expr.of_dfa (dfa "h h* r") with
  | Some e -> Alcotest.(check string) "chain recovered" "h h* r" (Pathlearn.Expr.to_string e)
  | None -> Alcotest.fail "linear DFA must convert");
  (* A genuinely branching language has no path-expression form. *)
  Alcotest.(check bool) "union rejected" true
    (Pathlearn.Expr.of_dfa (dfa "a b | b a") = None)

let prop_generalize_matches_word =
  let gen_word = QCheck.Gen.(list_size (1 -- 8) (oneofl [ "a"; "b" ])) in
  QCheck.Test.make ~name:"generalize_word matches its word" ~count:300
    (QCheck.make gen_word)
    (fun word ->
      Pathlearn.Expr.matches (Pathlearn.Expr.generalize_word word) word
      && Pathlearn.Expr.matches (Pathlearn.Expr.star_all word) word)

let prop_expr_matches_agrees_with_dfa =
  let gen_word = QCheck.Gen.(list_size (0 -- 6) (oneofl [ "a"; "b" ])) in
  let gen_expr =
    QCheck.Gen.(
      list_size (0 -- 4)
        (map2
           (fun star sym ->
             if star then Pathlearn.Expr.Star sym else Pathlearn.Expr.Sym sym)
           bool (oneofl [ "a"; "b" ])))
  in
  QCheck.Test.make ~name:"Expr.matches agrees with its DFA" ~count:300
    (QCheck.pair (QCheck.make gen_expr) (QCheck.make gen_word))
    (fun (e, word) ->
      Pathlearn.Expr.matches e word
      = Automata.Dfa.accepts (Pathlearn.Expr.to_dfa e) word)

(* ------------------------------------------------------------------ *)
(* Word-level learning                                                 *)
(* ------------------------------------------------------------------ *)

let test_words_learn_prefers_expr () =
  match Pathlearn.Words.learn ~pos:[ w "h"; w "h.h" ] ~neg:[ w "r" ] with
  | Some h ->
      Alcotest.(check bool) "path-expression form found" true (h.expr <> None)
  | None -> Alcotest.fail "learnable"

let test_words_learn_falls_back_to_rpni () =
  (* Odd-length a-words are regular but not a path expression. *)
  match
    Pathlearn.Words.learn ~pos:[ w "a"; w "a.a.a" ] ~neg:[ []; w "a.a" ]
  with
  | Some h ->
      Alcotest.(check bool) "consistent" true
        (Pathlearn.Words.selects h (w "a")
        && not (Pathlearn.Words.selects h (w "a.a")))
  | None -> Alcotest.fail "RPNI fallback must fire"

let test_words_learn_contradiction () =
  Alcotest.(check bool) "contradictory sample" true
    (Pathlearn.Words.learn ~pos:[ w "a" ] ~neg:[ w "a" ] = None)

(* ------------------------------------------------------------------ *)
(* Pair-level learning on a graph                                      *)
(* ------------------------------------------------------------------ *)

(* 0 -h-> 1 -h-> 2 -h-> 3, plus 0 -r-> 3 and 3 -r-> 0. *)
let chain =
  Graphdb.Graph.make ~nodes:4
    [ (0, "h", 1); (1, "h", 2); (2, "h", 3); (0, "r", 3); (3, "r", 0) ]

let test_pairs_learn_highway () =
  let examples =
    [
      Core.Example.positive (0, 1);
      Core.Example.positive (0, 2);
      Core.Example.negative (3, 0);
    ]
  in
  match Pathlearn.Pairs.learn chain examples with
  | None -> Alcotest.fail "learnable"
  | Some h ->
      Alcotest.(check bool) "selects positives" true
        (Pathlearn.Pairs.selects h chain (0, 1)
        && Pathlearn.Pairs.selects h chain (0, 2));
      Alcotest.(check bool) "rejects negative" false
        (Pathlearn.Pairs.selects h chain (3, 0))

let test_pairs_refinement_kicks_in () =
  (* (0,3) positive via h.h.h — but the shortest connecting word is r,
     which also connects the negative (3,0).  The learner must discard the
     r witness and refine to the h-path. *)
  let examples =
    [ Core.Example.positive (0, 3); Core.Example.negative (3, 0) ]
  in
  match Pathlearn.Pairs.learn chain examples with
  | None -> Alcotest.fail "learnable with refinement"
  | Some h ->
      Alcotest.(check bool) "positive selected" true
        (Pathlearn.Pairs.selects h chain (0, 3));
      Alcotest.(check bool) "negative rejected" false
        (Pathlearn.Pairs.selects h chain (3, 0))

let test_pairs_unreachable_positive () =
  let g2 = Graphdb.Graph.make ~nodes:2 [ (0, "a", 1) ] in
  let examples = [ Core.Example.positive (1, 0) ] in
  Alcotest.(check bool) "no path, no query" true
    (Pathlearn.Pairs.learn g2 examples = None)

let test_pairs_on_geo () =
  let rng = Core.Prng.create 23 in
  let geo = Graphdb.Generators.geo ~rng ~cities:12 () in
  let goal = dfa "highway highway*" in
  let answers = Graphdb.Rpq.eval goal geo in
  QCheck.assume (List.length answers >= 4);
  let pos = List.filteri (fun i _ -> i < 3) answers in
  let neg =
    List.concat_map
      (fun u -> List.init 12 (fun v -> (u, v)))
      (List.init 12 Fun.id)
    |> List.filter (fun p -> not (List.mem p answers))
    |> List.filteri (fun i _ -> i < 3)
  in
  let examples =
    List.map Core.Example.positive pos @ List.map Core.Example.negative neg
  in
  match Pathlearn.Pairs.learn geo examples with
  | None -> Alcotest.fail "geo goal learnable"
  | Some h ->
      List.iter
        (fun p ->
          Alcotest.(check bool) "positive pair selected" true
            (Pathlearn.Pairs.selects h geo p))
        pos;
      List.iter
        (fun p ->
          Alcotest.(check bool) "negative pair rejected" false
            (Pathlearn.Pairs.selects h geo p))
        neg

(* ------------------------------------------------------------------ *)
(* Interactive                                                         *)
(* ------------------------------------------------------------------ *)

let test_interactive_consistent () =
  let rng = Core.Prng.create 31 in
  let graph = Graphdb.Generators.geo ~rng ~cities:8 () in
  let goal = dfa "highway highway*" in
  let outcome = Pathlearn.Interactive.run_with_goal ~rng ~graph ~goal () in
  match outcome.query with
  | None -> Alcotest.fail "hypothesis expected"
  | Some h ->
      List.iter
        (fun ((item : Pathlearn.Interactive.item), label) ->
          Alcotest.(check bool) "answer respected" label
            (Pathlearn.Words.selects h item.word))
        outcome.asked

let test_interactive_dedups_words () =
  let rng = Core.Prng.create 37 in
  let graph = Graphdb.Generators.geo ~rng ~cities:8 () in
  let goal = dfa "highway" in
  let outcome = Pathlearn.Interactive.run_with_goal ~rng ~graph ~goal () in
  let asked_words = List.map (fun ((it : Pathlearn.Interactive.item), _) -> it.word) outcome.asked in
  Alcotest.(check int) "each word asked once"
    (List.length (List.sort_uniq compare asked_words))
    (List.length asked_words);
  Alcotest.(check bool) "many paths pruned" true (outcome.pruned > 0)

let test_workload_strategy_prefers_prior () =
  let rng = Core.Prng.create 41 in
  let graph = Graphdb.Generators.geo ~rng ~cities:8 () in
  let goal = dfa "highway highway*" in
  let prior = [ dfa "highway highway* | highway" ] in
  let outcome =
    Pathlearn.Interactive.run_with_goal ~rng
      ~strategy:(Pathlearn.Interactive.workload_strategy ~prior)
      ~graph ~goal ()
  in
  (* The first question goes to a prior-matching (highway) path. *)
  match outcome.asked with
  | ((first : Pathlearn.Interactive.item), _) :: _ ->
      Alcotest.(check bool) "first question follows the workload prior" true
        (List.for_all (String.equal "highway") first.word)
  | [] -> Alcotest.fail "questions expected"

(* The production pool builder against the list-based reference at the
   size learn-path runs (512 cities, walks up to 3 edges), with the CLI's
   generator state after building the network. *)
let test_pool_matches_reference_cli_size () =
  List.iter
    (fun seed ->
      let rng = Core.Prng.create seed in
      let graph = Graphdb.Generators.geo ~rng ~cities:512 () in
      List.iter
        (fun (max_len, per_source) ->
          match
            Fuzz.Reference.check_path_pool ~max_len ~per_source ~rng graph
          with
          | Ok () -> ()
          | Error e ->
              Alcotest.failf "seed %d, max_len %d, per_source %d: %s" seed
                max_len per_source e)
        [ (3, 30); (4, 30); (3, 1000); (2, 0) ])
    [ 0; 1 ]

(* Labels that are prefixes of one another, an empty label and a self-loop:
   the word order is polymorphic compare's, a prefix first. *)
let test_pool_word_order () =
  let graph =
    Graphdb.Graph.make ~nodes:2
      [ (0, "ab", 1); (0, "a", 1); (1, "", 0); (0, "b", 0); (0, "a", 0) ]
  in
  let items =
    Pathlearn.Interactive.items_of_graph ~max_len:2 ~rng:(Core.Prng.create 0)
      graph
  in
  let from0 =
    List.filter_map
      (fun (it : Pathlearn.Interactive.item) ->
        if it.src = 0 && it.dst = 1 then Some it.word else None)
      items
  in
  Alcotest.(check (list (list string)))
    "0 -> 1 words"
    [ [ "a" ]; [ "a"; "a" ]; [ "a"; "ab" ]; [ "ab" ]; [ "b"; "a" ]; [ "b"; "ab" ] ]
    from0;
  List.iter
    (fun per_source ->
      match
        Fuzz.Reference.check_path_pool ~max_len:3 ~per_source
          ~rng:(Core.Prng.create 5) graph
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "per_source %d: %s" per_source e)
    [ -1; 0; 1; 3; 30 ]

let () =
  Alcotest.run "pathlearn"
    [
      ( "expr",
        [
          Alcotest.test_case "matches" `Quick test_expr_matches;
          Alcotest.test_case "to_regex" `Quick test_expr_to_regex;
          Alcotest.test_case "generalize_word" `Quick test_generalize_word;
          Alcotest.test_case "star_all" `Quick test_star_all;
          Alcotest.test_case "learn" `Quick test_expr_learn;
          Alcotest.test_case "learn smallest" `Quick test_expr_learn_smallest;
          Alcotest.test_case "of_dfa" `Quick test_expr_of_dfa;
          qcheck prop_generalize_matches_word;
          qcheck prop_expr_matches_agrees_with_dfa;
        ] );
      ( "words",
        [
          Alcotest.test_case "prefers expressions" `Quick test_words_learn_prefers_expr;
          Alcotest.test_case "falls back to RPNI" `Quick test_words_learn_falls_back_to_rpni;
          Alcotest.test_case "contradiction" `Quick test_words_learn_contradiction;
        ] );
      ( "pairs",
        [
          Alcotest.test_case "learn highway" `Quick test_pairs_learn_highway;
          Alcotest.test_case "refinement" `Quick test_pairs_refinement_kicks_in;
          Alcotest.test_case "unreachable positive" `Quick test_pairs_unreachable_positive;
          Alcotest.test_case "geo workload" `Slow test_pairs_on_geo;
        ] );
      ( "interactive",
        [
          Alcotest.test_case "consistent" `Slow test_interactive_consistent;
          Alcotest.test_case "dedups words" `Slow test_interactive_dedups_words;
          Alcotest.test_case "workload prior" `Slow test_workload_strategy_prefers_prior;
          Alcotest.test_case "pool matches reference at CLI size" `Quick
            test_pool_matches_reference_cli_size;
          Alcotest.test_case "pool word order" `Quick test_pool_word_order;
        ] );
    ]
