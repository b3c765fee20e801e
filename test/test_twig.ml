(* Tests for twig queries: parsing, semantics, containment, LGG. *)

open Twig

let qcheck = QCheck_alcotest.to_alcotest
let query_testable = Alcotest.testable Query.pp Query.equal
let paths = Alcotest.(list (list int))

let doc =
  Xmltree.Parse.term
    "site(regions(africa(item(name,location,quantity)),asia(item(name))),\
     people(person(name,address(city))))"

(* ------------------------------------------------------------------ *)
(* Parser / printer                                                    *)
(* ------------------------------------------------------------------ *)

let test_parse_roundtrip () =
  List.iter
    (fun s ->
      let q = Parse.query s in
      Alcotest.(check string) ("roundtrip " ^ s) s (Query.to_string q))
    [
      "/site/regions";
      "//item";
      "/site//item/name";
      "/a/*/b";
      "//person[address/city]/name";
      "/site/regions//item[location][quantity]/name";
      "/a[.//b]/c";
      "//item[@id]/name";
      "/a[b[c][d]/e]/f";
    ]

let test_parse_errors () =
  List.iter
    (fun s ->
      match Parse.query s with
      | exception Parse.Syntax_error _ -> ()
      | _ -> Alcotest.fail ("should not parse: " ^ s))
    [ "item"; "/"; "/a["; "/a[]"; "/a]"; ""; "/a/following-sibling::b" ]

let test_parse_classification () =
  Alcotest.(check bool) "twig fragment accepts" true
    (Parse.query_opt "//a[b]/c" <> None);
  Alcotest.(check bool) "xpath beyond fragment rejected" true
    (Parse.query_opt "//a[b or c]" = None)

(* ------------------------------------------------------------------ *)
(* Semantics                                                           *)
(* ------------------------------------------------------------------ *)

let select s = Eval.select (Parse.query s) doc

let test_eval_child_path () =
  Alcotest.check paths "exact path" [ [ 1; 0; 0 ] ] (select "/site/people/person/name")

let test_eval_descendant () =
  Alcotest.check paths "all names"
    [ [ 0; 0; 0; 0 ]; [ 0; 1; 0; 0 ]; [ 1; 0; 0 ] ]
    (select "//name")

let test_eval_root_anchored_vs_descendant () =
  Alcotest.check paths "no site below root" [ [] ] (select "//site");
  Alcotest.check paths "child axis from root" [ [] ] (select "/site");
  Alcotest.check paths "nothing: people is not root" [] (select "/people")

let test_eval_wildcard () =
  Alcotest.check paths "regions children"
    [ [ 0; 0 ]; [ 0; 1 ] ]
    (select "/site/regions/*")

let test_eval_filters () =
  Alcotest.check paths "item with location"
    [ [ 0; 0; 0 ] ]
    (select "//item[location]");
  Alcotest.check paths "filtered then project"
    [ [ 0; 0; 0; 0 ] ]
    (select "//item[location][quantity]/name");
  Alcotest.check paths "filter not satisfied" [] (select "//asia/item[location]")

let test_eval_descendant_filter () =
  Alcotest.check paths "person reachable" [ [ 1; 0 ] ] (select "//person[.//city]");
  Alcotest.check paths "site has deep city" [ [] ] (select "/site[.//city]")

let test_eval_nested_filter () =
  Alcotest.check paths "nested path filter" [ [ 1; 0 ] ]
    (select "//person[address/city]")

let test_eval_mid_descendant () =
  Alcotest.check paths "descendant mid-spine"
    [ [ 0; 0; 0; 0 ]; [ 0; 1; 0; 0 ] ]
    (select "/site/regions//name")

let test_selects_one () =
  let q = Parse.query "//item" in
  Alcotest.(check bool) "selects item" true (Eval.selects q doc [ 0; 0; 0 ]);
  Alcotest.(check bool) "not name" false (Eval.selects q doc [ 0; 0; 0; 0 ])

let test_holds_filter () =
  let f = Query.filter_of_tree (Xmltree.Parse.term "item(name)") in
  Alcotest.(check bool) "embeds" true
    (Eval.holds_filter f (Xmltree.Parse.term "item(name,location)"));
  Alcotest.(check bool) "missing branch" false
    (Eval.holds_filter f (Xmltree.Parse.term "item(location)"))

(* ------------------------------------------------------------------ *)
(* Reference evaluator cross-check                                     *)
(* ------------------------------------------------------------------ *)

(* A direct, obviously-correct (and obviously slow) implementation of twig
   semantics: recursive embedding search with no indexing or memoization.
   The production evaluator must agree with it on random inputs. *)
module Naive = struct
  open Xmltree

  let test_holds test (n : Tree.t) =
    match test with
    | Query.Wildcard -> true
    | Query.Label l -> String.equal l n.label

  let rec descendants (n : Tree.t) =
    List.concat_map (fun c -> c :: descendants c) n.children

  let rec filter_at (f : Query.filter) (n : Tree.t) =
    test_holds f.ftest n
    && List.for_all
         (fun (axis, g) ->
           let pool =
             match axis with
             | Query.Child -> n.children
             | Query.Descendant -> descendants n
           in
           List.exists (filter_at g) pool)
         f.fsubs

  let step_at (s : Query.step) n =
    test_holds s.test n
    && List.for_all
         (fun (axis, f) ->
           let pool =
             match axis with
             | Query.Child -> n.Tree.children
             | Query.Descendant -> descendants n
           in
           List.exists (filter_at f) pool)
         s.filters

  (* Does the spine starting at [steps] embed with its first node mapped to
     the node at [path]?  Work top-down from candidate start nodes. *)
  let select (q : Query.t) doc =
    let all = Tree.all_paths doc in
    let node p = Option.get (Tree.node_at doc p) in
    let rec chain current_path = function
      | [] -> [ current_path ]
      | (s : Query.step) :: rest ->
          let candidates =
            match s.axis with
            | Query.Child ->
                List.filter
                  (fun p -> Tree.parent_path p = Some current_path)
                  all
            | Query.Descendant ->
                List.filter
                  (fun p ->
                    p <> current_path
                    && List.length p > List.length current_path
                    && List.filteri
                         (fun i _ -> i < List.length current_path)
                         p
                       = current_path)
                  all
          in
          List.concat_map
            (fun p -> if step_at s (node p) then chain p rest else [])
            candidates
    in
    (match q with
    | [] -> []
    | (first : Query.step) :: rest ->
        let starts =
          match first.axis with Query.Child -> [ [] ] | Query.Descendant -> all
        in
        List.concat_map
          (fun p -> if step_at first (node p) then chain p rest else [])
          starts)
    |> List.sort_uniq compare
end

(* ------------------------------------------------------------------ *)
(* Characteristic queries and anchoredness                             *)
(* ------------------------------------------------------------------ *)

let test_of_example () =
  let q = Query.of_example doc [ 0; 0; 0; 0 ] in
  (* Spine site/regions/africa/item/name with sibling filters. *)
  Alcotest.(check int) "depth" 5 (Query.depth q);
  Alcotest.(check bool) "selects its node" true
    (Eval.selects q doc [ 0; 0; 0; 0 ]);
  Alcotest.(check bool) "anchored" true (Query.is_anchored q)

let test_of_example_skips_text () =
  let d = Xmltree.Parse.term "a(b(#v),c)" in
  let q = Query.of_example d [ 1 ] in
  Alcotest.(check bool) "no text labels in query" true
    (List.for_all (fun l -> l.[0] <> '#') (Query.labels q))

let test_anchor_drops_bad_wildcards () =
  (* //*/a has a wildcard incident to a descendant edge. *)
  let q = Parse.query "//*/a" in
  Alcotest.(check bool) "not anchored" false (Query.is_anchored q);
  let a = Query.anchor q in
  Alcotest.(check bool) "anchored after repair" true (Query.is_anchored a);
  Alcotest.check query_testable "wildcard fused into //" (Parse.query "//a") a

let test_anchor_keeps_good_wildcards () =
  let q = Parse.query "/a/*/b" in
  Alcotest.(check bool) "already anchored" true (Query.is_anchored q);
  Alcotest.check query_testable "unchanged" q (Query.anchor q)

let test_anchored_output_wildcard () =
  Alcotest.(check bool) "wildcard output not anchored" false
    (Query.is_anchored (Parse.query "/a/*"))

let test_size_and_strip () =
  let q = Parse.query "/a[b/c][d]/e" in
  Alcotest.(check int) "size counts filters" 5 (Query.size q);
  Alcotest.(check int) "stripped size" 2 (Query.size (Query.strip_filters q));
  Alcotest.(check bool) "stripped is path" true
    (Query.is_path (Query.strip_filters q))

(* ------------------------------------------------------------------ *)
(* Containment                                                         *)
(* ------------------------------------------------------------------ *)

let sub s1 s2 = Contain.subsumed (Parse.query s1) (Parse.query s2)

let test_containment_cases () =
  Alcotest.(check bool) "/a/b ⊆ //b" true (sub "/a/b" "//b");
  Alcotest.(check bool) "//b ⊄ /a/b" false (sub "//b" "/a/b");
  Alcotest.(check bool) "/a/b ⊆ /a/*" true (sub "/a/b" "/a/*");
  Alcotest.(check bool) "/a/* ⊄ /a/b" false (sub "/a/*" "/a/b");
  Alcotest.(check bool) "filters weaken" true (sub "//a[b][c]/d" "//a[b]/d");
  Alcotest.(check bool) "filters are conditions" false (sub "//a[b]/d" "//a[b][c]/d");
  Alcotest.(check bool) "child filter implies descendant filter" true
    (sub "//a[b]" "//a[.//b]");
  Alcotest.(check bool) "descendant filter weaker" false
    (sub "//a[.//b]" "//a[b]");
  Alcotest.(check bool) "deep filter implies shallow" true
    (sub "//a[b/c]" "//a[b]");
  Alcotest.(check bool) "reflexive" true (sub "//a[b/c]/d" "//a[b/c]/d");
  Alcotest.(check bool) "long path in //" true (sub "/a/b/c" "//c");
  Alcotest.(check bool) "spine vs filter" true (sub "/a/b[c]" "//b[c]")

let test_equiv () =
  Alcotest.(check bool) "syntactic variants" true
    (Contain.equiv (Parse.query "//a[b][c]") (Parse.query "//a[c][b]"));
  Alcotest.(check bool) "inequivalent" false
    (Contain.equiv (Parse.query "//a[b]") (Parse.query "//a"))

let test_filter_subsumed () =
  let fe s =
    match (Parse.query ("//x[" ^ s ^ "]") : Query.t) with
    | [ { filters = [ e ]; _ } ] -> e
    | _ -> Alcotest.fail "unexpected filter parse"
  in
  Alcotest.(check bool) "b/c implies b" true
    (Contain.filter_subsumed (fe "b/c") (fe "b"));
  Alcotest.(check bool) "b does not imply b/c" false
    (Contain.filter_subsumed (fe "b") (fe "b/c"));
  Alcotest.(check bool) "child implies descendant" true
    (Contain.filter_subsumed (fe "b") (fe ".//b"));
  Alcotest.(check bool) "deep child implies descendant of sub" true
    (Contain.filter_subsumed (fe "b/c") (fe ".//c"))

let test_canonical_instances () =
  let q = Parse.query "//a[.//b]/c" in
  let instances = Contain.canonical_instances q in
  Alcotest.(check bool) "several variants" true (List.length instances >= 2);
  List.iter
    (fun (t, out) ->
      Alcotest.(check bool) "query selects its canonical output" true
        (Eval.selects q t out))
    instances

(* One fresh node per descendant edge is too shallow when [q2] has
   wildcards: [q1]'s leading [//] must stretch past [q2]'s [/*] and its
   [/c] (two fresh nodes) before [q2] stops matching.  The witness below
   is selected by [q1] and not by [q2]. *)
let test_semantic_containment_deep_descendant () =
  let q1 = Parse.query "//c[.//c//b]/c/c"
  and q2 = Parse.query "/*[.//b][.//c]/c//c" in
  let witness = Xmltree.Parse.xml "<r><a><c><c><b/></c><c><c/></c></c></a></r>" in
  let out = [ 0; 0; 1; 0 ] in
  Alcotest.(check bool) "q1 selects the witness" true (Eval.selects q1 witness out);
  Alcotest.(check bool) "q2 does not" false (Eval.selects q2 witness out);
  Alcotest.(check int) "q2's wildcard chain" 1 (Contain.star_length q2);
  Alcotest.(check bool) "no homomorphism" false (Contain.subsumed q1 q2);
  Alcotest.(check bool) "canonical models refute containment" false
    (Contain.subsumed_semantic ~max_variants:65536 q1 q2)

(* Random queries: spines of 1-4 steps over {a,b,c} with simple filters. *)
let gen_query =
  let open QCheck.Gen in
  let axis = oneofl [ Query.Child; Query.Descendant ] in
  let test = frequency [ (4, map (fun l -> Query.Label l) (oneofl [ "a"; "b"; "c" ])); (1, return Query.Wildcard) ] in
  let filter =
    map2
      (fun t sub ->
        { Query.ftest = t; fsubs = (match sub with None -> [] | Some (a, t') -> [ (a, { Query.ftest = t'; fsubs = [] }) ]) })
      test
      (opt (pair axis test))
  in
  let step =
    map3
      (fun axis test fs -> { Query.axis; test; filters = fs })
      axis test
      (list_size (0 -- 2) (pair axis filter))
  in
  list_size (1 -- 4) step

let arbitrary_query =
  QCheck.make ~print:Query.to_string gen_query

let gen_doc_for_eval =
  let open QCheck.Gen in
  let label = oneofl [ "a"; "b"; "c" ] in
  sized_size (1 -- 20)
  @@ fix (fun self n ->
         if n <= 1 then map Xmltree.Tree.leaf label
         else map2 Xmltree.Tree.node label (list_size (0 -- 3) (self (n / 3))))

let prop_eval_matches_naive =
  QCheck.Test.make ~name:"indexed evaluator agrees with the naive one"
    ~count:500
    (QCheck.pair
       (QCheck.make ~print:Xmltree.Tree.to_string gen_doc_for_eval)
       arbitrary_query)
    (fun (doc, q) -> Eval.select q doc = Naive.select q doc)

let prop_hom_sound =
  (* Homomorphism containment is sound w.r.t. canonical-model semantics. *)
  QCheck.Test.make ~name:"hom containment sound on canonical models" ~count:300
    (QCheck.pair arbitrary_query arbitrary_query)
    (fun (q1, q2) ->
      QCheck.assume (Contain.subsumed q1 q2);
      Contain.subsumed_semantic q1 q2)

let rec filter_label_only (f : Query.filter) =
  f.ftest <> Query.Wildcard
  && List.for_all (fun (_, g) -> filter_label_only g) f.fsubs

let label_only_filters (q : Query.t) =
  List.for_all
    (fun (s : Query.step) ->
      List.for_all (fun (_, f) -> filter_label_only f) s.filters)
    q

let prop_hom_complete_anchored =
  (* On the learner's output shape — anchored queries whose filters test
     labels only — semantic containment implies homomorphism on every
     instance generated here.  (With wildcard filters the implication is
     false: general twig containment is coNP-hard.) *)
  QCheck.Test.make ~name:"hom containment complete on anchored label-filter queries"
    ~count:300
    (QCheck.pair arbitrary_query arbitrary_query)
    (fun (q1, q2) ->
      let q1 = Query.anchor q1 and q2 = Query.anchor q2 in
      QCheck.assume (Query.is_anchored q1 && Query.is_anchored q2);
      QCheck.assume (label_only_filters q1 && label_only_filters q2);
      (* A high variant cap keeps the canonical-model check exact on these
         small random queries. *)
      QCheck.assume (Contain.subsumed_semantic ~max_variants:65536 q1 q2);
      Contain.subsumed q1 q2)

let prop_canonical_selected =
  QCheck.Test.make ~name:"canonical instances are selected" ~count:200
    arbitrary_query (fun q ->
      List.for_all
        (fun (t, out) -> Eval.selects q t out)
        (Contain.canonical_instances q))

(* Every (axis, filter) pair appearing in a query, including nested ones. *)
let rec filters_of_filter ((a, f) : Query.axis * Query.filter) =
  (a, f) :: List.concat_map filters_of_filter f.Query.fsubs

let filters_of_query (q : Query.t) =
  List.concat_map
    (fun (s : Query.step) -> List.concat_map filters_of_filter s.filters)
    q

(* The hash-consed memo in front of [filter_subsumed] must be semantically
   invisible: same verdicts as the uncached recursion, in both argument
   orders (the cache key is ordered), with the cache warm from earlier
   iterations of this very property. *)
let prop_filter_cache_transparent =
  QCheck.Test.make ~name:"cached ≡ uncached filter_subsumed" ~count:300
    (QCheck.pair arbitrary_query arbitrary_query)
    (fun (q1, q2) ->
      let fs1 = filters_of_query q1 and fs2 = filters_of_query q2 in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              Contain.filter_subsumed a b
              = Contain.filter_subsumed_uncached a b
              && Contain.filter_subsumed b a
                 = Contain.filter_subsumed_uncached b a)
            fs2)
        fs1)

(* ------------------------------------------------------------------ *)
(* LGG                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lgg_idempotent_semantics () =
  let q = Parse.query "/site/regions//item[location]/name" in
  let g = Lgg.lgg q q in
  Alcotest.(check bool) "lgg(q,q) ⊇ q" true (Contain.subsumed q g)

let test_lgg_generalizes_both () =
  let q1 = Query.of_example doc [ 0; 0; 0; 0 ] in
  let q2 = Query.of_example doc [ 0; 1; 0; 0 ] in
  let g = Lgg.lgg q1 q2 in
  Alcotest.(check bool) "contains q1" true (Contain.subsumed q1 g);
  Alcotest.(check bool) "contains q2" true (Contain.subsumed q2 g);
  Alcotest.(check bool) "selects ex1" true (Eval.selects g doc [ 0; 0; 0; 0 ]);
  Alcotest.(check bool) "selects ex2" true (Eval.selects g doc [ 0; 1; 0; 0 ])

let test_lgg_label_generalization () =
  let d1 = Xmltree.Parse.term "r(a(x))" and d2 = Xmltree.Parse.term "r(b(x))" in
  let g = Lgg.lgg (Query.of_example d1 [ 0; 0 ]) (Query.of_example d2 [ 0; 0 ]) in
  Alcotest.check query_testable "wildcard mid-spine" (Parse.query "/r/*/x") g

let test_lgg_depth_generalization () =
  let d1 = Xmltree.Parse.term "r(x)" and d2 = Xmltree.Parse.term "r(m(x))" in
  let g = Lgg.lgg (Query.of_example d1 [ 0 ]) (Query.of_example d2 [ 0; 0 ]) in
  Alcotest.check query_testable "descendant edge" (Parse.query "/r//x") g

let test_lgg_filter_intersection () =
  let d1 = Xmltree.Parse.term "r(i(a,b),i2)" and d2 = Xmltree.Parse.term "r(i(a,c))" in
  let g = Lgg.lgg (Query.of_example d1 [ 0 ]) (Query.of_example d2 [ 0 ]) in
  Alcotest.check query_testable "only the common filter survives"
    (Parse.query "/r/i[a]") g

let test_lgg_descendant_rescue () =
  (* The same label at different depths survives behind a descendant edge. *)
  let d1 = Xmltree.Parse.term "r(i(t(k)))" and d2 = Xmltree.Parse.term "r(i(p(l(t(k)))))" in
  let g = Lgg.lgg (Query.of_example d1 [ 0 ]) (Query.of_example d2 [ 0 ]) in
  Alcotest.(check bool) "rescued deep common structure" true
    (Contain.subsumed g (Parse.query "//i[.//t/k]")
    || Contain.subsumed g (Parse.query "//i[.//k]"));
  Alcotest.(check bool) "still selects both" true
    (Eval.selects g d1 [ 0 ] && Eval.selects g d2 [ 0 ])

let test_lgg_all () =
  Alcotest.(check bool) "empty list" true (Lgg.lgg_all [] = None);
  let q = Parse.query "/a/b" in
  match Lgg.lgg_all [ q ] with
  | Some g -> Alcotest.check query_testable "singleton is itself" q g
  | None -> Alcotest.fail "singleton must succeed"

let test_minimize_removes_redundancy () =
  let q = Parse.query "//a[b][b]/c" in
  let m = Lgg.minimize q in
  Alcotest.(check bool) "equivalent" true (Contain.equiv q m);
  Alcotest.(check bool) "smaller or equal" true (Query.size m <= Query.size q);
  (* [b] duplicated must collapse *)
  Alcotest.check query_testable "dedup" (Parse.query "//a[b]/c") m

let test_minimize_spine_implied_filter () =
  (* [b/c] is implied by the spine /a/b/c below it. *)
  let q = Parse.query "/a[b/c]/b/c" in
  let m = Lgg.minimize q in
  Alcotest.check query_testable "spine-implied filter dropped"
    (Parse.query "/a/b/c") m;
  Alcotest.(check bool) "equivalent" true (Contain.equiv q m)

let prop_minimize_preserves_equivalence =
  QCheck.Test.make ~name:"minimize preserves equivalence" ~count:300
    arbitrary_query (fun q -> Contain.equiv q (Lgg.minimize q))

let prop_lgg_upper_bound =
  QCheck.Test.make ~name:"lgg is an upper bound" ~count:200
    (QCheck.pair arbitrary_query arbitrary_query)
    (fun (q1, q2) ->
      let g = Lgg.lgg q1 q2 in
      Contain.subsumed q1 g && Contain.subsumed q2 g)

let () =
  Alcotest.run "twig"
    [
      ( "parse",
        [
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "classification" `Quick test_parse_classification;
        ] );
      ( "eval",
        [
          Alcotest.test_case "child path" `Quick test_eval_child_path;
          Alcotest.test_case "descendant" `Quick test_eval_descendant;
          Alcotest.test_case "root anchoring" `Quick test_eval_root_anchored_vs_descendant;
          Alcotest.test_case "wildcard" `Quick test_eval_wildcard;
          Alcotest.test_case "filters" `Quick test_eval_filters;
          Alcotest.test_case "descendant filter" `Quick test_eval_descendant_filter;
          Alcotest.test_case "nested filter" `Quick test_eval_nested_filter;
          Alcotest.test_case "mid descendant" `Quick test_eval_mid_descendant;
          Alcotest.test_case "selects one node" `Quick test_selects_one;
          Alcotest.test_case "holds_filter" `Quick test_holds_filter;
          qcheck prop_eval_matches_naive;
        ] );
      ( "characteristic",
        [
          Alcotest.test_case "of_example" `Quick test_of_example;
          Alcotest.test_case "skips text" `Quick test_of_example_skips_text;
          Alcotest.test_case "anchor repairs" `Quick test_anchor_drops_bad_wildcards;
          Alcotest.test_case "anchor keeps good" `Quick test_anchor_keeps_good_wildcards;
          Alcotest.test_case "output wildcard" `Quick test_anchored_output_wildcard;
          Alcotest.test_case "size and strip" `Quick test_size_and_strip;
        ] );
      ( "containment",
        [
          Alcotest.test_case "cases" `Quick test_containment_cases;
          Alcotest.test_case "equiv" `Quick test_equiv;
          Alcotest.test_case "filter subsumption" `Quick test_filter_subsumed;
          Alcotest.test_case "canonical instances" `Quick test_canonical_instances;
          Alcotest.test_case "semantic containment past a wildcard chain" `Quick
            test_semantic_containment_deep_descendant;
          qcheck prop_hom_sound;
          qcheck prop_hom_complete_anchored;
          qcheck prop_canonical_selected;
          qcheck prop_filter_cache_transparent;
        ] );
      ( "lgg",
        [
          Alcotest.test_case "idempotent" `Quick test_lgg_idempotent_semantics;
          Alcotest.test_case "generalizes both" `Quick test_lgg_generalizes_both;
          Alcotest.test_case "label generalization" `Quick test_lgg_label_generalization;
          Alcotest.test_case "depth generalization" `Quick test_lgg_depth_generalization;
          Alcotest.test_case "filter intersection" `Quick test_lgg_filter_intersection;
          Alcotest.test_case "descendant rescue" `Quick test_lgg_descendant_rescue;
          Alcotest.test_case "lgg_all" `Quick test_lgg_all;
          Alcotest.test_case "minimize dedup" `Quick test_minimize_removes_redundancy;
          Alcotest.test_case "minimize spine-implied" `Quick test_minimize_spine_implied_filter;
          qcheck prop_minimize_preserves_equivalence;
          qcheck prop_lgg_upper_bound;
        ] );
    ]
