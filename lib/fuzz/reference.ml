(* The direct definition, independent of the int kernel
   {!Joinlearn.Signature.signature} and the batch builder share. *)
let signature sp rt st =
  let m = ref 0 in
  Array.iteri
    (fun k (i, j) ->
      if Relational.Value.equal rt.(i) st.(j) then m := !m lor (1 lsl k))
    (Joinlearn.Signature.pairs sp);
  !m

let join_items space left right =
  List.concat_map
    (fun rt ->
      List.map
        (fun st ->
          {
            Joinlearn.Interactive.left = rt;
            right = st;
            mask = signature space rt st;
          })
        (Relational.Relation.tuples right))
    (Relational.Relation.tuples left)

let path_items ?(max_len = 4) ?(per_source = 30) ~rng g =
  let n = Graphdb.Graph.node_count g in
  List.concat
    (List.init n (fun src ->
         let paths = Graphdb.Rpq.paths_from g ~src ~max_len in
         let items =
           List.filter_map
             (fun (nodes, word) ->
               match List.rev nodes with
               | dst :: _ when word <> [] ->
                   Some { Pathlearn.Interactive.src; dst; word }
               | _ -> None)
             paths
         in
         let items = List.sort_uniq compare items in
         if List.length items <= per_source then items
         else Core.Prng.sample rng per_source items))

let failf fmt = Format.kasprintf (fun s -> Error s) fmt

let attempt f = match f () with l -> Ok l | exception Invalid_argument m -> Error m

let rec first_difference i = function
  | a :: ra, b :: rb -> if a = b then first_difference (i + 1) (ra, rb) else i
  | _ -> i

(* Same items, then same order: the two failures call for different
   fixes, so they read differently. *)
let compare_lists ~what reference pool =
  let nr = List.length reference and np = List.length pool in
  if nr <> np then failf "%s: %d items, reference has %d" what np nr
  else if List.sort compare reference <> List.sort compare pool then
    failf "%s: the %d items differ from the reference's" what np
  else if reference <> pool then
    failf "%s: same items as the reference, but item %d is out of order" what
      (first_difference 0 (reference, pool))
  else Ok ()

let check_join_pool space left right =
  match
    ( attempt (fun () -> join_items space left right),
      attempt (fun () -> Joinlearn.Interactive.items_of space left right) )
  with
  | Error _, Error _ -> Ok ()
  | Ok _, Error m -> failf "items_of raised %S; the reference builds a pool" m
  | Error m, Ok _ -> failf "items_of built a pool; the reference raised %S" m
  | Ok reference, Ok pool -> (
      match compare_lists ~what:"join pool" reference pool with
      | Error _ as e -> e
      | Ok () ->
          if
            List.for_all2
              (fun (r : Joinlearn.Interactive.item)
                   (p : Joinlearn.Interactive.item) ->
                r.left == p.left && r.right == p.right)
              reference pool
          then
            (* [decode_item] recomputes masks one pair at a time. *)
            match
              List.find_opt
                (fun (p : Joinlearn.Interactive.item) ->
                  Joinlearn.Signature.signature space p.left p.right <> p.mask)
                pool
            with
            | None -> Ok ()
            | Some _ -> failf "join pool: Signature.signature disagrees with a mask"
          else failf "join pool: items do not share the relations' tuples")

let check_path_pool ?max_len ?per_source ~rng g =
  let g_ref = Core.Prng.copy rng and g_pool = Core.Prng.copy rng in
  match
    ( attempt (fun () -> path_items ?max_len ?per_source ~rng:g_ref g),
      attempt (fun () ->
          Pathlearn.Interactive.items_of_graph ?max_len ?per_source
            ~rng:g_pool g) )
  with
  | Error _, Error _ -> Ok ()
  | Ok _, Error m ->
      failf "items_of_graph raised %S; the reference builds a pool" m
  | Error m, Ok _ ->
      failf "items_of_graph built a pool; the reference raised %S" m
  | Ok reference, Ok pool -> (
      match compare_lists ~what:"path pool" reference pool with
      | Error _ as e -> e
      | Ok () ->
          if Core.Prng.next_int64 g_ref = Core.Prng.next_int64 g_pool then Ok ()
          else failf "path pool: the generator state differs afterwards")
