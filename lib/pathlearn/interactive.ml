type item = { src : int; dst : int; word : string list }

module Session = struct
  type query = Words.hypothesis
  type nonrec item = item

  type state = {
    pos : string list list;
    neg : string list list;
    hyp : Words.hypothesis option;
  }

  let init _items = { pos = []; neg = []; hyp = None }

  let m_rows = Core.Telemetry.Metrics.counter "learnq.path.words_labeled"

  let record st item label =
    Core.Telemetry.Metrics.incr m_rows;
    let st =
      if label then { st with pos = item.word :: st.pos }
      else { st with neg = item.word :: st.neg }
    in
    { st with hyp = Words.learn ~pos:st.pos ~neg:st.neg }

  (* A word already labeled — on any path — needs no second question. *)
  let determined st item =
    if List.mem item.word st.pos then Some true
    else if List.mem item.word st.neg then Some false
    else None

  let candidate st = st.hyp

  let pp_item ppf it =
    Format.fprintf ppf "n%d→n%d via [%s]" it.src it.dst
      (String.concat " " it.word)

  let pp_query ppf q = Words.pp ppf q
end

module Loop = Core.Interact.Make (Session)

let m_walks = Core.Telemetry.Metrics.counter "learnq.path.walks"

(* Pool construction.  Every word met while walking is a node of one label
   trie shared by all sources, so a walk is just [(dst, word node)]: two
   walks spell the same word iff their nodes are physically equal, and each
   distinct word's label list is built once.  A node keeps its word as
   label ranks in [Graph.labels] order, which is [String.compare] order, so
   comparing rank arrays lexicographically, a prefix first, is the
   polymorphic order of the label lists. *)
type word = {
  ranks : int array;
  mutable kids : word list;
  mutable labels : string list;  (** memoised; [[]] until first decoded *)
}

let last w = w.ranks.(Array.length w.ranks - 1)

let rec child_in t rank = function
  | k :: rest -> if last k = rank then k else child_in t rank rest
  | [] ->
      let n = Array.length t.ranks in
      let ranks = Array.make (n + 1) rank in
      Array.blit t.ranks 0 ranks 0 n;
      let k = { ranks; kids = []; labels = [] } in
      t.kids <- k :: t.kids;
      k

let rec compare_ranks (a : int array) (b : int array) i =
  if i = Array.length a || i = Array.length b then
    Int.compare (Array.length a) (Array.length b)
  else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
  else compare_ranks a b (i + 1)

let compare_words a b = if a == b then 0 else compare_ranks a.ranks b.ranks 0

let labels_of names t =
  match t.labels with
  | [] ->
      let l = Array.fold_right (fun r acc -> names.(r) :: acc) t.ranks [] in
      t.labels <- l;
      l
  | l -> l

(* Growable per-call buffers of [(src, dst, word)]: the walks of the
   current source, and the items kept so far. *)
type walks = {
  mutable srcs : int array;
  mutable dsts : int array;
  mutable words : word array;
  mutable len : int;
}

let walks () = { srcs = [||]; dsts = [||]; words = [||]; len = 0 }

let push b root s d w =
  if b.len = Array.length b.dsts then begin
    let cap = max 16 (2 * b.len) in
    let grow a fill =
      let a' = Array.make cap fill in
      Array.blit a 0 a' 0 b.len;
      a'
    in
    b.srcs <- grow b.srcs 0;
    b.dsts <- grow b.dsts 0;
    b.words <- grow b.words root
  end;
  b.srcs.(b.len) <- s;
  b.dsts.(b.len) <- d;
  b.words.(b.len) <- w;
  b.len <- b.len + 1

(* Order [ix.(lo..hi-1)] — walks with one [dst] — by word: insertion sort
   while short (the usual case), a library sort otherwise. *)
let sort_run b (ix : int array) lo hi =
  if hi - lo <= 64 then
    for i = lo + 1 to hi - 1 do
      let x = ix.(i) in
      let w = b.words.(x) in
      let j = ref (i - 1) in
      while !j >= lo && compare_words b.words.(ix.(!j)) w > 0 do
        ix.(!j + 1) <- ix.(!j);
        decr j
      done;
      ix.(!j + 1) <- x
    done
  else begin
    let s = Array.sub ix lo (hi - lo) in
    Array.stable_sort (fun i j -> compare_words b.words.(i) b.words.(j)) s;
    Array.blit s 0 ix lo (hi - lo)
  end

(* Sort [ix] to the permutation of [b]'s walks in (dst, word) order — the
   order polymorphic compare puts one source's items in.  A counting pass
   places the walks by [dst] ([ends] collects the distinct [dst]s, [count]
   is all zeros on entry and on exit), then each run of one [dst] is
   sorted by word.  Only ints move. *)
let sort_walks b ~count ~ends (ix : int array) =
  let m = b.len and dsts = b.dsts in
  let k = ref 0 in
  for i = 0 to m - 1 do
    let d = dsts.(i) in
    if count.(d) = 0 then begin
      ends.(!k) <- d;
      incr k
    end;
    count.(d) <- count.(d) + 1
  done;
  let k = !k in
  if k <= 64 then
    for i = 1 to k - 1 do
      let d = ends.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && ends.(!j) > d do
        ends.(!j + 1) <- ends.(!j);
        decr j
      done;
      ends.(!j + 1) <- d
    done
  else begin
    let s = Array.sub ends 0 k in
    Array.sort Int.compare s;
    Array.blit s 0 ends 0 k
  end;
  (* [count.(d)] becomes the next free slot of [d]'s run, and after the
     placement the end of that run. *)
  let start = ref 0 in
  for i = 0 to k - 1 do
    let d = ends.(i) in
    let c = count.(d) in
    count.(d) <- !start;
    start := !start + c
  done;
  for i = 0 to m - 1 do
    let d = dsts.(i) in
    ix.(count.(d)) <- i;
    count.(d) <- count.(d) + 1
  done;
  let lo = ref 0 in
  for i = 0 to k - 1 do
    let hi = count.(ends.(i)) in
    sort_run b ix !lo hi;
    count.(ends.(i)) <- 0;
    lo := hi
  done

(* Drop repeats from sorted walks — equal walks have equal [dst] and the
   same word node — and return how many remain. *)
let dedup_walks b (ix : int array) =
  let u = ref 0 in
  for k = 0 to b.len - 1 do
    let i = ix.(k) in
    if
      !u = 0
      ||
      let p = ix.(!u - 1) in
      b.dsts.(p) <> b.dsts.(i) || b.words.(p) != b.words.(i)
    then begin
      ix.(!u) <- i;
      incr u
    end
  done;
  !u

(* A Fisher–Yates pass with the bounds [Core.Prng.shuffle] draws. *)
let shuffle_prefix rng (ix : int array) u =
  for i = u - 1 downto 1 do
    let j = Core.Prng.int rng (i + 1) in
    let t = ix.(i) in
    ix.(i) <- ix.(j);
    ix.(j) <- t
  done

let items_of_graph ?(max_len = 4) ?(per_source = 30) ~rng g =
  Core.Telemetry.with_span "path.walks" @@ fun () ->
  let n = Graphdb.Graph.node_count g in
  (* Adjacency as flat arrays of (label rank, target). *)
  let names = Array.of_list (Graphdb.Graph.labels g) in
  let ranks = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace ranks l i) names;
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + List.length (Graphdb.Graph.successors g v)
  done;
  let e_rank = Array.make off.(n) 0
  and e_dst = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    List.iteri
      (fun i (l, d) ->
        e_rank.(off.(v) + i) <- Hashtbl.find ranks l;
        e_dst.(off.(v) + i) <- d)
      (Graphdb.Graph.successors g v)
  done;
  let root = { ranks = [||]; kids = []; labels = [] } in
  let walks = walks () and kept = walks () in
  (* Depth-first: every walk of length 1..max_len from [src] through [v],
     [t] spelling the [depth] labels read so far. *)
  let rec walk src v t depth =
    for e = off.(v) to off.(v + 1) - 1 do
      let w = child_in t e_rank.(e) t.kids in
      push walks root src e_dst.(e) w;
      if depth + 1 < max_len then walk src e_dst.(e) w (depth + 1)
    done
  in
  let count = Array.make n 0 and ends = Array.make n 0 in
  let ix = ref [||] in
  for src = 0 to n - 1 do
    walks.len <- 0;
    if max_len >= 1 then walk src src root 0;
    if Array.length !ix < walks.len then ix := Array.make (Array.length walks.dsts) 0;
    let ix = !ix in
    sort_walks walks ~count ~ends ix;
    let u = dedup_walks walks ix in
    (* Over the cap, keep a uniform sample: the first [per_source] after a
       shuffle, as [Core.Prng.sample] does (which keeps all for a negative
       cap). *)
    let keep =
      if u <= per_source then u
      else begin
        shuffle_prefix rng ix u;
        if per_source < 0 then u else per_source
      end
    in
    for k = 0 to keep - 1 do
      push kept root src walks.dsts.(ix.(k)) walks.words.(ix.(k))
    done
  done;
  let items = ref [] in
  for i = kept.len - 1 downto 0 do
    items :=
      { src = kept.srcs.(i); dst = kept.dsts.(i); word = labels_of names kept.words.(i) }
      :: !items
  done;
  if Core.Telemetry.enabled () then
    Core.Telemetry.Metrics.incr m_walks ~by:kept.len;
  !items

let shortest_first items =
  List.sort (fun a b -> compare (List.length a.word) (List.length b.word)) items

let workload_strategy ~prior _rng _st items =
  let preferred =
    List.filter
      (fun it -> List.exists (fun d -> Automata.Dfa.accepts d it.word) prior)
      items
  in
  match shortest_first (if preferred = [] then items else preferred) with
  | it :: _ -> it
  | [] -> invalid_arg "workload_strategy: no informative item"

(* Journal codec: a walk is its endpoints and word; edge labels never contain
   spaces, so a space-separated line round-trips. *)
let encode_item (it : item) =
  Printf.sprintf "%d %d %s" it.src it.dst (String.concat " " it.word)

let decode_item s =
  match String.split_on_char ' ' s with
  | src :: dst :: (_ :: _ as word) -> (
      match (int_of_string_opt src, int_of_string_opt dst) with
      | Some src, Some dst -> Some { src; dst; word }
      | _ -> None)
  | _ -> None

(* Checkpoint codec: the state is the labeled word sets; the hypothesis is
   recomputed by ONE [Words.learn] call on decode — where a plain journal
   replay re-runs the learner once per recorded answer.  That single call is
   what makes resume-from-checkpoint an order of magnitude cheaper than
   replay for long path sessions. *)
let encode_state (st : Session.state) =
  let line sign w = sign ^ String.concat " " w in
  String.concat "\n"
    (("path1" :: List.map (line "+") st.Session.pos)
    @ List.map (line "-") st.Session.neg)

let decode_state s =
  match String.split_on_char '\n' s with
  | "path1" :: lines -> (
      let parse line =
        if String.length line < 2 then Error (Printf.sprintf "bad line %S" line)
        else
          let word =
            String.sub line 1 (String.length line - 1)
            |> String.split_on_char ' '
            |> List.filter (fun t -> t <> "")
          in
          if word = [] then Error (Printf.sprintf "empty word in %S" line)
          else
            match line.[0] with
            | '+' -> Ok (`Pos word)
            | '-' -> Ok (`Neg word)
            | _ -> Error (Printf.sprintf "bad label in %S" line)
      in
      let rec collect pos neg = function
        | [] ->
            (* [pos]/[neg] were accumulated reversed; restore the stored
               (newest-first) order before the single learn call. *)
            let pos = List.rev pos and neg = List.rev neg in
            Ok { Session.pos; neg; hyp = Words.learn ~pos ~neg }
        | line :: rest -> (
            match parse line with
            | Error _ as e -> e
            | Ok (`Pos w) -> collect (w :: pos) neg rest
            | Ok (`Neg w) -> collect pos (w :: neg) rest)
      in
      collect [] [] lines)
  | _ -> Error "not a path state snapshot"

let run_with_goal ?(rng = Core.Prng.create 0) ?strategy ?budget ?profile ?retry
    ?max_len ~graph ~goal () =
  let items = items_of_graph ?max_len ~rng graph in
  let oracle (it : item) = Automata.Dfa.accepts goal it.word in
  match profile with
  | None -> Loop.run ~rng ?strategy ?budget ~oracle ~items ()
  | Some profile ->
      Loop.run_flaky ~rng ?strategy ?budget ?retry
        ~oracle:(Core.Flaky.wrap ~profile ~rng oracle)
        ~items ()
