(* Workload cli-engines: one thread, closed loop, in process.

   A seeded list of simulated-user sessions runs through each engine's
   [Loop.run_flaky] — the entry point the learn-twig/learn-join/learn-path
   subcommands call — with the CLI's default strategy per engine, no
   journal and the default (sequential) pool.  The simulated user is
   reliable, so every learned query must agree with its goal on every item
   of its instance.

   The list is a number of rounds fixed by the run length.  Each round sets
   up fresh instances — one XMark document at scale 1 (generated and
   labeled), [per_round] join instances of 256x256 rows and [per_round]
   road networks of 512 cities — and then runs one twig session per goal in
   [twig_goals], one join session per instance (goal: its planted
   predicate) and one path session per network. *)

let now = Core.Monotonic.now
let twig_scale = 1.0
let join_rows = 256
let path_cities = 512
let per_round = 6
let round_seconds = 4.0

(* XPathMark-style twigs chosen to have answers in (nearly) every scale-1
   document: a goal with no answer is learned as "no query", which is
   correct but asks about every node and measures nothing else. *)
let twig_goals =
  [
    "//person/name";
    "//person[profile/@income]/name";
    "//item[location]/name";
    "//closed_auction/price";
    "//open_auction[bidder/personref]/current";
    "//category/name";
  ]

let path_goals = [ "highway highway*"; "highway*"; "road highway*" ]

let rounds ~seconds = max 1 (int_of_float (Float.round (seconds /. round_seconds)))

(* ------------------------------------------------------------------ *)
(* Instances                                                           *)
(* ------------------------------------------------------------------ *)

type join_inst = {
  j_left : Relational.Relation.t;
  j_right : Relational.Relation.t;
  j_goal : Joinlearn.Signature.mask;
  j_items : Joinlearn.Interactive.item list;
}

type path_inst = {
  p_goal : string;
  p_dfa : Automata.Dfa.t;
  p_items : Pathlearn.Interactive.item list;
}

type round = {
  doc : Xmltree.Tree.t;
  twig_items : Twiglearn.Interactive.item list;
  joins : join_inst list;
  paths : path_inst list;
}

type setup_times = {
  mutable xmark : float list;
  mutable label : float list;
  mutable relational : float list;
  mutable graphdb : float list;
  mutable total : float list;
}

let timed acc f =
  let t0 = now () in
  let x = f () in
  acc (now () -. t0);
  x

(* Instances come from a fixed pool per engine (the databases a user of
   the CLI learns over), as large as a run of [rounds] rounds uses: one
   document, or [per_round] join or path instances, per round.  The seed
   permutes each pool and round [r] takes the next instances in that order,
   so every run of a given length meets the same instances — and the same
   (network, goal) pairs, since a path instance's goal follows from its
   place in the pool — in a seeded order: its cost and its question total
   are comparable from seed to seed. *)
let pool_index ~seed ~rounds ~round ~kind ~i =
  let per = if kind = "twig" then 1 else per_round in
  let n = rounds * per in
  let perm = Array.init n Fun.id in
  let g = Core.Prng.create (Hashtbl.hash (seed, kind)) in
  for k = n - 1 downto 1 do
    let j = Core.Prng.int g (k + 1) in
    let t = perm.(k) in
    perm.(k) <- perm.(j);
    perm.(j) <- t
  done;
  perm.((round * per) + i)

let setup st ~seed ~rounds r =
  let index kind i = pool_index ~seed ~rounds ~round:r ~kind ~i in
  let instance_seed ~kind k = Hashtbl.hash (kind, k) in
  let t0 = now () in
  let doc =
    timed
      (fun d -> st.xmark <- d :: st.xmark)
      (fun () ->
        Benchkit.Xmark.generate ~scale:twig_scale
          ~seed:(instance_seed ~kind:"twig" (index "twig" 0))
          ())
  in
  ignore
    (timed
       (fun d -> st.label <- d :: st.label)
       (fun () -> Xmlstore.Store.of_tree doc));
  let twig_items = Twiglearn.Interactive.items_of_doc doc in
  let joins =
    List.init per_round (fun i ->
        let rng =
          Core.Prng.create (instance_seed ~kind:"join" (index "join" i))
        in
        let inst =
          timed
            (fun d -> st.relational <- d :: st.relational)
            (fun () ->
              Relational.Generator.pair_instance ~rng ~left_rows:join_rows
                ~right_rows:join_rows ())
        in
        let left = inst.Relational.Generator.left and right = inst.right in
        let space =
          Joinlearn.Signature.space
            ~left_arity:(Relational.Relation.arity left)
            ~right_arity:(Relational.Relation.arity right)
        in
        {
          j_left = left;
          j_right = right;
          j_goal = Joinlearn.Signature.of_predicate space inst.planted;
          j_items = Joinlearn.Interactive.items_of space left right;
        })
  in
  let paths =
    List.init per_round (fun i ->
        let k = index "path" i in
        let rng = Core.Prng.create (instance_seed ~kind:"path" k) in
        let g =
          timed
            (fun d -> st.graphdb <- d :: st.graphdb)
            (fun () -> Graphdb.Generators.geo ~rng ~cities:path_cities ())
        in
        let goal = List.nth path_goals (k mod List.length path_goals) in
        {
          p_goal = goal;
          p_dfa = Automata.Dfa.of_regex (Automata.Regex.parse goal);
          p_items = Pathlearn.Interactive.items_of_graph ~max_len:3 ~rng g;
        })
  in
  st.total <- (now () -. t0) :: st.total;
  { doc; twig_items; joins; paths }

(* ------------------------------------------------------------------ *)
(* Sessions                                                            *)
(* ------------------------------------------------------------------ *)

type session = {
  engine : string;
  label : string;  (** goal or instance, for the report *)
  wall_s : float;
  questions : int;
  pruned : int;
  create_ms : float;  (** run_flaky call to the first question *)
  waits_ms : float list;  (** each answer to the next question *)
  oracle_s : float;
  transcript : string list;  (** asked items, encoded, with labels *)
  agrees : bool;  (** learned query = goal on every item *)
}

(* The simulated user: a reliable oracle, instrumented from outside. *)
type probe = {
  mutable first : float;
  mutable last : float;
  mutable waits : float list;
  mutable in_oracle : float;
}

let instrument base =
  let p = { first = nan; last = nan; waits = []; in_oracle = 0. } in
  let oracle it =
    let t = now () in
    if Float.is_nan p.first then p.first <- t
    else p.waits <- ((t -. p.last) *. 1e3) :: p.waits;
    let r = base it in
    let t' = now () in
    p.in_oracle <- p.in_oracle +. (t' -. t);
    p.last <- t';
    Core.Flaky.Label r
  in
  (p, oracle)

let session ~engine ~label ~run ~base =
  let p, oracle = instrument base in
  let t0 = now () in
  let questions, pruned, finish = run oracle in
  let wall = now () -. t0 in
  (* Checking and encoding happen off the clock. *)
  let agrees, transcript = finish () in
  {
    engine;
    label;
    wall_s = wall;
    questions;
    pruned;
    create_ms = (if Float.is_nan p.first then wall else p.first -. t0) *. 1e3;
    waits_ms = p.waits;
    oracle_s = p.in_oracle;
    transcript;
    agrees;
  }

let encode_asked encode asked =
  List.map (fun (it, l) -> (if l then "+" else "-") ^ encode it) asked

module type TWIG =
  Core.Interact.SESSION
    with type item = Twiglearn.Interactive.item
     and type query = Twig.Query.t

module type JOIN =
  Core.Interact.SESSION
    with type item = Joinlearn.Interactive.item
     and type query = Joinlearn.Signature.mask
     and type state = Joinlearn.Interactive.Session.state

module type PATH =
  Core.Interact.SESSION
    with type item = Pathlearn.Interactive.item
     and type query = Pathlearn.Words.hypothesis

module Engines (T : TWIG) (J : JOIN) (P : PATH) = struct
  module TL = Core.Interact.Make (T)
  module JL = Core.Interact.Make (J)
  module PL = Core.Interact.Make (P)

  let twig rd goal_src =
    let goal = Twig.Parse.query goal_src in
    let base it = Twig.Eval.selects_example goal it in
    session ~engine:"twig" ~label:goal_src ~base ~run:(fun oracle ->
        let o = TL.run_flaky ~oracle ~items:rd.twig_items () in
        ( o.TL.questions,
          o.TL.pruned,
          fun () ->
            ( (match o.TL.query with
              | None -> not (List.exists base rd.twig_items)
              | Some q ->
                  List.for_all
                    (fun it -> Twig.Eval.selects_example q it = base it)
                    rd.twig_items),
              encode_asked Twiglearn.Interactive.encode_item o.TL.asked ) ))

  let join ji =
    let base (it : Joinlearn.Interactive.item) =
      Joinlearn.Signature.subset ji.j_goal it.mask
    in
    session ~engine:"join" ~label:"planted" ~base ~run:(fun oracle ->
        let o =
          JL.run_flaky ~strategy:Joinlearn.Interactive.lattice_strategy ~oracle
            ~items:ji.j_items ()
        in
        ( o.JL.questions,
          o.JL.pruned,
          fun () ->
            ( (match o.JL.query with
              | None -> not (List.exists base ji.j_items)
              | Some m ->
                  List.for_all
                    (fun (it : Joinlearn.Interactive.item) ->
                      Joinlearn.Signature.subset m it.mask = base it)
                    ji.j_items),
              encode_asked
                (Joinlearn.Interactive.encode_item ~left:ji.j_left
                   ~right:ji.j_right)
                o.JL.asked ) ))

  let path pi =
    let base (it : Pathlearn.Interactive.item) =
      Automata.Dfa.accepts pi.p_dfa it.word
    in
    session ~engine:"path" ~label:pi.p_goal ~base ~run:(fun oracle ->
        let o = PL.run_flaky ~oracle ~items:pi.p_items () in
        ( o.PL.questions,
          o.PL.pruned,
          fun () ->
            ( (match o.PL.query with
              | None -> not (List.exists base pi.p_items)
              | Some h ->
                  List.for_all
                    (fun (it : Pathlearn.Interactive.item) ->
                      Pathlearn.Words.selects h it.word = base it)
                    pi.p_items),
              encode_asked Pathlearn.Interactive.encode_item o.PL.asked ) ))

  let round rd =
    List.map (twig rd) twig_goals
    @ List.map join rd.joins
    @ List.map path rd.paths
end

module Plain =
  Engines (Twiglearn.Interactive.Session) (Joinlearn.Interactive.Session)
    (Pathlearn.Interactive.Session)

let twig_c = Timed.fresh ()
let join_c = Timed.fresh ()
let path_c = Timed.fresh ()

module Traced =
  Engines
    (Timed.Make
       (Twiglearn.Interactive.Session)
       (struct
         let c = twig_c
       end))
       (Timed.Make
          (Joinlearn.Interactive.Session)
          (struct
            let c = join_c
          end))
    (Timed.Make
       (Pathlearn.Interactive.Session)
       (struct
         let c = path_c
       end))

(* ------------------------------------------------------------------ *)
(* One pass                                                            *)
(* ------------------------------------------------------------------ *)

type pass = {
  sessions : session list;
  setup : setup_times;
  elapsed : float;
  gc_minor : int;
  gc_major : int;
  top_heap_mb : float;
}

let word_mb w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1048576.

let pass ~seed ~seconds ~traced =
  let st =
    { xmark = []; label = []; relational = []; graphdb = []; total = [] }
  in
  List.iter Timed.reset [ twig_c; join_c; path_c ];
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  let t0 = now () in
  let sessions =
    List.concat
      (List.init (rounds ~seconds) (fun r ->
           let rd = setup st ~seed ~rounds:(rounds ~seconds) r in
           if traced then Traced.round rd else Plain.round rd))
  in
  let elapsed = now () -. t0 in
  let g1 = Gc.quick_stat () in
  {
    sessions;
    setup = st;
    elapsed;
    gc_minor = g1.Gc.minor_collections - g0.Gc.minor_collections;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    top_heap_mb = word_mb g1.Gc.top_heap_words;
  }

(* Repeatability: the first session of each engine runs again on a fresh
   setup of round 0 and must ask the same questions in the same order. *)
let repeat_check ~seed ~seconds (p : pass) =
  let st =
    { xmark = []; label = []; relational = []; graphdb = []; total = [] }
  in
  let rd = setup st ~seed ~rounds:(rounds ~seconds) 0 in
  let again =
    [
      Plain.twig rd (List.hd twig_goals);
      Plain.join (List.hd rd.joins);
      Plain.path (List.hd rd.paths);
    ]
  in
  List.for_all
    (fun (a : session) ->
      match List.find_opt (fun (s : session) -> s.engine = a.engine) p.sessions with
      | Some s -> s.questions = a.questions && s.transcript = a.transcript
      | None -> false)
    again

let ms s = s *. 1e3

let by_engine e (p : pass) = List.filter (fun s -> s.engine = e) p.sessions

let vm_hwm_mb () =
  match Proc.status_kb "self" "VmHWM" with Some kb -> kb /. 1024. | None -> nan

let end_to_end (p : pass) =
  let med e = Stats.median (List.map (fun s -> s.wall_s) (by_engine e p)) in
  let waits = List.concat_map (fun s -> s.waits_ms) p.sessions in
  let creates = List.map (fun s -> s.create_ms) p.sessions in
  let questions = List.fold_left (fun n s -> n + s.questions) 0 p.sessions in
  let busy = Stats.sum (List.map (fun s -> s.wall_s) p.sessions) in
  Out.
    [
      m "setup_s" "s" (Stats.median p.setup.total);
      m "twig_session_s" "s" (med "twig");
      m "join_session_s" "s" (med "join");
      m "path_session_s" "s" (med "path");
      count "questions" questions;
      m "wait_ms_p50" "ms" (Stats.median waits);
      m "wait_ms_tail" "ms" (Stats.tail waits);
      m "answer_ms_p50" "ms" (Stats.median waits);
      m "answer_ms_tail" "ms" (Stats.tail waits);
      m "create_ms_p50" "ms" (Stats.median creates);
      m "create_ms_tail" "ms" (Stats.tail creates);
      m "knee_sessions_per_s" "1/s"
        (float_of_int (List.length p.sessions) /. busy);
      m "peak_rss_mb" "MB" (vm_hwm_mb ());
    ]

let layer_prefix name c sessions =
  Timed.metrics name c
    ~pruned:(List.fold_left (fun n s -> n + s.pruned) 0 sessions)
    ~asked:(List.fold_left (fun n s -> n + s.questions) 0 sessions)

let per_layer (p : pass) =
  let calls =
    Stats.sum (List.map Timed.session_calls_s [ twig_c; join_c; path_c ])
  in
  let wall = Stats.sum (List.map (fun s -> s.wall_s) p.sessions) in
  let oracle = Stats.sum (List.map (fun s -> s.oracle_s) p.sessions) in
  let med_ms xs = ms (Stats.median xs) in
  layer_prefix "twiglearn" twig_c (by_engine "twig" p)
  @ layer_prefix "joinlearn" join_c (by_engine "join" p)
  @ layer_prefix "pathlearn" path_c (by_engine "path" p)
  @ Out.
      [
        m "interact.self_ms" "ms" (ms (wall -. calls -. oracle));
        m "benchkit.xmark_ms" "ms" (med_ms p.setup.xmark);
        m "xmlstore.label_ms" "ms" (med_ms p.setup.label);
        m "relational.gen_ms" "ms" (med_ms p.setup.relational);
        m "graphdb.gen_ms" "ms" (med_ms p.setup.graphdb);
        count "gc.minor_collections" p.gc_minor;
        count "gc.major_collections" p.gc_major;
        m "gc.top_heap_mb" "MB" p.top_heap_mb;
      ]

let report (p : pass) =
  List.iter
    (fun e ->
      let ss = by_engine e p in
      Out.log "  %-5s sessions=%d questions=%d median=%.4fs max=%.4fs" e
        (List.length ss)
        (List.fold_left (fun n s -> n + s.questions) 0 ss)
        (Stats.median (List.map (fun s -> s.wall_s) ss))
        (List.fold_left (fun m s -> Float.max m s.wall_s) 0. ss))
    [ "twig"; "join"; "path" ];
  let waits = List.concat_map (fun s -> s.waits_ms) p.sessions in
  Out.log "  waits: n=%d tail level=%.4f (%d samples beyond)"
    (List.length waits)
    (Stats.tail_level (List.length waits))
    Stats.beyond

let questions_digest (p : pass) =
  Digest.to_hex
    (Digest.string
       (String.concat ","
          (List.map (fun s -> string_of_int s.questions) p.sessions)))
