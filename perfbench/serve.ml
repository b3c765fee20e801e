(* Workloads serve-mix and serve-evict: open-loop session traffic against
   the real `learnq serve` binary.

   Sessions arrive as a seeded Poisson process ({!Sched}); each session
   creates itself, then answers every question it is asked, each answer due
   a seeded think time after the previous response.  One generator process
   drives the server over two keep-alive connections with two threads
   ({!Gen}).  The simulated user is a reply script that refuses, times out
   and flips a workload's share of replies, keyed by the session's script
   seed and the question — the same question always gets the same reply,
   so an in-process replay can reproduce the session.

   A run is a steady phase at a nominal rate below the knee, then an
   ascending ladder of rates.  End-to-end latencies come from the steady
   phase; the knee from the ladder. *)

module Json = Server.Json
module Engines = Server.Engines

(* Both workloads: session i runs engines.(i mod 3) on an instance of these
   sizes; answers are due an exponential think time (mean [think_mean]
   seconds) after the previous response; the steady phase takes
   [steady_share] of the run, the ladder the rest. *)
let engines = [| "twig"; "join"; "path" |]
let scale = 0.03
let rows = 5
let cities = 6
let think_mean = 0.02
let steady_share = 0.7

type config = {
  name : string;
  steady_rate : float;  (** sessions/s *)
  ladder : float list;  (** rung rates, sessions/s *)
  tail_limit_ms : float;  (** the knee's limit on a rung's p90 latency *)
  flags : string list;  (** server flags beyond port/state dir *)
  twig_goal : string;
  twig_answers : int;  (** a twig user leaves after this many; 0 = never *)
  faults : int * int * int;  (** refused, timed out, flipped; per mille *)
}

let mix =
  {
    name = "serve-mix";
    steady_rate = 3.0;
    ladder = [ 8.; 13.; 18. ];
    tail_limit_ms = 150.;
    flags = [];
    twig_goal = "//person/name";
    twig_answers = 0;
    faults = (30, 15, 20);
  }

let evict =
  {
    name = "serve-evict";
    steady_rate = 10.0;
    ladder = [ 25.; 35.; 45. ];
    tail_limit_ms = 30.;
    flags = [ "--max-live-sessions"; "2"; "--checkpoint-every"; "3" ];
    (* Closed-auction annotations come last in document order, so the first
       positive answer — and the determined scan it triggers — lands when
       little of the pool is left open: twig compute stays small. *)
    twig_goal = "//closed_auction/annotation";
    (* ... and leave after 24 answers (then delete the session): a twig
       session is then as short as a path session, and its steps are mostly
       evictions and resumes. *)
    twig_answers = 24;
    (* A resume puts refused and timed-out questions back in the pool, so
       with refusals a session's transcript would depend on when it was
       evicted.  These users always answer, and answer right, so a resumed
       session must match an uninterrupted one exactly. *)
    faults = (0, 0, 0);
  }

let config = function "serve-evict" -> evict | _ -> mix

let phases cfg ~seconds =
  let steady = seconds *. steady_share in
  let rung = (seconds -. steady) /. float_of_int (List.length cfg.ladder) in
  { Sched.label = "steady"; rate = cfg.steady_rate; duration = steady }
  :: List.map
       (fun r -> { Sched.label = Printf.sprintf "rung %g/s" r; rate = r; duration = rung })
       cfg.ladder

(* ------------------------------------------------------------------ *)
(* Sessions and the simulated user                                     *)
(* ------------------------------------------------------------------ *)

type sess = {
  idx : int;
  faults : int * int * int;
  max_answers : int;  (** 0 = answer until done *)
  id : string;
  phase : int;  (** phase of its arrival *)
  spec : Engines.spec;
  script : int;  (** reply-script seed *)
  truth : string -> bool;
  mutable steps : int;
  mutable transcript : (int * string * Core.Flaky.reply) list;  (** newest first *)
  mutable final : (string option * int) option;  (** query, questions *)
}

type job = Create of sess | Answer of sess * int * string | Delete of sess

let goal_of cfg = function
  | "twig" -> cfg.twig_goal
  | "join" -> "planted"
  | _ -> "highway*"

(* The same question always gets the same reply within a session. *)
let reply_for s key =
  let refusal, timeout, noise = s.faults in
  let g = Core.Prng.create (s.script lxor Hashtbl.hash key) in
  let roll = Core.Prng.int g 1000 in
  if roll < refusal then Core.Flaky.Refused
  else if roll < refusal + timeout then Core.Flaky.Timed_out
  else
    let label = s.truth key in
    Core.Flaky.Label (if Core.Prng.int g 1000 < noise then not label else label)

(* Sessions are a fixed population of users per engine: [instances]
   instances — the databases the server is deployed on — each with
   [scripts] reply scripts, taken in turn from a seeded starting point.
   Every run spreads its sessions evenly over the same population (a
   20-second run has 40 sessions per engine, so it meets each user once);
   the seed changes which session is which user, the arrivals and the think
   times.  The cost of the traffic, and the question total, are then
   comparable from seed to seed: a flipped or refused reply can cost a twig
   session dozens of questions, and drawing fresh scripts per session moved
   the question total by a tenth between seeds. *)
let instances = 4
let scripts = 10

let sessions cfg ~seed arrivals =
  let n = Array.length engines in
  let users = instances * scripts in
  let g = Core.Prng.create (Hashtbl.hash (seed, "instances")) in
  let start = Array.init n (fun _ -> Core.Prng.int g users) in
  List.map
    (fun (a : Sched.arrival) ->
      let i = a.a_index in
      let engine = engines.(i mod n) in
      let user = (start.(i mod n) + (i / n)) mod users in
      let spec =
        {
          Engines.engine;
          seed = Hashtbl.hash (engine, user mod instances);
          scale;
          rows;
          cities;
        }
      in
      let truth =
        match Engines.oracle spec ~goal:(goal_of cfg engine) with
        | Ok f -> f
        | Error e -> failwith ("perfbench: bad goal: " ^ Core.Error.to_string e)
      in
      {
        idx = i;
        faults = cfg.faults;
        max_answers = (if engine = "twig" then cfg.twig_answers else 0);
        id = Printf.sprintf "s%d-%05d" (abs seed mod 100000) i;
        phase = a.a_phase;
        spec;
        script = Hashtbl.hash (engine, user, "script");
        truth;
        steps = 0;
        transcript = [];
        final = None;
      })
    arrivals

let json_of_reply = function
  | Core.Flaky.Label b -> Json.Bool b
  | Core.Flaky.Refused -> Json.Str "refused"
  | Core.Flaky.Timed_out -> Json.Str "timed_out"

let route = function
  | Create _ -> "create"
  | Answer _ -> "answer"
  | Delete _ -> "delete"

let session_of = function Create s | Answer (s, _, _) | Delete s -> s

(* Sessions spread over [tenants] tenants, each within the server's default
   per-tenant quota of live sessions; a finished session deletes itself, as
   a well-behaved client does. *)
let tenants = 8
let tenant s = Printf.sprintf "t%d" (s.idx mod tenants)

let step ~seed conn trace job =
  let s = session_of job in
  let headers = if trace = "" then [] else [ ("X-Learnq-Trace", trace) ] in
  let result =
    match job with
    | Create s ->
        let fields =
          match Engines.json_of_spec s.spec with Json.Obj f -> f | _ -> []
        in
        Server.Client.request conn ~meth:"POST" ~path:"/v1/sessions"
          ~tenant:(tenant s) ~headers
          ~body:(Json.Obj (("id", Json.Str s.id) :: fields))
          ()
    | Answer (s, qid, key) ->
        let reply = reply_for s key in
        s.transcript <- (qid, key, reply) :: s.transcript;
        Server.Client.request conn ~meth:"POST"
          ~path:("/v1/sessions/" ^ s.id ^ "/answers")
          ~tenant:(tenant s) ~headers
          ~body:
            (Json.Obj [ ("qid", Json.of_int qid); ("reply", json_of_reply reply) ])
          ()
    | Delete s ->
        Server.Client.request conn ~meth:"DELETE" ~path:("/v1/sessions/" ^ s.id)
          ~tenant:(tenant s) ~headers ()
  in
  s.steps <- s.steps + 1;
  match result with
  | Error e -> Gen.Failed ("transport: " ^ e)
  | Ok (status, _) when status < 200 || status > 299 ->
      Gen.Failed (Printf.sprintf "HTTP %d on %s" status (route job))
  | Ok _ when route job = "delete" -> Gen.Finished
  | Ok (_, j) -> (
      let done_ = Json.get_bool "done" j = Some true in
      (* A resumed session counts the labels it replayed apart from the
         questions asked since. *)
      let questions =
        Option.value ~default:0 (Json.get_int "questions" j)
        + Option.value ~default:0 (Json.get_int "replayed" j)
      in
      let left =
        s.max_answers > 0 && List.length s.transcript >= s.max_answers
      in
      if done_ || left then begin
        s.final <- Some (Json.get_str "query" j, questions);
        Gen.Continue { think = 0.; next = Delete s }
      end
      else
        match (Json.get_int "qid" j, Json.get_str "question" j) with
        | Some qid, Some key ->
            Gen.Continue
              {
                think = Sched.think ~seed ~think_mean ~session:s.idx ~step:s.steps;
                next = Answer (s, qid, key);
              }
        | _ -> Gen.Failed "open session without a question")

(* ------------------------------------------------------------------ *)
(* In-process replay: resumed / evicted sessions must equal an          *)
(* uninterrupted run of the same spec and reply script                  *)
(* ------------------------------------------------------------------ *)

let replay_with make s =
  match make s.spec with
  | Error e -> Error (Core.Error.to_string e)
  | Ok (st : Server.Stepper.t) ->
      let rec go acc n =
        let v = st.view () in
        if v.done_ || (s.max_answers > 0 && n >= s.max_answers) then
          Ok (v.query, v.questions, v.pruned, List.rev acc)
        else
          match v.question with
          | None -> Ok (v.query, v.questions, v.pruned, List.rev acc)
          | Some key -> (
              let r = reply_for s key in
              match st.answer ~qid:v.qid r with
              | Ok _ -> go ((v.qid, key, r) :: acc) (n + 1)
              | Error e -> Error (Core.Error.to_string e))
      in
      let r = go [] 0 in
      st.close ();
      r

let matches s = function
  | Error _ -> false
  | Ok (query, questions, _, transcript) -> (
      match s.final with
      | None -> false
      | Some (q, n) -> q = query && n = questions && transcript = List.rev s.transcript)

(* Replay through [Engines.make], the daemon's own constructor, one
   session at a time on one domain, timed: the wall time is the engine
   compute the session cost the server, without HTTP, journal or queueing.
   Returns the mismatched sessions and (engine, seconds) per session. *)
let replay_all ss =
  (* Engine by engine, each group after a full major collection, so a
     small join session is not charged for collecting a twig session's
     garbage. *)
  let results =
    List.concat_map
      (fun engine ->
        Gc.full_major ();
        List.filter_map
          (fun s ->
            if s.spec.Engines.engine <> engine then None
            else begin
              let t0 = Core.Monotonic.now () in
              let ok = matches s (replay_with (fun spec -> Engines.make spec) s) in
              Some (s, ok, Core.Monotonic.now () -. t0)
            end)
          ss)
      [ "twig"; "join"; "path" ]
  in
  ( List.filter_map (fun (s, ok, _) -> if ok then None else Some s) results,
    List.map (fun (s, _, t) -> (s.spec.Engines.engine, t)) results )

(* Traced replay: the same construction as [Engines.make] with each
   engine's session wrapped in {!Timed}, one domain (the counters are
   plain mutable fields). *)
let twig_c = Timed.fresh ()
let join_c = Timed.fresh ()
let path_c = Timed.fresh ()

module TS =
  Server.Stepper.Make
    (Timed.Make
       (Twiglearn.Interactive.Session)
       (struct
         let c = twig_c
       end))

module JS =
  Server.Stepper.Make
    (Timed.Make
       (Joinlearn.Interactive.Session)
       (struct
         let c = join_c
       end))

module PS =
  Server.Stepper.Make
    (Timed.Make
       (Pathlearn.Interactive.Session)
       (struct
         let c = path_c
       end))

let timed_make (spec : Engines.spec) =
  match spec.engine with
  | "twig" ->
      let doc = Benchkit.Xmark.generate ~scale:spec.scale ~seed:spec.seed () in
      TS.make ~engine:"twig" ~encode:Twiglearn.Interactive.encode_item
        ~decode:(Twiglearn.Interactive.decode_item ~doc)
        ~items:(Twiglearn.Interactive.items_of_doc doc)
        ()
  | "join" ->
      let inst =
        Relational.Generator.pair_instance
          ~rng:(Core.Prng.create spec.seed)
          ~left_rows:spec.rows ~right_rows:spec.rows ()
      in
      let left = inst.Relational.Generator.left and right = inst.right in
      let space =
        Joinlearn.Signature.space
          ~left_arity:(Relational.Relation.arity left)
          ~right_arity:(Relational.Relation.arity right)
      in
      JS.make ~engine:"join"
        ~encode:(Joinlearn.Interactive.encode_item ~left ~right)
        ~decode:(Joinlearn.Interactive.decode_item ~left ~right)
        ~items:(Joinlearn.Interactive.items_of space left right)
        ()
  | _ ->
      let g =
        Graphdb.Generators.geo ~rng:(Core.Prng.create spec.seed)
          ~cities:spec.cities ()
      in
      PS.make ~engine:"path" ~encode:Pathlearn.Interactive.encode_item
        ~decode:Pathlearn.Interactive.decode_item
        ~items:
          (Pathlearn.Interactive.items_of_graph ~max_len:3
             ~rng:(Core.Prng.create (spec.seed + 1))
             g)
        ()

(* Returns the mismatched sessions and, per session, (engine, pruned,
   questions) for the prune ratios. *)
let replay_timed ss =
  List.iter Timed.reset [ twig_c; join_c; path_c ];
  let results = List.map (fun s -> (s, replay_with timed_make s)) ss in
  ( List.filter_map (fun (s, r) -> if matches s r then None else Some s) results,
    List.filter_map
      (fun (s, r) ->
        match r with
        | Ok (_, q, pruned, _) -> Some (s.spec.Engines.engine, pruned, q)
        | Error _ -> None)
      results )
