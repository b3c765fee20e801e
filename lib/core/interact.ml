module type SESSION = sig
  type query
  type item
  type state

  val init : item list -> state
  val record : state -> item -> bool -> state
  val determined : state -> item -> bool option
  val candidate : state -> query option
  val pp_item : Format.formatter -> item -> unit
  val pp_query : Format.formatter -> query -> unit
end

type ('state, 'item) strategy = Prng.t -> 'state -> 'item list -> 'item

(* Telemetry: the paper's headline efficiency measure is the question count,
   so the interaction loop is the most-instrumented spot in the repo.  The
   question counter must agree exactly with [outcome.questions] — it is
   incremented right after the stepper folds a label in. *)
let m_questions = Telemetry.Metrics.counter "learnq.interact.questions"
let m_replayed = Telemetry.Metrics.counter "learnq.interact.replayed"
let m_pruned = Telemetry.Metrics.counter "learnq.interact.pruned"
let m_refused = Telemetry.Metrics.counter "learnq.interact.refused"
let m_retried = Telemetry.Metrics.counter "learnq.interact.retried"
let m_degraded = Telemetry.Metrics.counter "learnq.interact.degraded"
let m_ask_s = Telemetry.Metrics.histogram "learnq.interact.ask_s"
let m_parallel_scans = Telemetry.Metrics.counter "learnq.interact.parallel_scans"
let m_scan_s = Telemetry.Metrics.histogram "learnq.interact.scan_s"

let first_strategy _rng _st = function
  | [] -> invalid_arg "Interact.first_strategy: no informative item"
  | item :: _ -> item

let random_strategy rng _st items = Prng.pick rng items

exception Replay_failed of Error.t

module Stepper = struct
  type view = {
    engine : string;
    done_ : bool;
    degraded : bool;
    qid : int;
    question : string option;
    question_text : string option;
    questions : int;
    replayed : int;
    pruned : int;
    refused : int;
    query : string option;
  }

  type peeked = {
    p_engine : string;
    p_done : bool;
    p_degraded : bool;
    p_qid : int;
    p_open : bool;
    p_questions : int;
    p_replayed : int;
    p_pruned : int;
    p_refused : int;
  }

  type t = {
    view : unit -> view;
    peek : unit -> peeked;
    answer : qid:int -> Flaky.reply -> (view, Error.t) result;
    checkpoint : unit -> (unit, Error.t) result;
    flush : unit -> unit;
    close : unit -> unit;
    abort : unit -> unit;
  }

  module Make (S : SESSION) = struct
    type session = {
      engine : string;
      journal : (Journal.t * (S.item -> string)) option;
      step_budget : unit -> Budget.t;
      strategy : (S.state, S.item) strategy;
      rng : Prng.t;
      pool : Pool.t option;  (** parallel determined scan; [None] = inline *)
      snapshot : (S.state -> string) option;
      checkpoint_every : int;  (** 0 = never automatically *)
      answered : (string, unit) Hashtbl.t;  (** labeled item keys *)
      mutable answered_rev : string list;  (** same keys, newest first *)
      mutable since_ck : int;  (** labels since the last checkpoint *)
      mutable st : S.state;
      mutable remaining : S.item list;  (** unasked items, original order *)
      mutable current : (int * S.item) option;
      mutable qid : int;  (** count of Asked records ever (incl. replayed) *)
      mutable asked : (S.item * bool) list;  (** labels folded, newest first *)
      mutable questions : int;
      mutable replayed : int;
      mutable pruned : int;
      mutable refused : int;
      mutable done_ : bool;
      mutable degraded : bool;
    }

    let jappend s ev =
      match s.journal with
      | None -> ()
      | Some (j, encode) -> Journal.append j (ev encode)

    let add_key s key =
      if not (Hashtbl.mem s.answered key) then begin
        Hashtbl.replace s.answered key ();
        s.answered_rev <- key :: s.answered_rev
      end

    (* Split the pool into items whose label is already forced
       (uninformative — pruned without asking) and genuinely open ones.
       Determination checks dominate the session cost, so the step budget is
       spent here; exhaustion is terminal degradation: the candidate so far
       stands, and no [Completed] record is written, so the journal stays
       resumable under a bigger budget.

       With a pool of size > 1 the probes run on worker domains.  The whole
       round's ticks are charged up front on the calling domain ([Budget] is
       not shared across domains); a round that would have exhausted the
       budget midway therefore trips it slightly earlier than the sequential
       scan — both end the session at the same question, with the same
       candidate.  Results land in input-order slots ({!Pool.map_array}), so
       the open list — hence the question sequence and the journal bytes —
       is identical at every pool size. *)
    let partition s b =
      match s.pool with
      | Some pool when Pool.size pool > 1 ->
          let arr = Array.of_list s.remaining in
          Budget.tick ~cost:(Array.length arr) b;
          let t0 = if Telemetry.enabled () then Monotonic.now () else 0. in
          let is_open =
            Pool.map_array pool (fun it -> S.determined s.st it = None) arr
          in
          if Telemetry.enabled () then begin
            Telemetry.Metrics.incr m_parallel_scans;
            Telemetry.Metrics.observe m_scan_s (Monotonic.now () -. t0)
          end;
          let opens = ref [] and closed = ref 0 in
          for i = Array.length arr - 1 downto 0 do
            if is_open.(i) then opens := arr.(i) :: !opens else incr closed
          done;
          (!opens, !closed)
      | _ ->
          let opens, closed =
            List.partition
              (fun it ->
                Budget.tick b;
                S.determined s.st it = None)
              s.remaining
          in
          (opens, List.length closed)

    (* Budget exhaustion ends a session degraded; [Budget] itself stays
       quiet, since most trips (fuzz oracles, containment checks) are
       expected and handled. *)
    let warn_exhausted s b =
      Telemetry.Log.warn
        ~kv:
          [
            ("qid", string_of_int s.qid);
            ("fuel_spent", string_of_int (Budget.stats b).fuel_spent);
          ]
        "session budget exhausted"

    let prune s =
      if not (s.done_ || s.current <> None) then begin
        let b = s.step_budget () in
        match partition s b with
        | exception Budget.Out_of_budget ->
            warn_exhausted s b;
            s.done_ <- true;
            s.degraded <- true
        | opens, determined ->
            s.pruned <- s.pruned + determined;
            s.remaining <- opens;
            if opens = [] then begin
              jappend s (fun _ -> Journal.Completed);
              Option.iter (fun (j, _) -> Journal.flush j) s.journal;
              s.done_ <- true
            end
      end

    (* Flight-recorder stamps of the ask and the answer; the detail string
       is only built while the recorder runs. *)
    let record_event s name =
      if Obs.Recorder.is_recording () then
        Obs.Recorder.record
          ~detail:(Printf.sprintf "%s qid=%d" s.engine s.qid)
          name

    (* Pose the next question: pick an informative item with the strategy
       and journal the ask before it is exposed.  When storage refuses the
       record the question rolls back whole (item still pooled, qid
       unbumped), so a later advance re-derives the same question instead
       of wedging the session. *)
    let pose s =
      match s.current with
      | Some (_, item) -> item
      | None ->
          let item = s.strategy s.rng s.st s.remaining in
          s.qid <- s.qid + 1;
          (try jappend s (fun encode -> Journal.Asked (encode item))
           with e ->
             s.qid <- s.qid - 1;
             raise e);
          s.remaining <- List.filter (fun it -> it != item) s.remaining;
          s.current <- Some (s.qid, item);
          record_event s "session.asked";
          item

    (* Prune, then pose the next question unless the pool ran dry. *)
    let advance s =
      prune s;
      if not (s.done_ || s.current <> None) then ignore (pose s)

    (* Snapshot the accumulator and atomically compact the journal down to
       header + checkpoint.  Callable at any point — including with a
       question in flight: the open [Asked] would be erased by compaction,
       so it is excluded from [ck_qid] and re-appended afterwards, keeping
       the resumed qid sequence identical to the uninterrupted one.  (Should
       that re-append fail, resume still re-derives the same question
       deterministically from the pool — it just re-journals the ask.)  On
       failure the old journal and the live session are untouched. *)
    let take_checkpoint s =
      match (s.journal, s.snapshot) with
      | Some (j, encode), Some snap -> (
          let open_key = Option.map (fun (_, it) -> encode it) s.current in
          let ck =
            {
              Journal.ck_qid = (s.qid - if open_key = None then 0 else 1);
              ck_questions = s.questions + s.replayed;
              ck_pruned = s.pruned;
              ck_refused = s.refused;
              ck_answered = List.rev s.answered_rev;
              ck_state = snap s.st;
            }
          in
          match Journal.compact j ck with
          | Error _ as e -> e
          | Ok () -> (
              s.since_ck <- 0;
              match open_key with
              | None -> Ok ()
              | Some key -> (
                  try
                    Journal.append j (Journal.Asked key);
                    Ok ()
                  with Journal.Io e -> Error e)))
      | _ -> Ok () (* no journal or no state codec: nothing to compact *)

    (* Fold the reply to the open question in: journal it write-ahead, record
       a label (a refusal sets the item aside for this run — a resume puts
       it back in the pool), and take the periodic checkpoint the label
       crossed.  Storage failures raise [Journal.Io]; the reply is journaled
       and applied before a failing compaction is reported, so a client's
       retry is an idempotent no-op. *)
    let reply s r =
      match s.current with
      | None -> invalid_arg "Interact.Stepper.reply: no open question"
      | Some (_, item) ->
          jappend s (fun encode -> Journal.Answered (encode item, r));
          record_event s "session.answered";
          (match r with
          | Flaky.Label label ->
              s.st <- S.record s.st item label;
              s.asked <- (item, label) :: s.asked;
              s.questions <- s.questions + 1;
              Option.iter (fun (_, encode) -> add_key s (encode item)) s.journal;
              s.since_ck <- s.since_ck + 1
          | Flaky.Refused | Flaky.Timed_out -> s.refused <- s.refused + 1);
          s.current <- None;
          if s.checkpoint_every > 0 && s.since_ck >= s.checkpoint_every then
            match take_checkpoint s with
            | Ok () -> ()
            | Error e -> raise (Journal.Io e)

    (* Restore-then-replay: the last checkpoint (if any) replaces replaying
       from record zero — the engine decodes its state snapshot, counters
       and answered keys come back verbatim — and only the events after it
       are folded: labeled answers rebuild the state (duplicates are
       idempotent no-ops on their codec strings), refused/timed-out items
       stay in the pool, and a trailing [Asked] with no [Answered] is the
       open question, re-posed under its qid without re-journaling.
       [pruned]/[refused] restart at zero: the next prune re-derives pruned
       from the remaining pool (determination is monotone, so the recount
       equals the uninterrupted cumulative count), and refused items are
       back in the pool awaiting another chance. *)
    let start ?journal ?resume ?restore ?(step_budget = Budget.unlimited)
        ?(strategy = first_strategy) ?(rng = Prng.create 0) ?pool
        ?(checkpoint_every = 0) ?snapshot ?(engine = "") ~items () =
      let s =
        {
          engine;
          journal;
          step_budget;
          strategy;
          rng;
          pool;
          snapshot;
          checkpoint_every;
          answered = Hashtbl.create 64;
          answered_rev = [];
          since_ck = 0;
          st = S.init items;
          remaining = items;
          current = None;
          qid = 0;
          asked = [];
          questions = 0;
          replayed = 0;
          pruned = 0;
          refused = 0;
          done_ = false;
          degraded = false;
        }
      in
      let events, decode =
        match resume with
        | Some (events, decode) -> (events, decode)
        | None -> ([], fun _ -> None)
      in
      let bad what msg = Error (Error.invalid_input ~what msg) in
      let decode_or_fail key =
        match decode key with
        | Some it -> Ok it
        | None ->
            bad "journal"
              (Printf.sprintf
                 "undecodable replay item %S for engine %s; the journal was \
                  recorded over different data"
                 key engine)
      in
      let ck, tail = Journal.split_checkpoint events in
      let restored =
        match (ck, restore) with
        | None, _ -> Ok ()
        | Some _, None ->
            bad "journal"
              (Printf.sprintf
                 "journal has a checkpoint but engine %s provides no state \
                  decoder"
                 engine)
        | Some c, Some restore_state -> (
            match restore_state c.Journal.ck_state with
            | Error msg -> bad "journal" ("undecodable checkpoint state: " ^ msg)
            | Ok st ->
                s.st <- st;
                s.qid <- c.Journal.ck_qid;
                s.replayed <- c.Journal.ck_questions;
                List.iter (add_key s) c.Journal.ck_answered;
                Ok ())
      in
      let rec replay pending = function
        | [] -> Ok pending
        | Journal.Asked key :: rest ->
            s.qid <- s.qid + 1;
            replay (Some key) rest
        | Journal.Answered (_, (Flaky.Refused | Flaky.Timed_out)) :: rest
        | Journal.Checkpoint _ :: rest ->
            (* A checkpoint cannot follow the split above. *)
            replay None rest
        | Journal.Answered (key, Flaky.Label _) :: rest
          when Hashtbl.mem s.answered key ->
            replay None rest
        | Journal.Answered (key, Flaky.Label label) :: rest -> (
            match decode_or_fail key with
            | Error _ as e -> e
            | Ok it ->
                add_key s key;
                s.st <- S.record s.st it label;
                s.asked <- (it, label) :: s.asked;
                s.replayed <- s.replayed + 1;
                replay None rest)
        | Journal.Completed :: rest ->
            s.done_ <- true;
            replay None rest
      in
      let ( let* ) = Result.bind in
      let* () = restored in
      let* pending = replay None tail in
      let* reopened =
        match pending with
        | Some key when not s.done_ ->
            Result.map (fun it -> Some (key, it)) (decode_or_fail key)
        | _ -> Ok None
      in
      (* Never ask an already-answered question twice: drop replayed items
         from the pool outright rather than trusting [determined] to prune
         them.  A trailing [Asked] is the question the crash left open: it is
         re-posed under its original qid, and its [Asked] record is already
         on disk — appending another would double-count.  The journal codec
         defines item identity; a replay without a journal matches decoded
         items structurally. *)
      let open_key = Option.map fst reopened in
      let dropped = Option.to_list open_key @ s.answered_rev in
      if dropped <> [] then begin
        let is_dropped =
          match journal with
          | Some (_, encode) ->
              fun it ->
                let k = encode it in
                Hashtbl.mem s.answered k || open_key = Some k
          | None ->
              let seen = Hashtbl.create (List.length dropped) in
              List.iter
                (fun k -> Option.iter (fun it -> Hashtbl.replace seen it ()) (decode k))
                dropped;
              Hashtbl.mem seen
        in
        s.remaining <- List.filter (fun it -> not (is_dropped it)) items
      end;
      s.current <- Option.map (fun (_, it) -> (s.qid, it)) reopened;
      Ok s

    let view_of s ~encode =
      {
        engine = s.engine;
        done_ = s.done_;
        degraded = s.degraded;
        qid = s.qid;
        question = Option.map (fun (_, it) -> encode it) s.current;
        question_text =
          Option.map (fun (_, it) -> Format.asprintf "%a" S.pp_item it) s.current;
        questions = s.questions;
        replayed = s.replayed;
        pruned = s.pruned;
        refused = s.refused;
        query = Option.map (Format.asprintf "%a" S.pp_query) (S.candidate s.st);
      }

    (* Counter-only snapshot for the introspection endpoints: no journal
       touch, no self-heal advance, no candidate rendering — safe to call
       from the accept loop while the dispatcher owns the session, at the
       price of weak consistency (plain reads of mutable scalars). *)
    let peek s =
      {
        p_engine = s.engine;
        p_done = s.done_;
        p_degraded = s.degraded;
        p_qid = s.qid;
        p_open = s.current <> None;
        p_questions = s.questions;
        p_replayed = s.replayed;
        p_pruned = s.pruned;
        p_refused = s.refused;
      }

    let answer s ~encode ~qid r =
      match s.current with
      | Some (cq, _) when qid = cq -> (
          try
            reply s r;
            advance s;
            Ok (view_of s ~encode)
          with Journal.Io e -> Error e)
      | Some (cq, _) when qid < cq -> Ok (view_of s ~encode) (* duplicate: no-op *)
      | None when qid <= s.qid -> Ok (view_of s ~encode) (* late duplicate *)
      | _ ->
          Error
            (Error.invalid_input ~what:"qid"
               (Printf.sprintf
                  "answer for question %d but only %d have been asked" qid s.qid))

    let make ?journal ?resume ?step_budget ?checkpoint_every ?snapshot
        ?restore ~engine ~encode ~decode ~items () =
      match
        start
          ?journal:(Option.map (fun j -> (j, encode)) journal)
          ?resume:(Option.map (fun events -> (events, decode)) resume)
          ?restore ?step_budget ?checkpoint_every ?snapshot ~engine ~items ()
      with
      | Error _ as e -> e
      | Ok s -> (
          match advance s with
          | exception Journal.Io e -> Error e
          | () ->
              let on_journal f =
                match journal with
                | None -> ()
                | Some j -> ( try f j with Journal.Io _ -> ())
              in
              Ok
                {
                  view =
                    (fun () ->
                      (* Self-heal a rolled-back ask: once the disk accepts
                         records again, the next poll re-derives the
                         question. *)
                      (try advance s with Journal.Io _ -> ());
                      view_of s ~encode);
                  peek = (fun () -> peek s);
                  answer = (fun ~qid r -> answer s ~encode ~qid r);
                  checkpoint = (fun () -> take_checkpoint s);
                  (* Best-effort durability nudge between batches; a failing
                     flush keeps its buffer and the next answer surfaces the
                     storage error properly. *)
                  flush = (fun () -> on_journal Journal.flush);
                  close = (fun () -> on_journal Journal.close);
                  abort = (fun () -> Option.iter Journal.abort journal);
                })
  end
end

module Make (S : SESSION) = struct
  module Step = Stepper.Make (S)

  type outcome = {
    query : S.query option;
    questions : int;
    replayed : int;
    asked : (S.item * bool) list;
    pruned : int;
    refused : int;
    retried : int;
    degraded : bool;
    breaker_open : bool;
    state : S.state;
  }

  (* The batch driver over the stepper: pose → oracle → reply, until the
     session is done, [max_questions] labels were taken, or the oracle's
     circuit breaker opens.  Retries, the breaker and the outcome record
     live here; the loop state (pool, pruning, journal, replay, checkpoints)
     lives in the stepper. *)
  let run_flaky ?(rng = Prng.create 0) ?(strategy = first_strategy)
      ?(max_questions = max_int) ?budget ?journal ?resume ?restore
      ?(checkpoint_every = 0) ?snapshot ?retry ?pool ~oracle ~items () =
    let budget =
      match budget with Some b -> b | None -> Budget.unlimited ()
    in
    let pool = match pool with Some p -> p | None -> Pool.default () in
    let s =
      match
        Step.start ?journal ?resume ?restore
          ~step_budget:(fun () -> budget)
          ~strategy ~rng ~pool ~checkpoint_every ?snapshot ~items ()
      with
      | Ok s -> s
      | Error e -> raise (Replay_failed e)
    in
    if Telemetry.enabled () && s.replayed > 0 then
      Telemetry.Metrics.incr m_replayed ~by:s.replayed;
    let breaker = Option.map (fun p -> (p, Retry.breaker p)) retry in
    let retried = ref 0 in
    let breaker_is_open () =
      match breaker with
      | None -> false
      | Some (_, b) -> Retry.breaker_state b = Retry.Open
    in
    let ask () =
      Telemetry.with_span "interact.ask" @@ fun () ->
      let t0 = if Telemetry.enabled () then Monotonic.now () else 0. in
      let item = Step.pose s in
      let reply =
        match breaker with
        | None -> oracle item
        | Some (policy, breaker) -> (
            match
              Retry.call ~budget ~rng policy breaker
                ~classify:(function
                  | Flaky.Label _ -> `Ok
                  | Flaky.Refused | Flaky.Timed_out -> `Transient)
                (fun () -> oracle item)
            with
            | Retry.Answered (r, attempts) | Retry.Gave_up (r, attempts) ->
                retried := !retried + attempts - 1;
                if Telemetry.enabled () && attempts > 1 then
                  Telemetry.Metrics.incr m_retried ~by:(attempts - 1);
                r
            | Retry.Rejected ->
                (* Open breaker: behave like a refusal; the loop notices the
                   open breaker and finishes. *)
                Flaky.Refused)
      in
      if Telemetry.enabled () then
        Telemetry.Metrics.observe m_ask_s (Monotonic.now () -. t0);
      reply
    in
    let finish ~degraded =
      let degraded = degraded || s.degraded in
      if Telemetry.enabled () then begin
        if s.pruned > 0 then Telemetry.Metrics.incr m_pruned ~by:s.pruned;
        if s.refused > 0 then Telemetry.Metrics.incr m_refused ~by:s.refused;
        if degraded then begin
          Telemetry.Metrics.incr m_degraded;
          Telemetry.Log.warn
            ~kv:
              [
                ("questions", string_of_int s.questions);
                ("pruned", string_of_int s.pruned);
                ("refused", string_of_int s.refused);
              ]
            "interactive session degraded before completion"
        end
      end;
      {
        query = S.candidate s.st;
        questions = s.questions;
        replayed = s.replayed;
        asked = List.rev s.asked;
        pruned = s.pruned;
        refused = s.refused;
        retried = !retried;
        degraded;
        breaker_open = breaker_is_open ();
        state = s.st;
      }
    in
    let rec loop () =
      Step.prune s;
      if s.done_ || s.questions >= max_questions then finish ~degraded:false
      else if breaker_is_open () then
        (* The oracle is effectively down: stop asking and surface the
           current candidate so the caller can degrade via its fallback
           ladder. *)
        finish ~degraded:true
      else
        match ask () with
        | exception Budget.Out_of_budget ->
            Step.warn_exhausted s budget;
            finish ~degraded:true
        | r ->
            Step.reply s r;
            (match r with
            | Flaky.Label _ -> Telemetry.Metrics.incr m_questions
            | Flaky.Refused | Flaky.Timed_out -> ());
            loop ()
    in
    Telemetry.with_span "interact.session"
      ~attrs:[ ("items", string_of_int (List.length items)) ]
      loop

  let run ?rng ?strategy ?max_questions ?budget ?journal ?resume ?restore
      ?checkpoint_every ?snapshot ?pool ~oracle ~items () =
    run_flaky ?rng ?strategy ?max_questions ?budget ?journal ?resume ?restore
      ?checkpoint_every ?snapshot ?pool
      ~oracle:(fun it -> Flaky.Label (oracle it))
      ~items ()

  let cost ~price_per_question outcome =
    price_per_question *. float_of_int outcome.questions
end
