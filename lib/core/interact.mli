(** The interactive learning kernel (paper, Section 3).

    The paper's protocol: the database instance is very large; the learning
    algorithm repeatedly chooses an item (a tuple, an XML node, a graph path)
    and asks the user to label it positive or negative.  After each answer the
    algorithm "infers the items which become uninformative w.r.t. the
    previously labeled items" and never asks about those.  The loop stops when
    every item is either labeled or uninformative, and the goal is to minimize
    the number of interactions.

    The kernel is functorized over a {!SESSION}: a concrete learner exposing a
    monotone state, a notion of determined (= uninformative) items, and a
    current candidate query.

    The loop exists once, as a state machine: {!Stepper} holds a session's
    state between answers — the learner state, the unasked pool and at most
    one open question — and owns pruning, journaling, replay and
    checkpoints.  {!Make.run_flaky} drives it with an oracle function (the
    CLI and the benches); [learnq serve] drives it one client answer at a
    time.

    Sessions are durable and supervised: an optional {!Journal} records every
    question and answer write-ahead (so a crashed session resumes from its
    journal, replaying the recorded answers instead of re-asking them), and an
    optional {!Retry} policy re-issues refused or timed-out questions with
    backoff, tripping a circuit breaker when the oracle looks dead. *)

module type SESSION = sig
  type query
  type item

  type state
  (** Learner state after some sequence of labels. *)

  val init : item list -> state
  (** Fresh state over the pool of labelable items. *)

  val record : state -> item -> bool -> state
  (** [record st item label] incorporates the user's answer. *)

  val determined : state -> item -> bool option
  (** [determined st item] is [Some l] when every query consistent with the
      labels recorded so far assigns label [l] to [item] — asking the user
      about it would be uninformative; [None] when both labels are still
      possible. *)

  val candidate : state -> query option
  (** A query consistent with all recorded labels, if one exists. *)

  val pp_item : Format.formatter -> item -> unit
  val pp_query : Format.formatter -> query -> unit
end

(** How the next question is chosen among the informative items. *)
type ('state, 'item) strategy = Prng.t -> 'state -> 'item list -> 'item

val first_strategy : ('state, 'item) strategy
(** Deterministic: asks the first informative item (pool order). *)

val random_strategy : ('state, 'item) strategy
(** Uniform among informative items — the natural baseline. *)

exception Replay_failed of Error.t
(** Raised by {!Make.run_flaky} when its [resume] events cannot be replayed:
    an item the codec does not decode (the journal was recorded over other
    data), or a checkpoint without a [restore] codec or with an undecodable
    state.  The payload is an [Invalid_input] error. *)

(** One interactive session as a state machine driven one answer at a time.

    A stepper holds the loop's state between answers: the learner state,
    the remaining pool, and at most one {e open question}.  {!Make.make}
    replays a recovered journal, then advances to the next question.  Each
    [answer] journals the reply write-ahead, folds it in, and advances —
    pruning newly determined items — until the pool is empty ([Completed]
    is journaled) or the per-step budget dies (terminal {e degraded}: the
    candidate so far stands, and the journal stays resumable).

    {b Replay.}  The recovered events are split at the last checkpoint.  A
    checkpoint restores the engine-decoded state, its counters and its
    answered keys; only the events after it are folded.  Labeled answers
    rebuild the state, with duplicates (same codec string) as idempotent
    no-ops.  Refused and timed-out items return to the pool.  A trailing
    [Asked] without its [Answered] — the question in flight at the crash —
    becomes the open question again under its original qid, {e without}
    writing a second [Asked] record, so a crashed-and-resumed journal is
    byte-identical to an uninterrupted one.

    {b Question ids.}  [qid] is the count of [Asked] records the session has
    ever written, replayed ones included, and [Journal.ck_qid] is that count
    at the snapshot with any open question excluded.  Both are stable
    across crash and resume.  Answering a [qid] at or below the current one
    when the question has moved on is an {e idempotent no-op} returning the
    current view (a client retrying a reply it already delivered must not
    corrupt the session); a [qid] from the future is a typed error.

    A stepper is single-threaded by construction: the server's registry and
    its dispatcher's key-disjoint batches guarantee one thread at a time. *)
module Stepper : sig
  type view = {
    engine : string;
    done_ : bool;  (** no open question and none coming *)
    degraded : bool;  (** stopped on step-budget exhaustion *)
    qid : int;  (** id of the open question; count of questions ever asked *)
    question : string option;  (** codec string of the open question *)
    question_text : string option;  (** human rendering of the open question *)
    questions : int;  (** live answers folded in this process *)
    replayed : int;  (** answers replayed from the journal at startup *)
    pruned : int;  (** items never asked: label became determined *)
    refused : int;  (** refused/timed-out questions, set aside this run *)
    query : string option;  (** pretty-printed current candidate *)
  }

  type peeked = {
    p_engine : string;
    p_done : bool;
    p_degraded : bool;
    p_qid : int;
    p_open : bool;  (** a question is currently posed *)
    p_questions : int;
    p_replayed : int;
    p_pruned : int;
    p_refused : int;
  }
  (** A counter-only snapshot for introspection ([/debug/sessions]): unlike
      {!view} it never touches the journal, never self-heals a rolled-back
      ask, and never renders the candidate — so it is safe to read from the
      accept loop while the dispatcher owns the session.  The reads are
      plain (weakly consistent), which is fine for a debug endpoint. *)

  type t = {
    view : unit -> view;
    peek : unit -> peeked;
    answer : qid:int -> Flaky.reply -> (view, Error.t) result;
    checkpoint : unit -> (unit, Error.t) result;
        (** snapshot the accumulator and compact the journal to
            header + checkpoint (the eviction path); no-op without a journal
            or state codec.  Safe with a question in flight — its [Asked] is
            re-appended after the rewrite. *)
    flush : unit -> unit;  (** force journal buffers to disk (best-effort) *)
    close : unit -> unit;  (** flush + close the journal (drain path) *)
    abort : unit -> unit;  (** crash the journal: buffered records lost *)
  }
  (** The server holds steppers of different engines, so the engine type is
      erased behind closures. *)

  module Make (S : SESSION) : sig
    val make :
      ?journal:Journal.t ->
      ?resume:Journal.event list ->
      ?step_budget:(unit -> Budget.t) ->
      ?checkpoint_every:int ->
      ?snapshot:(S.state -> string) ->
      ?restore:(string -> (S.state, string) result) ->
      engine:string ->
      encode:(S.item -> string) ->
      decode:(string -> S.item option) ->
      items:S.item list ->
      unit ->
      (t, Error.t) result
    (** [encode]/[decode] are the journal codec (item identity on the wire
        and in replay).  [step_budget] is drawn fresh for each advance (the
        determined-scan between two questions); default unlimited.  Questions
        are asked in pool order and the scan runs inline.  Replay events that
        [decode] rejects are an [Invalid_input] error.

        [snapshot]/[restore] are the engine's accumulator codec.  When the
        recovered events contain a {!Journal.checkpoint}, [restore] rebuilds
        the state from it and only the tail is replayed; a journal bearing a
        checkpoint but no [restore] codec is refused.  [checkpoint_every] > 0
        (requires both a journal and [snapshot]) compacts automatically every
        N labeled answers.  Storage failures (ENOSPC, EIO) surface as typed
        [Error.Storage] results from [answer]; the journal is never left
        mid-write — it truncates back to its last complete record. *)
  end
end

module Make (S : SESSION) : sig
  type outcome = {
    query : S.query option;  (** final candidate *)
    questions : int;  (** live user interactions this run (= crowd HITs) *)
    replayed : int;  (** answers replayed from a journal, not re-asked *)
    asked : (S.item * bool) list;  (** transcript incl. replays, in order *)
    pruned : int;  (** items never asked because they became determined *)
    refused : int;  (** questions unanswered even through the retry policy *)
    retried : int;  (** extra oracle attempts spent by the retry policy *)
    degraded : bool;  (** stopped on budget exhaustion or an open breaker *)
    breaker_open : bool;  (** the oracle circuit breaker is open *)
    state : S.state;  (** final learner state *)
  }

  val run :
    ?rng:Prng.t ->
    ?strategy:(S.state, S.item) strategy ->
    ?max_questions:int ->
    ?budget:Budget.t ->
    ?journal:Journal.t * (S.item -> string) ->
    ?resume:Journal.event list * (string -> S.item option) ->
    ?restore:(string -> (S.state, string) result) ->
    ?checkpoint_every:int ->
    ?snapshot:(S.state -> string) ->
    ?pool:Pool.t ->
    oracle:(S.item -> bool) ->
    items:S.item list ->
    unit ->
    outcome
  (** Runs the interactive protocol: repeatedly selects an informative item
      with [strategy] (default {!first_strategy}), labels it with [oracle],
      and updates the state, until no informative item remains or
      [max_questions] is reached.  [pruned] counts pool items whose label was
      inferred rather than asked.  When [budget] runs out mid-session the
      loop returns the current candidate with [degraded = true] instead of
      raising.  [journal] and [resume] are as in {!run_flaky}; [pool]
      (default {!Pool.default}) parallelizes the determined-scan with a
      deterministic, input-order merge — the question sequence and journal
      bytes are identical at every pool size. *)

  val run_flaky :
    ?rng:Prng.t ->
    ?strategy:(S.state, S.item) strategy ->
    ?max_questions:int ->
    ?budget:Budget.t ->
    ?journal:Journal.t * (S.item -> string) ->
    ?resume:Journal.event list * (string -> S.item option) ->
    ?restore:(string -> (S.state, string) result) ->
    ?checkpoint_every:int ->
    ?snapshot:(S.state -> string) ->
    ?retry:Retry.policy ->
    ?pool:Pool.t ->
    oracle:(S.item -> Flaky.reply) ->
    items:S.item list ->
    unit ->
    outcome
  (** {!run} against an unreliable user ({!Flaky}): a driver over
      {!Stepper} that poses a question, asks [oracle] (through [retry]), and
      folds the reply in, until the session is done, [max_questions] labels
      were taken, or the breaker opens.

      [journal] is a write-ahead log plus an item encoder: every question is
      journaled before the oracle is consulted and every reply after, so a
      crash loses at most the answer in flight.

      [resume] is a recovered journal's events plus the item decoder, and
      [restore] is the engine's state decoder for its checkpoint; both are
      replayed with {!Stepper}'s semantics.  Replay is deterministic and no
      already-answered question is ever asked twice; a question left open
      by a crash is asked again without a second [Asked] record.  Replays
      are counted in [replayed], not [questions], and the [asked] transcript
      covers only events since the last checkpoint.  Item identity in replay
      is the journal codec; without [journal], replayed items are matched
      structurally.
      @raise Replay_failed when [resume] cannot be replayed.

      [checkpoint_every] (with [snapshot], the engine's state encoder)
      snapshots the accumulator every N labeled answers and atomically
      compacts the journal down to header + checkpoint, bounding journal
      growth over arbitrarily long sessions.  Storage failures surface as
      [Journal.Io] carrying a typed [Error.Storage]; the journal is left
      intact.

      [retry] re-issues refused and timed-out questions with backoff instead
      of skipping them; only questions that fail every attempt count in
      [refused].  When the policy's circuit breaker opens (too many
      consecutive given-up questions) the session stops asking and returns
      the current candidate with [degraded = true] and [breaker_open = true]
      — the caller's cue to fall back (e.g. [Twiglearn.Fallback],
      [Joinlearn.Fallback]) rather than hammer a dead oracle. *)

  val cost :
    price_per_question:float -> outcome -> float
  (** Crowdsourcing cost of a session: the paper equates minimizing
      interactions with minimizing financial cost of HITs (Section 3).
      Replayed answers were already paid for and are not re-billed. *)
end
