(** Interactive path labeling on a graph (paper, Section 3): "our algorithms
    compute what paths the user should be asked to label (as positive or
    negative example) in order to gather as many information as possible
    with few interactions".

    Items are concrete labeled walks [(src, path word, dst)]; many walks
    share a word, and a word only needs one answer — asking about a path
    whose word is already labeled (or decided by the current hypothesis'
    two-tier bias) is uninformative, which is what the session prunes.

    The paper also sketches {e query-workload reuse}: "consider a scenario
    where all the previous users were interested in paths where all the
    edges … contain the information highway … we want to ask with priority
    the next user to label a path having the same property."
    {!workload_strategy} implements exactly that prior. *)

type item = { src : int; dst : int; word : string list }

module Session :
  Core.Interact.SESSION
    with type query = Words.hypothesis
     and type item = item

module Loop : module type of Core.Interact.Make (Session)

val items_of_graph :
  ?max_len:int -> ?per_source:int -> rng:Core.Prng.t -> Graphdb.Graph.t ->
  item list
(** Path pool: for each source in node order, its distinct
    [(dst, word)] walks of 1 to [max_len] (default 4) edges, in (dst,
    word) order — the polymorphic order of the items — and, beyond
    [per_source] (default 30) of them, the first [per_source] of a
    {!Core.Prng.shuffle}-equivalent draw from [rng].  Items with the same
    word share its label list.  One depth-first pass per source over a
    label trie shared by all sources; walks are sorted as int pairs. *)

val workload_strategy :
  prior:Automata.Dfa.t list -> (Session.state, item) Core.Interact.strategy
(** Prefers items whose word is accepted by some previously learned query;
    falls back to shortest-word-first. *)

val encode_item : item -> string
(** Journal codec: ["src dst label1 label2 …"]. *)

val decode_item : string -> item option
(** Inverse of {!encode_item}; [None] on a malformed line. *)

val encode_state : Session.state -> string
(** Checkpoint codec: the positive and negative word sets. *)

val decode_state : string -> (Session.state, string) result
(** Inverse of {!encode_state}.  Recomputes the hypothesis with a single
    {!Words.learn} call — the reason resume-from-checkpoint beats replaying
    a long journal, which runs the learner once per recorded answer. *)

val run_with_goal :
  ?rng:Core.Prng.t ->
  ?strategy:(Session.state, item) Core.Interact.strategy ->
  ?budget:Core.Budget.t ->
  ?profile:Core.Flaky.profile ->
  ?retry:Core.Retry.policy ->
  ?max_len:int ->
  graph:Graphdb.Graph.t ->
  goal:Automata.Dfa.t ->
  unit ->
  Loop.outcome
(** Oracle: a path is positive iff its word is in the goal language.
    [budget] bounds the session; on exhaustion the outcome carries the
    current hypothesis with [degraded = true].  [profile] injects
    crowd-worker faults; [retry] re-asks refused/timed-out questions. *)
