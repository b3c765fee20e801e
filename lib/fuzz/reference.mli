(** Reference implementations the differential oracles compare production
    code against: the straightforward list-based versions, kept as
    specifications.

    The pool builders are the learners' list-based originals.
    {!Joinlearn.Interactive.items_of} and
    {!Pathlearn.Interactive.items_of_graph} must return exactly what these
    return — the same items in the same order, sharing the relations'
    tuple arrays, after the same {!Core.Prng} draws — which the
    [pool-build] oracle checks. *)

val join_items :
  Joinlearn.Signature.space ->
  Relational.Relation.t ->
  Relational.Relation.t ->
  Joinlearn.Interactive.item list
(** The Cartesian pool, left-major, each pair with its signature computed
    directly — [Value.equal] over {!Joinlearn.Signature.pairs} — rather
    than through the int kernel production shares with
    {!Joinlearn.Signature.signature}. *)

val path_items :
  ?max_len:int ->
  ?per_source:int ->
  rng:Core.Prng.t ->
  Graphdb.Graph.t ->
  Pathlearn.Interactive.item list
(** Per source: every walk of {!Graphdb.Rpq.paths_from}, sorted and
    deduplicated by polymorphic compare, sampled down to [per_source]
    (default 30) with {!Core.Prng.sample}; [max_len] defaults to 4. *)

(** {2 Differential checks}

    Each runs the production builder and its reference on the same input
    and reports the first difference: a different item set, a different
    order, items not sharing the relations' tuple arrays, a join mask
    that {!Joinlearn.Signature.signature} would not recompute, a different
    {!Core.Prng} state afterwards, or only one of the two raising. *)

val check_join_pool :
  Joinlearn.Signature.space ->
  Relational.Relation.t ->
  Relational.Relation.t ->
  (unit, string) result

val check_path_pool :
  ?max_len:int ->
  ?per_source:int ->
  rng:Core.Prng.t ->
  Graphdb.Graph.t ->
  (unit, string) result
(** Both builders draw from their own copy of [rng]; [rng] itself is not
    advanced. *)
