(** Agreement signatures: the combinatorial core of join learning.

    Fix two relations with arities [m] and [n].  A join predicate is a set
    of attribute pairs, encoded as a bitmask over the [m·n] pairs; the
    {e signature} of a tuple pair is the set of attribute pairs on which the
    tuples agree.  A predicate θ selects a tuple pair iff θ ⊆ sig — so the
    candidate predicates consistent with labeled pairs form a lattice of
    bitmasks, and learning is lattice navigation. *)

type space
(** The pair universe of a fixed relation pair. *)

type mask = int
(** Bitmask over attribute pairs; bit [k] set iff pair [k] belongs. *)

val space : left_arity:int -> right_arity:int -> space
(** @raise Invalid_argument when [m·n] exceeds the word size (62). *)

val pairs : space -> (int * int) array
(** Pair [k] is [pairs.(k)]. *)

val dimension : space -> int
val full : space -> mask
(** All pairs. *)

val of_predicate : space -> Relational.Algebra.predicate -> mask
val to_predicate : space -> mask -> Relational.Algebra.predicate

val signature :
  space -> Relational.Relation.tuple -> Relational.Relation.tuple -> mask
(** Set of pairs on which the tuples agree.
    @raise Invalid_argument on a tuple narrower than the space. *)

val fold_pairs :
  space ->
  Relational.Relation.tuple array ->
  Relational.Relation.tuple array ->
  init:'a ->
  (int -> int -> mask -> 'a -> 'a) ->
  'a
(** [fold_pairs sp lt rt ~init f] folds [f a b (signature sp lt.(a)
    rt.(b))] over every row pair, from the last pair of the row-major
    order to the first — like [List.fold_right], so consing builds the
    left-major pool in order.  Values are interned once for the batch and
    masks are computed by the same int kernel as {!signature}.
    @raise Invalid_argument on a tuple narrower than the space (when both
    sides are non-empty). *)

val subset : mask -> mask -> bool
val inter : mask -> mask -> mask
val popcount : mask -> int
val mem : mask -> int -> bool
val pp : space -> Format.formatter -> mask -> unit
(** e.g. [{a0=b2, a3=b3}] with the canonical attribute names. *)
