(** Worst-case-optimal join over the interned engine.

    A Leapfrog-Triejoin-style evaluator running entirely on interned
    integer ids: variables are eliminated one at a time in a
    most-constrained-first order, and each variable's candidates are
    the intersection of the sorted value ranges offered by every atom
    containing it — iterated smallest-range-first with galloping
    (exponential + binary search) probes into the others. The work is
    bounded by the AGM output bound m^ρ*, so cyclic queries (triangle,
    4-cycle, cliques) avoid the intermediate-result blowup of binary
    join plans.

    The trie view is virtual: sorted ranges are read out of the same
    flat-bucket column indexes of {!Plan.Db} that the binary-join
    evaluator probes — no second index structure is materialized, and
    ranges independent of earlier variables are computed once per fold.
    The test oracle's value-level generic join checks this module:
    [Wcoj]-backed evaluation agrees with it (and with {!Eval.eval})
    bit-for-bit, which the randomized property suite checks. *)

type t

val make : ?counts:(string -> int) -> ?order:string list -> Ast.t -> t
(** Compiles [q] for the elimination order: by default greedy
    most-constrained-first (most covering atoms, then smallest total
    covering-relation cardinality per [counts], then variable name —
    fully deterministic), with consecutive variables kept connected
    when possible. [order] overrides it.
    @raise Invalid_argument on an [order] that does not enumerate the
    body variables. *)

val atom_count : t -> int
val head_rel : t -> string

val fold : t -> Plan.Db.t -> (int array -> 'a -> 'a) -> 'a -> 'a
(** Folds over all satisfying assignments; the register array (value
    id per elimination position) is reused between calls — copy or
    convert via {!head_tuple} / {!valuation} before retaining.
    Disequalities and negated atoms are checked against [db] at the
    leaves, exactly as {!Plan.fold} does. *)

val head_tuple : t -> int array -> int array
val valuation : t -> int array -> Valuation.t
