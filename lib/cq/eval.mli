(** Evaluation of conjunctive queries (with optional negation and
    inequalities) over instances.

    The evaluator compiles the query to a {!Plan} — variables as
    integer slots, interned-tuple match programs, statically chosen
    index probes — and backtracks over the greedily ordered body with
    integer comparisons only. Negated atoms and inequalities are
    checked once all body variables are bound (safety guarantees they
    are). *)

open Lamp_relational

(** Selectable plan backend. [Binary] (the default) is the compiled
    binary-join pipeline of {!Plan}; [Wcoj] is the leapfrog
    worst-case-optimal join of {!Wcoj}, bounded by the AGM bound on
    cyclic queries. Both run over the same interned {!Plan.Db} column
    indexes and agree bit-for-bit on every query and instance (checked
    by the randomized property suite, with the test oracle's
    value-level generic join as a third opinion). *)
type strategy =
  | Binary
  | Wcoj

val strategy_name : strategy -> string
(** ["binary"] / ["wcoj"], as accepted by the CLI and bench flags. *)

val strategy_of_string : string -> (strategy, string) result

type prepared
(** A query compiled for one backend. {!prepare} reads the database's
    relation counts as join-order estimates only: what {!run} returns
    does not depend on them. *)

val prepare : ?strategy:strategy -> Ast.t -> Plan.Db.t -> prepared

val run : prepared -> Plan.Db.t -> Instance.t
(** [Q(I)] for the database's instance [I]: the set of head facts
    derived by satisfying valuations. *)

val atom_count : prepared -> int
(** Number of body atoms in the compiled plan. *)

val fold_valuations :
  ?strategy:strategy -> Ast.t -> Instance.t -> (Valuation.t -> 'a -> 'a) -> 'a -> 'a
(** Folds over all satisfying valuations of the query. *)

val valuations : ?strategy:strategy -> Ast.t -> Instance.t -> Valuation.t list
(** All satisfying valuations of [q] on the instance. *)

val eval : ?strategy:strategy -> Ast.t -> Instance.t -> Instance.t
(** [eval q i] is [Q(I)]: the set of facts derived by satisfying
    valuations. *)

val eval_ucq : ?strategy:strategy -> Ast.t list -> Instance.t -> Instance.t
(** Union of the results of the disjuncts. *)

val holds : ?strategy:strategy -> Ast.t -> Instance.t -> bool
(** Whether at least one satisfying valuation exists (boolean-query
    semantics). *)

val derives : ?strategy:strategy -> Ast.t -> Instance.t -> Fact.t -> bool
(** Whether the given head fact is derived on the instance. *)
