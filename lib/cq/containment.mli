(** Query containment.

    For positive CQs, containment [Q ⊆ Q'] is decided exactly by the
    classical homomorphism theorem: [Q ⊆ Q'] iff [Q'] derives the frozen
    head on the canonical (frozen) database of [Q]. For queries with
    negation or inequalities — where the problem jumps to
    coNEXPTIME-complete (Theorem 4.9 / [33]) — a bounded counterexample
    search is provided instead. *)

open Lamp_relational

val contained : Ast.t -> Ast.t -> bool
(** [contained q1 q2] decides [q1 ⊆ q2] (NP-complete in query size).
    @raise Invalid_argument unless both queries are positive CQs. *)

val equivalent : Ast.t -> Ast.t -> bool

val ucq_contained : Ast.t list -> Ast.t list -> bool
(** UCQ containment: every disjunct of the left side is contained in some
    disjunct of the right side (sound and complete for unions of positive
    CQs). *)

val minimize : Ast.t -> Ast.t
(** The core of the query: drops body atoms while the query stays
    equivalent. The result is a minimal equivalent CQ.
    @raise Invalid_argument on non-positive queries. *)

type verdict =
  | No_counterexample_found
  | Counterexample of Instance.t

val refute :
  ?max_facts:int -> universe:Value.t list -> Ast.t -> Ast.t -> verdict
(** [refute ~universe q1 q2] searches instances over the body schema and
    the universe (plus both queries' constants) for a witness of
    [q1 ⊄ q2], trying smaller instances first. Sound for refutation;
    complete only up to the bound, reflecting the exponential
    counterexamples behind Theorem 4.9.
    @raise Invalid_argument when the candidate fact space exceeds
    [max_facts] (default 14, i.e. 2¹⁴ subsets). *)
