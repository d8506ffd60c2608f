(** Parallel-correctness of one-round evaluation (Definition 4.2,
    Proposition 4.6, Theorem 4.8).

    A query [Q] is parallel-correct on instance [I] under policy [P]
    when [Q(I) = ⟦Q,P⟧(I)], and parallel-correct under [P] when this
    holds for every instance over the policy's universe. For (unions of)
    CQs with inequalities the problem is characterized by saturation and
    decided here exactly; its Πᵖ₂-completeness shows in the running time,
    which is exponential in the number of query variables. *)

open Lamp_relational
open Lamp_cq
open Lamp_distribution

type instance_verdict = {
  missing : Instance.t;  (** Facts of [Q(I)] lost by distribution. *)
  extra : Instance.t;
      (** Facts produced distributively but absent from [Q(I)] — possible
          only for non-monotone queries. *)
}

val on_instance :
  Ast.t -> Policy.t -> Instance.t -> (unit, instance_verdict) result
(** The PCI problem: parallel-correctness on one given instance. Works
    for any query, including CQ¬. *)

val decide : Ast.t -> Policy.t -> (unit, Saturation.violation) result
(** The PC problem for CQs (with inequalities), decided through
    Condition (PC1).
    @raise Invalid_argument on CQ¬ or when the policy lacks a finite
    universe. *)

val ucq_decide : Ast.t list -> Policy.t -> (unit, Saturation.violation) result
(** PC for unions of CQs, using the union-aware notion of minimal
    valuation from [33]: a valuation of a disjunct is minimal when no
    valuation of {e any} disjunct derives the same fact from strictly
    fewer facts. *)

val ucq_minimal_images :
  Ast.t list -> universe:Value.t list -> (Fact.t * Instance.t) list

val decide_by_search :
  ?max_facts:int -> Ast.t -> Policy.t -> (unit, Instance.t) result
(** Brute-force oracle for PC: enumerates every instance over the
    policy's universe and the query's body schema and checks PCI on
    each; on failure returns a counterexample instance. Used to
    cross-validate {!decide}.
    @raise Invalid_argument when the fact space exceeds [max_facts]
    (default 16). *)
