(** Empirical classification of queries into the paper's monotonicity
    hierarchy M ⊊ Mdistinct ⊊ Mdisjoint (Section 5.2).

    The classes are semantic (and undecidable in general), so the tools
    here are testers: a query is {e refuted} for a class by a witness
    pair of instances, and supported by surviving all supplied pairs.
    The paper's own witnesses (Examples 5.6 and 5.10) appear in
    [Canned]; the Figure 2 reproduction combines these testers with the
    syntactic checks of [Connectivity] and [Program]. *)

open Lamp_relational

type query = {
  name : string;
  eval : Instance.t -> Instance.t;
}

val of_cq : ?name:string -> Lamp_cq.Ast.t -> query
val of_program : name:string -> output:string -> Program.t -> query

val of_wellfounded : name:string -> output:string -> Program.t -> query
(** The query returning the {e true} facts of the well-founded model. *)

type refutation = {
  base : Instance.t;  (** The instance I. *)
  extension : Instance.t;  (** The added facts J. *)
  lost : Instance.t;  (** Facts of Q(I) missing from Q(I ∪ J). *)
}

val check_pair : query -> Instance.t * Instance.t -> (unit, refutation) result

type verdict = {
  monotone : (unit, refutation) result;
      (** [Q(I) ⊆ Q(I ∪ J)] over every supplied pair. *)
  distinct_monotone : (unit, refutation) result;
      (** The same over the pairs where J is domain distinct from I
          (Definition 5.5). *)
  disjoint_monotone : (unit, refutation) result;
      (** The same over the pairs where J is domain disjoint from I
          (Definition 5.9). *)
}

val classify : query -> pairs:(Instance.t * Instance.t) list -> verdict

val random_pairs :
  rng:Random.State.t ->
  schema:Schema.t ->
  count:int ->
  size:int ->
  domain:int ->
  (Instance.t * Instance.t) list

val class_name : verdict -> string
(** The smallest class of the hierarchy the verdict is consistent with,
    e.g. ["Mdistinct \\ M"]. *)
