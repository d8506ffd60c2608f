(** Yannakakis' algorithm for acyclic CQs and its MPC version GYM
    (Section 3.2 of the paper).

    The sequential algorithm runs a full reducer (bottom-up and top-down
    semi-join passes over a join tree) eliminating all dangling tuples,
    then joins bottom-up; after reduction no intermediate join result
    exceeds what is needed for the final output. GYM executes the same
    passes as MPC rounds on {!Cluster}, so the round count grows with
    the tree depth while the per-round load stays near m/p. *)

open Lamp_relational

exception Cyclic

val eval_acyclic : Lamp_cq.Ast.t -> Instance.t -> Instance.t
(** Sequential Yannakakis. Agrees with [Eval.eval] on every acyclic
    positive CQ.
    @raise Cyclic when the query is not acyclic.
    @raise Invalid_argument on non-positive queries. *)

val reduction_report :
  Lamp_cq.Ast.t -> Instance.t -> (Lamp_cq.Ast.atom * int * int) list
(** Per-atom relation sizes before and after the full reducer — the
    dangling-tuple elimination the algorithm is named for.
    @raise Cyclic when the query is not acyclic. *)

val gym :
  ?seed:int ->
  ?forest:Lamp_cq.Hypergraph.join_tree list ->
  ?executor:Lamp_runtime.Executor.t ->
  ?faults:Lamp_faults.Plan.t ->
  ?job:Lamp_jobs.Supervisor.t ->
  p:int ->
  Lamp_cq.Ast.t ->
  Instance.t ->
  Instance.t * Stats.t
(** GYM: the reducer and join passes as {!Cluster} rounds on [p]
    servers, starting from {!Cluster.create}'s round-robin partition. An
    explicit join forest overrides the GYO-constructed one — the shape
    (in particular depth) of the tree is GYM's round/communication
    trade-off knob.

    Each round runs binary ops side by side: a semi-join up (a parent
    reduced by one child), a semi-join down, or a join edge. An op
    hashes both operands on their shared columns; the op's target keeps
    the result where it was computed, and its source stays where it is.
    No round reads its own output, so a parent with several children is
    reduced by one child per round, all of a level's downward semi-joins
    share a round, and the join edges run one per round. Loads, fault
    recovery and checkpoints are {!Cluster}'s: a fault plan hits GYM's
    messages and the recovery wave repairs them.

    With [job], each round is one supervised, checkpointed step of
    {!Cluster.run_job}; every op rehashes its operands, so a permanent
    crash-stop shrinks the cluster to the survivors ([`Shrink]) and
    continues.
    @raise Cyclic when the query is not acyclic and no forest is
    given. *)

(** {1 GYM's rounds, for composition} *)

type plan
(** GYM's ops over a numbered join forest, grouped into rounds. *)

val plan : ?seed:int -> Lamp_cq.Hypergraph.join_tree list -> plan

val rounds : plan -> p:int -> Cluster.round array
(** The plan's rounds on [p] servers. The first reads each node's
    atom from the servers' locals; {!Gym_ghd} runs them after its
    HyperCube round, over the bag relations. *)

val output : plan -> Lamp_cq.Ast.atom -> Cluster.t -> Instance.t
(** The head's facts, once every round of {!rounds} ran on the
    cluster. *)
