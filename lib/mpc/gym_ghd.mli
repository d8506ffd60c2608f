(** GYM on possibly cyclic queries via tree decompositions
    (Section 3.2 / [6]).

    Round 1 evaluates each bag of the decomposition — a join of the
    atoms grouped there — by HyperCube on its own slice of the cluster:
    with b bags, bag i's grid takes the servers from i·max(1, ⌊p/b⌋)
    on, modulo p. When bags outnumber servers, the slices wrap and
    their loads add. The rounds
    after it are {!Yannakakis.gym}'s semi-join and join rounds over the
    bag results, which form an acyclic query by the running-intersection
    property. All of them are {!Cluster} rounds on one cluster. The
    depth of the decomposition governs the number of rounds; the bag
    width governs the round-1 cost — the trade-off the paper
    highlights. *)

open Lamp_relational

val run :
  ?seed:int ->
  ?decomposition:Lamp_cq.Decomposition.t list ->
  ?executor:Lamp_runtime.Executor.t ->
  ?faults:Lamp_faults.Plan.t ->
  ?job:Lamp_jobs.Supervisor.t ->
  p:int ->
  Lamp_cq.Ast.t ->
  Instance.t ->
  Instance.t * Stats.t * int
(** [(result, stats, width)]. Without an explicit decomposition, acyclic
    queries use their GYO forest (one atom per bag) and cyclic queries
    the min-fill heuristic.

    With [job], each round is one supervised, checkpointed step of
    {!Cluster.run_job}, so a kill after round 1 resumes with the bag
    results on their servers, without re-running any HyperCube join.
    The slices and GYM's hashing are functions of p, so a permanent
    crash-stop restarts the job from round 0 on the p−1 survivors
    ([`Restart]).
    @raise Invalid_argument on non-positive queries or an invalid
    decomposition. *)
