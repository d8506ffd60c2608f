(** Multi-round MPC algorithms (Example 3.1(2) and Section 3.2).

    The triangle query admits a two-round evaluation by cascading binary
    joins, whose intermediate result K = R ⋈ S can far exceed the input;
    and a skew-resilient two-round evaluation that restores the
    skew-free load m/p^(2/3) that a single round cannot achieve on
    skewed data (where it is stuck at m/√p). *)

open Lamp_relational

val cascade_triangle :
  ?seed:int ->
  ?executor:Lamp_runtime.Executor.t ->
  ?faults:Lamp_faults.Plan.t ->
  ?job:Lamp_jobs.Supervisor.t ->
  p:int ->
  Instance.t ->
  Instance.t * Stats.t
(** Two-round cascade: round 1 repartitions R and S on y and joins them
    into K; round 2 repartitions K and T on the pair (z, x) and joins.
    Correct, but the load includes the intermediate |R ⋈ S|.

    With [job], runs under {!Cluster.run_job} with [`Shrink]:
    checkpointed after every round, resumable, and — because both
    rounds rehash from scratch — a permanent crash-stop is repaired by
    shrinking to the survivors and continuing from the last
    checkpoint. *)

val skew_resilient_triangle :
  ?seed:int ->
  ?threshold:int ->
  ?executor:Lamp_runtime.Executor.t ->
  ?faults:Lamp_faults.Plan.t ->
  ?job:Lamp_jobs.Supervisor.t ->
  p:int ->
  Instance.t ->
  Instance.t * Stats.t * int
(** Heavy/light two-round triangle for skew concentrated in the join
    attribute y (the paper's heavy-hitter scenario): light tuples run
    through the one-round HyperCube; tuples with a heavy y follow a
    semi-join plan anchored at T, routed on the light attributes x and
    z across the two rounds. Returns the result, the load statistics and
    the number of heavy hitters detected. The default threshold is
    m/p^(1/3).

    With [job], runs under {!Cluster.run_job} with [`Restart]. Heavy S
    parks at h_p(z) in round 1 and is met there by the partial matches
    in round 2 — a cross-round rendezvous on a p-dependent hash — so a
    permanent crash-stop restarts the job from round 0 on the p−1
    survivors, and the heavy-hitter count returned is the one planned
    for them (threshold, heavy hitters and shares are re-planned for
    the shrunk topology). *)
