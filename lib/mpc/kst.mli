(** KST-style near-optimal multi-round join schedule
    (Ketsman–Suciu–Tao).

    The one-round HyperCube meets the skew-free load m/p^(1−1/ρ), but
    degenerates to m/√p (or worse) when heavy hitters exist. The
    multi-round schedule of Ketsman, Suciu and Tao restores
    near-optimal load on {e every} input by decomposing the query into
    {e heavy configurations}: for each set S of variables and each
    assignment of heavy values to S, the residual query (S frozen to
    those values) is skew-free in the remaining variables and runs on
    its own HyperCube subgrid. This module is the constant-round,
    binary-schema instantiation of that idea on the {!Cluster}
    simulator:

    - {b Round 1} routes every tuple that is light in some atom role
      through the ordinary HyperCube of the full query (the S = ∅
      configuration) and evaluates locally with the worst-case-optimal
      backend ({!Lamp_cq.Eval.Wcoj}); every query-relevant tuple also
      stays in its server's local state under a staged name. It is
      kept through [previous], not sent, so it is not load.
    - {b Round 2} fans each staged tuple out to every configuration
      whose heavy assignment agrees with one of its atom roles — pinned
      by the hashed coordinates of the light variables it binds,
      replicated over the subgrid dimensions it does not — and again
      evaluates worst-case-optimally. Round-1 answers stay in the local
      state.

    With no heavy configuration nothing is staged, and the schedule is
    one round of HyperCube, load for load.

    Every output valuation ω belongs to exactly one configuration
    (S(ω) = its set of heavy values), whose servers receive all of ω's
    tuples, so the union over servers is exactly Q(I); duplicates
    across configurations are absorbed by the set semantics. The number
    of configurations is capped by doubling the degree threshold —
    values pushed back under it simply fall through to the light plan,
    which is always sound. *)

open Lamp_relational

val run :
  ?seed:int ->
  ?threshold:int ->
  ?executor:Lamp_runtime.Executor.t ->
  ?faults:Lamp_faults.Plan.t ->
  ?job:Lamp_jobs.Supervisor.t ->
  p:int ->
  Lamp_cq.Ast.t ->
  Instance.t ->
  Instance.t * Stats.t * int
(** [run ~p q i] evaluates the positive conjunctive query [q] (unary
    and binary atoms; constants and repeated variables allowed) on [p]
    servers in two rounds. Returns the result, the load statistics and
    the number of heavy configurations planned (0 on skew-free input,
    where the schedule is the one round of plain HyperCube). The
    default threshold is {!Skew.default_threshold}; it doubles until the
    configuration count fits the cap.

    With [job], runs under {!Cluster.run_job} with [`Restart]:
    checkpointed after every round and resumable. Staged tuples stay at
    their round-1 servers and the subgrid layout depends on p —
    cross-round rendezvous a topology change breaks — so a permanent
    crash-stop restarts the job from round 0 on the p−1 survivors,
    re-planned for the shrunk topology; the configuration count
    returned is the survivors'.

    @raise Invalid_argument on non-positive queries, atoms of arity
    outside [1, 2], or [p <= 0]. *)
