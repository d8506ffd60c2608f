(** The HyperCube algorithm (Example 3.2 / Section 3.1).

    Servers form a grid with one dimension per query variable; every
    fact is replicated to all grid cells compatible with the hashes of
    the variables it pins, and every server evaluates the query on what
    it receives. Correct by construction — the induced policy strongly
    saturates the query — with skew-free maximum load O(m/p^(1/tau))
    when the shares follow the fractional edge packing exponents. *)

open Lamp_relational

val run :
  ?seed:int ->
  ?materialize:bool ->
  ?strategy:Lamp_cq.Eval.strategy ->
  ?executor:Lamp_runtime.Executor.t ->
  ?faults:Lamp_faults.Plan.t ->
  ?job:Lamp_jobs.Supervisor.t ->
  ?shares:(string * int) list ->
  p:int ->
  Lamp_cq.Ast.t ->
  Instance.t ->
  Instance.t * Stats.t * (string * int) list
(** One-round HyperCube on the grid of [shares] — load-optimal integer
    shares for [p] servers when none are given (via {!Shares.optimize}
    with the actual relation sizes); the number of servers is the
    product of the shares. Returns the shares used. [materialize:false]
    skips the local evaluation (the result is empty): load experiments
    on skewed inputs use it to avoid materializing quadratic outputs,
    since the load is determined entirely by the communication phase.

    With [job], the single round runs under {!Cluster.run_job} with
    [`Restart] (checkpoint after the round; [kill=0] dies holding only
    the initial state). A permanent crash-stop restarts on the
    survivors, one server fewer than the grid, with shares
    re-optimized for them — the grid is a function of p, so the
    caller's explicit shares cannot outlive the crash. The final
    [Stats.p] is the survivor count and the shares returned are the
    re-optimized ones; their grid may leave some survivors idle.
    @raise Invalid_argument on non-positive queries. *)
