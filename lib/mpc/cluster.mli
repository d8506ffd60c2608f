(** The MPC cluster simulator (Section 3 of the paper).

    Computation proceeds in rounds, each a communication phase — every
    server emits (destination, fact) messages from its local data —
    followed by a computation phase local to each server. The simulator
    delivers all messages, records per-round load statistics, and updates
    the servers' local instances. At the end of an execution, the output
    is the union of the servers' local data.

    Execution is delegated to a {!Lamp_runtime.Executor}: the
    communication phase fans out one task per source server into
    per-worker outboxes, merged into per-destination inboxes without a
    global lock, and the computation phase runs one task per server.
    Local instances are persistent sets, so {!stats} and {!union_all}
    are bit-identical across backends — the pool changes wall-clock,
    never the model. *)

open Lamp_relational

type t

type round = {
  communicate : int -> Instance.t -> (int * Fact.t) list;
      (** [communicate src local]: the messages server [src] sends. *)
  compute : int -> received:Instance.t -> previous:Instance.t -> Instance.t;
      (** [compute i ~received ~previous]: server [i]'s new local
          instance from what it received this round and what it held
          before. *)
}
(** One round. The load rule: every delivered message is load, a
    message a server addresses to itself included. What a server keeps
    for a later round crosses the round through [previous] — the
    round-start local, also for a crashed server's replacement — and
    is never sent. *)

val create :
  ?executor:Lamp_runtime.Executor.t ->
  ?faults:Lamp_faults.Plan.t ->
  p:int ->
  Instance.t ->
  t
(** Round-robin initial partitioning: every server holds 1/p-th of the
    input, matching the model's assumption-free initial distribution.
    [executor] (default {!Lamp_runtime.Executor.sequential}) runs the
    rounds. [faults] (default {!Lamp_faults.Plan.none}) injects a
    deterministic fault plan into every round; see {!run_round}. *)

val create_with :
  ?executor:Lamp_runtime.Executor.t ->
  ?faults:Lamp_faults.Plan.t ->
  Instance.t array ->
  t
(** Start from an explicit initial partitioning (one instance per
    server). *)

val p : t -> int
val executor : t -> Lamp_runtime.Executor.t

val faults : t -> Lamp_faults.Plan.t
(** The fault plan rounds run under ({!Lamp_faults.Plan.none} by
    default). *)

val locals : t -> Instance.t array
val local : t -> int -> Instance.t

val union_all : t -> Instance.t
(** The output of the algorithm: the union over all servers. *)

val run_round : t -> round -> unit
(** Executes one round and records its load. Destinations are validated
    during the outbox fan-out: a message outside [0 .. p - 1] aborts the
    round before any state or statistic is updated. When tracing is on,
    the round records one span of category ["runtime"] named
    ["round N/p=P"], with its wall clock and the executor's [tasks] and
    [steals] deltas as args.

    Under a fault plan, the round additionally checkpoints every
    server's local at the round start, crash-stops the plan's chosen
    servers, applies per-message fates, stalls and transiently fails
    tasks (absorbed by bounded retry), then recovers within the round:
    crashed servers' sends are replayed from the checkpoint, dropped and
    delayed messages retransmitted, and crashed destinations' inboxes
    redelivered to their replacements. The recovered round's loads,
    locals and output are bit-identical to a fault-free run; all repair
    traffic is accounted separately in [Stats.recoveries].
    @raise Invalid_argument on a message to a nonexistent server, naming
    the smallest offending source server, the offending fact, and its
    destination. *)

val stats : t -> Stats.t

(** {1 Job-level checkpointing} *)

val snapshot : t -> string
(** Versioned binary snapshot (via [Lamp_jobs.Codec]) of the whole
    cluster: topology ([p], initial partition sizes), every server's
    local instance and the per-round statistics and recoveries
    accumulated so far. Equal cluster states snapshot to identical
    bytes. The executor and fault plan are {e not} captured — they are
    reattached by {!restore}, so a checkpoint written by a sequential
    run resumes on the pool (and vice versa) with bit-identical
    results. *)

val restore :
  ?executor:Lamp_runtime.Executor.t ->
  ?faults:Lamp_faults.Plan.t ->
  string ->
  t
(** Rebuild the cluster a {!snapshot} captured; further {!run_round}
    calls continue exactly where the snapshot left off, and {!stats}
    stitches the checkpointed rounds with the new ones.
    @raise Lamp_jobs.Codec.Corrupt on a damaged snapshot. *)

val add_recovery : t -> Stats.recovery -> unit
(** Account an externally-performed repair (e.g. a job-level restart
    after a permanent crash) in this cluster's [Stats.recoveries]. *)

val supervise :
  ?job:Lamp_jobs.Supervisor.t ->
  name:string ->
  faults:Lamp_faults.Plan.t ->
  Lamp_jobs.Supervisor.script ->
  unit
(** Drive a job script. Without [job] the steps run inline with zero
    checkpoint cost. With [job], the control block's fingerprint is set
    to [name @ fault-plan] (so resuming under a different plan raises),
    the plan's [kill]/[perma] entries are honoured, and
    [Lamp_jobs.Supervisor.run] checkpoints after every step. Every
    multi-round entry point funnels through this. *)

val shrink : t -> round:int -> dead:int -> t
(** Survivor rebalancing for a permanent crash-stop of server [dead]
    detected before (1-indexed) [round]: the surviving p−1 servers
    keep their locals (servers above [dead] shift down one slot) and
    the dead server's checkpointed local is rehashed onto them by
    [Fact.hash]. Every rehashed fact is charged as replay traffic in a
    [Stats.recovery] record for [round]. Only correct for algorithms
    whose remaining rounds rehash from scratch (no cross-round
    rendezvous on a p-dependent hash) — others must restart from round
    0 on the shrunk cluster instead.
    @raise Invalid_argument when [dead] is out of range or [p = 1]. *)

(** {1 Phase combinators} *)

val route_by : (Fact.t -> int list) -> int -> Instance.t -> (int * Fact.t) list
(** Communication phase sending every local fact to the servers chosen
    by the routing function (possibly several: replication). *)

val keep_received : int -> received:Instance.t -> previous:Instance.t -> Instance.t
(** Computation phase that replaces local data with the received facts —
    a pure reshuffle. *)

val eval_query :
  ?strategy:Lamp_cq.Eval.strategy ->
  Lamp_cq.Ast.t -> int -> received:Instance.t -> previous:Instance.t -> Instance.t
(** Computation phase evaluating a query over the received facts; the
    local instance becomes the local result. [strategy] picks the local
    plan backend (default the binary join-order plan); the result is
    identical either way. *)
