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

val p : t -> int
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

(** {1 Jobs: checkpoints and the job driver} *)

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

val run_job :
  ?executor:Lamp_runtime.Executor.t ->
  ?faults:Lamp_faults.Plan.t ->
  ?job:Lamp_jobs.Supervisor.t ->
  name:string ->
  on_crash:[ `Shrink | `Restart ] ->
  p:int ->
  Instance.t ->
  (p:int -> round array * 'a) ->
  t * 'a
(** [run_job ~name ~on_crash ~p instance plan] runs a multi-round
    algorithm on a cluster {!create}d with [p] servers and returns the
    final cluster with the number [plan] reports for its topology.
    [plan ~p] gives the rounds for [p] servers and that number; it is
    called once per p, and every step runs the rounds planned for the
    cluster's current p.

    Without [job] the rounds run inline, at no checkpoint cost. With
    [job] they run under {!Lamp_jobs.Supervisor.run}, checkpointed
    through {!snapshot} after every round and resumable; the
    fingerprint is [name @ fault-plan] (a resume under another plan
    raises), and the plan's [kill] and [perma] entries are merged into
    the control block. A permanent crash-stop of a server is repaired
    by [on_crash]:
    - [`Shrink]: the survivors keep their locals (servers above the
      dead one shift down a slot), the dead server's checkpointed local
      is rehashed onto them, and the job continues from the current
      round. Only correct when every round rehashes from scratch.
    - [`Restart]: the job restarts from round 0 on a fresh cluster of
      p−1 servers, replanned — for rounds that meet across rounds on a
      p-dependent placement.

    Either way the final [Stats.p] is p−1 and the dead server's facts
    are charged as replay traffic in one [crashed = 1] recovery record.
    @raise Invalid_argument without [job] when the fault plan has a
    [kill] or [perma] entry — both need a job. *)

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
