(** Evaluation of stratified Datalog programs.

    Programs are evaluated stratum by stratum (negation always refers to
    already-computed layers), each stratum by a naive or a semi-naive
    fixpoint. The semi-naive strategy only re-derives from facts that
    are new since the previous iteration; both strategies compute the
    same model, which the test suite checks by property.

    Both strategies run on one interned {!Lamp_cq.Plan.Db} that
    persists across rounds and strata: each round's delta is appended
    and the hash indexes extend incrementally instead of being rebuilt
    per rule per iteration. *)

open Lamp_relational

val materialize_adom : Instance.t -> Instance.t
(** Adds [ADom(v)] for every active-domain value — the predicate the
    paper's Q¬TC program reads. Applied automatically by {!run} when the
    program mentions [ADom]. *)

type strategy =
  | Naive
  | Seminaive

val run :
  ?strategy:strategy ->
  ?job:Lamp_jobs.Supervisor.t ->
  Program.t ->
  Instance.t ->
  Instance.t
(** The program's perfect model: the input plus all derived IDB facts
    (plus [ADom] when used).

    With [job], every fixpoint iteration of every stratum is one
    supervised, checkpointed step: the checkpoint is the interned
    database (the semi-naive deltas live in reserved relations inside
    it) plus the stratum/iteration cursors, so a killed evaluation
    resumes mid-stratum with a bit-identical model. The fixpoint is
    coordinator-resident — no servers exist to crash permanently, so
    no rebalancing applies.
    @raise Stratify.Not_stratifiable on programs with negative cycles —
    use [Wellfounded] for those. *)

val query :
  ?strategy:strategy ->
  ?job:Lamp_jobs.Supervisor.t ->
  Program.t ->
  output:string ->
  Instance.t ->
  Instance.t
(** [run] restricted to one output relation. *)
