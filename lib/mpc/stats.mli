(** Load accounting for MPC executions.

    The MPC model measures algorithms by the {e load}: the number of
    facts a server receives during a round (Section 3). These statistics
    are what every experiment in this repository reports. *)

type round_stats = {
  max_received : int;  (** Largest per-server delivery this round. *)
  total_received : int;  (** Sum over servers (communication cost). *)
}

type recovery = {
  round : int;  (** The communication round the faults hit (1-based). *)
  crashed : int;  (** Servers that crash-stopped during the round. *)
  replayed : int;
      (** Facts re-shipped by replaying crashed servers' sends from
          their checkpoints, plus inbox facts redelivered to their
          replacements. *)
  retransmitted : int;  (** Dropped or delayed messages resent. *)
  duplicates : int;  (** Extra message copies shipped (merge dedups). *)
  retries : int;  (** Transient task faults absorbed by retry. *)
  speculated : int;
      (** Straggling tasks outrun by a speculative backup copy. *)
}
(** Repair work for one faulty round. Recovery traffic is accounted
    here, {e separately} from {!round_stats}: the per-round loads of the
    fault-free portion stay identical to a clean run's. *)

type t = {
  p : int;
  initial_max : int;  (** Largest initial partition (before round 1). *)
  rounds : round_stats list;
  recoveries : recovery list;  (** Empty on a fault-free run. *)
}

val rounds : t -> int
(** Number of communication rounds (synchronization barriers). *)

val recovery_rounds : t -> int
(** Rounds that needed any repair work. *)

val recovery_load : t -> int
(** Total facts shipped by recovery (replays + retransmissions +
    duplicate copies) — the overhead on top of {!total_communication}. *)

val crashes : t -> int
(** Total crash-stop failures over the run. *)

val retries : t -> int
(** Total transient task faults absorbed by retry. *)

val speculations : t -> int
(** Total straggling tasks replaced by a speculative backup copy. *)

val without_recoveries : t -> t
(** [t] with {!recoveries} emptied — the clean-run portion. Speculation
    and rebalancing must leave this part bit-identical. *)

val max_load : t -> int
(** Maximum per-server load over all rounds, including the initial
    partitioning. *)

val total_communication : t -> int
(** Total number of facts shipped over all rounds. *)

val replication_rate : m:int -> t -> float
(** Total communication divided by the input size [m] — the replication
    rate of the Shares literature. *)

val epsilon : m:int -> t -> float
(** The ε for which the measured max load equals [m / p^(1-ε)]: 0 is a
    perfect partitioning, 1 means some server saw all the data. The
    paper's bounds correspond to ε = 0 for a skew-free join, 1/3 for the
    one-round triangle, 1/2 for the grid join. *)

val target_load : m:int -> p:int -> epsilon:float -> float
(** The paper's load form [m / p^(1-ε)] — the budget a round at skew ε
    is entitled to. The per-round skew reports ([Obs.Sketch.report])
    compare their estimated max load against it. *)

val pp : t Fmt.t

val pp_rounds : t Fmt.t
(** Per-round breakdown: one line per communication round with that
    round's max and total delivery, preceded by the initial partition's
    max. For verbose CLI output; {!pp} stays the one-line form. *)

(** {1 Checkpoint codecs}

    Binary serialization of the statistics records, used by
    [Cluster.snapshot] (the checkpoint of every MPC job) so a resumed
    run stitches its statistics onto the checkpointed prefix, and by
    the wire protocol's MPC replies. *)

val w_round_stats : Lamp_jobs.Codec.w -> round_stats -> unit
val r_round_stats : Lamp_jobs.Codec.r -> round_stats
val w_recovery : Lamp_jobs.Codec.w -> recovery -> unit
val r_recovery : Lamp_jobs.Codec.r -> recovery
