(** Seeded, deterministic fault plans.

    A plan decides, for every coordinate of a simulated execution —
    (round, server) for crashes, (round, source, message index) for
    message fates, (round, phase, task) for task faults — whether a
    fault fires. Decisions are pure functions of the plan's seed and
    those coordinates, {e never} of call order or wall-clock time, so a
    faulty run is reproducible bit-for-bit on any backend: the pool
    executor may interleave tasks arbitrarily and every task still draws
    the same faults as the sequential one.

    [none] is the distinguished empty plan: every decision it makes is
    a constant — no crash, every message delivered, no stall, no
    transient failure — so [Mpc.Cluster] runs one round body with or
    without faults. *)

type spec = {
  crash : float;  (** Per-round, per-server crash-stop probability. *)
  drop : float;  (** Per-message drop probability. *)
  duplicate : float;  (** Per-message duplication probability. *)
  delay : float;
      (** Per-message straggler probability: the message misses the
          round's main wave and arrives with the recovery traffic. *)
  reorder : bool;  (** Deterministically shuffle each source's messages. *)
  straggle : float;
      (** Per-task straggler probability: the task sleeps briefly,
          perturbing real scheduling without changing any result. *)
  transient : float;
      (** Per-task transient-fault probability. An affected task raises
          {!Transient} on its first (with probability [transient²] also
          its second) attempt; always fewer than [max_attempts - 1]
          failures, so retried tasks always eventually succeed. *)
  speculate : float;
      (** Speculation budget in seconds; 0 disables mitigation. A task
          whose straggler delay reaches the budget is re-executed as a
          deterministic backup copy after waiting only the budget — see
          {!straggler}. *)
  kill_after : int option;
      (** Simulated process death: the supervised job raises
          [Jobs.Supervisor.Killed] right after persisting the
          checkpoint of this round (0 = before any work). *)
  perma : (int * int) option;
      (** [(round, server)]: the server permanently crash-stops before
          that round (1-indexed); the job supervisor rebalances the
          survivors. *)
}

val zero : spec
(** All probabilities 0, [reorder = false]. *)

val chaos : spec
(** A kitchen-sink preset: crashes, message faults, reordering,
    stragglers and transient faults all enabled at moderate rates. *)

type t

val none : t
(** The empty plan: no decision ever fires; {!is_none} holds. *)

val is_none : t -> bool

val make : ?seed:int -> spec -> t
(** @raise Invalid_argument when a probability is outside [0, 1] or
    [drop + duplicate + delay > 1]. *)

val seed : t -> int
val spec : t -> spec

val of_string : ?seed:int -> string -> t
(** Parses a CLI fault spec: comma-separated [key=value] fields among
    [crash], [drop], [dup], [delay], [straggle], [transient],
    [speculate] (floats), [kill=ROUND], [perma=ROUND:SERVER] (ints)
    and the bare flag [reorder]; ["none"] or [""] is {!none} and
    ["chaos"] is the {!chaos} preset. A trailing ["@seed=N"] (the
    {!pp} echo) names the seed and takes precedence over [?seed], so a
    logged plan re-parses to the identical plan.
    @raise Invalid_argument on malformed input. *)

val pp : t Fmt.t
(** Canonical [spec@seed=N] form, accepted verbatim by {!of_string}. *)

val draw : seed:int -> label:int -> int -> int -> int -> float
(** The raw deterministic draw underlying every decision: a uniform
    float in [0, 1) that is a pure function of [(seed, label, a, b, c)].
    Exposed so every seeded draw in lamp shares one mixer; label spaces
    must not overlap (Plan uses 1–7, {!Net} 100+, {!Disk} 200+, the
    retry backoff jitter of [Runtime.Executor] 300). *)

(** {1 Deterministic decisions} *)

type phase = Communicate | Merge | Compute

val phase_name : phase -> string

type fate =
  | Deliver
  | Drop  (** Lost in the main wave; retransmitted during recovery. *)
  | Duplicate  (** Shipped twice (set-union merge absorbs the copy). *)
  | Delay  (** Held back; delivered with the recovery traffic. *)

val crashes : t -> round:int -> server:int -> bool
(** Whether the server crash-stops during this round. *)

val fate : t -> round:int -> src:int -> index:int -> fate
(** Fate of source [src]'s [index]-th message of the round. *)

val permute : t -> round:int -> lane:int -> 'a list -> 'a list
(** Deterministic shuffle of a message batch when [reorder] is set;
    identity otherwise. [lane] disambiguates batches within a round
    (typically the source server). *)

exception Transient of string
(** The injected transient task fault. *)

val is_transient : exn -> bool

val max_attempts : int
(** Retry budget sufficient for any plan's transient faults (4). *)

val transient_failures : t -> round:int -> phase:phase -> task:int -> int
(** How many leading attempts of this task fail (0, 1 or 2). *)

val inject : t -> round:int -> phase:phase -> task:int -> attempt:int -> unit
(** Raises {!Transient} iff [attempt <= transient_failures] (attempts
    are 1-based). Call at the top of a retryable task body. *)

type straggler = {
  stall : float;  (** The drawn stall: 0.1–1 ms, 0 for a task on time. *)
  wait : float;
      (** What the task sleeps before it runs: its stall, or the
          [speculate] budget when the backup copy wins. *)
  backup : bool;
      (** Whether a backup copy outran the stalled primary: the stall
          exceeds a nonzero budget, or equals it and a seeded draw
          breaks the tie for the backup. *)
}

val straggler : t -> round:int -> phase:phase -> task:int -> straggler
(** The task's straggler verdict, a pure function of the plan and the
    coordinates. A task straggles with probability [straggle]; with a
    [speculate] budget its backup copy, the same pure body started once
    the budget has passed, wins when the stall runs past it. The task's
    result never depends on the verdict, only its wall clock does. *)

(** {1 Job-level failures} *)

val kill_after : t -> int option
(** The plan's [kill] field: simulated process death after this
    round's checkpoint. *)

val perma_crash : t -> round:int -> int option
(** [perma_crash t ~round] is [Some s] iff the plan's [perma] entry
    names exactly this (1-indexed) round: server [s] is permanently
    gone before the round starts. *)
