(** Seeded, deterministic filesystem fault plans for the durable
    checkpoint store.

    Where {!Plan} injects faults into simulated MPC rounds and {!Net}
    into real sockets, [Disk] injects them into the disk traffic of a
    checkpoint store: a write torn at a drawn byte offset by a power
    cut, a rename that does not survive the crash because the
    directory update was never synced, a short slot (the later read
    comes up truncated), a flipped byte (bit rot), [ENOSPC] on a write
    attempt, and stale temp-file litter. Every decision is a pure
    function of [(seed, job, round, operation)] — never of wall-clock
    time or call order — so a hostile-disk run is reproducible from
    its seed alone, on any backend.

    The plan itself performs no I/O. [Jobs.Io] reads the decisions and
    applies them to real files; [Jobs.Store] routes all its disk
    traffic through that shim. *)

(** Where a one-shot simulated power cut lands inside one atomic slot
    save (write tmp → fsync tmp → retain previous generation → rename
    → fsync directory). *)
type crash_point =
  | Torn_write of float
      (** The tmp write stops at this fraction of the slot (in [0, 1])
          and the process dies: torn, unsynced litter; the previous
          slot is untouched. *)
  | Before_rename
      (** The tmp file is complete and fsynced but the process dies
          before the rename: complete litter, previous slot
          untouched. *)
  | After_rename
      (** The rename was issued but the directory update was lost at
          the power cut (the fsync-lie/rename-lost case): on reboot
          the old slot is back and the "renamed" bytes survive only as
          tmp litter. *)

type spec = {
  crash : (int * crash_point) option;
      (** One-shot simulated power cut: fires during the checkpoint
          save of this round (1-indexed), at the given point. Resume
          with the crash disarmed, like {!Plan.kill_after}. *)
  rot : float;
      (** Per-save probability that exactly one byte of the slot just
          written is XORed with a non-zero mask — bit rot the
          checksum must catch on the next read. *)
  truncate : float;
      (** Per-save probability the slot just written is cut short at a
          drawn fraction — the later read comes up truncated. *)
  enospc : float;
      (** Per-save probability the first write attempt fails with a
          simulated [ENOSPC] (with probability [enospc²] also the
          second) — always fewer failures than the retry budget, so a
          retried save always eventually lands. *)
  litter : float;
      (** Per-save probability a stale tmp file (a previous crash's
          leftover) is planted next to the slot. *)
}

val zero : spec
(** All probabilities 0, no crash — a transparent disk. *)

val chaos : spec
(** Kitchen-sink preset: rot, truncation, [ENOSPC] and litter all
    enabled at moderate rates (no one-shot crash). *)

type t

val none : t
val is_none : t -> bool

val make : ?seed:int -> spec -> t
(** @raise Invalid_argument when a probability is outside [0, 1], a
    torn-write fraction is outside [0, 1], or a crash round is
    negative. *)

val seed : t -> int
val spec : t -> spec

val of_string : ?seed:int -> string -> t
(** Parses a CLI disk-fault spec: comma-separated [key=value] fields
    among [rot], [truncate], [enospc], [litter] (probabilities) and
    [crash=ROUND:POINT] where [POINT] is [torn:FRAC], [pre-rename] or
    [post-rename]; ["none"]/[""] is {!none}, ["chaos"] the {!chaos}
    preset. A trailing ["@seed=N"] (the {!pp} echo) names the seed and
    takes precedence over [?seed], so a logged plan re-parses to the
    identical plan.
    @raise Invalid_argument on malformed input. *)

val pp : t Fmt.t
(** Canonical [spec@seed=N] form, accepted verbatim by {!of_string}. *)

(** {1 Deterministic decisions}

    Exposed so tests can assert a plan's behaviour without a store. *)

type save_faults = {
  crash : crash_point option;  (** The one-shot power cut, this save. *)
  rot_at : (float * int) option;
      (** Fraction of the slot and XOR mask (1–255) of the flipped
          byte. *)
  truncate_at : float option;  (** Fraction of the slot to keep. *)
  enospc_failures : int;
      (** Leading write attempts that fail with [ENOSPC] (0–2; always
          below the retry budget). *)
  litter : bool;  (** Whether a stale tmp file is planted. *)
}

val no_save_faults : save_faults

val save : t -> job:string -> round:int -> save_faults
(** The complete fault assignment for the checkpoint save of [round]
    by [job] — pure, identical for every call. *)
