(** The filesystem shim every disk access of {!Store} goes through.

    Without a plan it is a transparent passthrough with the full fsync
    discipline: slot bytes are fsynced before the rename and the
    containing directory after it, so a power loss can no longer
    resurrect the old slot or leave an empty one. Under a
    {!Lamp_faults.Disk} plan, torn writes, lost renames, bit rot, short
    slots, [ENOSPC] and stale tmp litter fire deterministically at the
    plan's drawn coordinates, against real files — so the recovery path
    is exercised by the actual syscall sequence, not a mock.

    Injection applies only to slot saves carrying a {!ctx} (a job's
    checkpoint write); recovery writes — promoting a fallback
    generation, repairs by fsck — pass no context and are never
    faulted, so recovery cannot be wedged by the plan that made it
    necessary. *)

exception Crashed of {
  job : string;
  round : int;
  point : string;
}
(** The simulated power cut of a [crash=] plan: the save died at this
    point, leaving the filesystem exactly as a real crash would (torn
    or complete tmp litter, the previous slot restored). The process is
    expected to stop and resume from the store — like
    [Supervisor.Killed], but mid-write instead of between rounds. *)

exception No_space of {
  path : string;
  hint_s : float;
}
(** The simulated [ENOSPC]: the write attempt failed after a partial
    write. [hint_s] is the suggested floor for the retry sleep (the
    store retries through [Runtime.Executor.with_retry ~hint]). *)

type ctx = {
  job : string;
  round : int;
  attempt : int;  (** 1-based write attempt, for [ENOSPC] retries. *)
}
(** Coordinates a slot save passes so the plan can draw its faults. *)

type t

val create : Lamp_faults.Disk.t -> t
(** A shim applying the plan's decisions; [create Disk.none] is the
    passthrough, injecting nothing. *)

val plan : t -> Lamp_faults.Disk.t

val injected : t -> (string * int) list
(** Sorted [(fault, count)] of faults actually applied so far —
    ["torn"], ["pre-rename"], ["post-rename"], ["rot"], ["truncate"],
    ["enospc"], ["litter"]. *)

(** {1 Operations} *)

val mkdir_p : string -> unit
val exists : string -> bool
val list_dir : string -> string list
(** Entries of the directory, sorted; [] if it does not exist. *)

val remove : string -> unit
(** Idempotent unlink: missing files are not an error. *)

val read_file : string -> string
(** Whole-file read. Reads are never injected — they see whatever the
    (possibly faulted) writes left on disk. *)

val write_tmp : t -> ?ctx:ctx -> path:string -> string -> unit
(** Writes [path] in full and fsyncs it. Under a plan (and a [ctx]):
    may plant stale tmp litter next to it, fail the attempt with
    {!No_space} after a partial write, or die mid-write with
    {!Crashed} (a torn, unsynced [path] remains). *)

val replace :
  t -> ?ctx:ctx -> ?prev:string -> tmp:string -> dst:string -> unit ->
  [ `Intact | `Damaged ]
(** Atomically renames [tmp] over [dst], fsyncing the containing
    directory before and after; when [prev] is given and [dst] exists,
    the old [dst] is first retained at [prev] (the previous
    generation). Under a plan: {!Crashed} may fire before the rename
    (complete tmp litter, [dst] untouched) or "after" it (the rename is
    undone — the directory update was lost — and [tmp] reappears);
    the just-renamed slot may be bit-rotted or truncated in place, in
    which case [`Damaged] is returned so the store knows the current
    generation is not to be trusted as a fallback. *)
