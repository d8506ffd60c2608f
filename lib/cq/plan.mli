(** Compiled CQ plans over interned tuples.

    A query compiles once into integer slots and per-atom match
    programs over [int array] tuples (dense {!Lamp_relational.Intern}
    ids); every comparison in the inner join loop is an integer
    operation. The probe position of each atom is chosen statically —
    the bound-slot set at any point of the join order is known at
    compile time. The evaluator in {!Eval} and the Datalog fixpoint
    engine both run on these plans. *)

open Lamp_relational

(** Mutable interned-tuple database: per-relation extents (append-only
    arrays of interned tuples with O(1) duplicate detection) and lazy
    per-column hash indexes that are extended incrementally as deltas
    are appended — never rebuilt. *)
module Db : sig
  type t

  val create : unit -> t
  val of_instance : Instance.t -> t

  val extend : t -> Instance.t -> unit
  (** Appends every fact of the instance, none of which may already be
      in [t]. Column indexes are not rebuilt: each catches up with the
      appended tuples on its next probe. *)

  val add : t -> rel:string -> int array -> bool
  (** Appends an interned tuple; [false] if it was already present. *)

  val mem : t -> rel:string -> int array -> bool
  val count : t -> string -> int

  val probe : t -> rel:string -> pos:int -> key:int -> int array list
  (** Tuples of [rel] whose column [pos] holds value id [key]. Builds
      or extends the column index as needed. *)

  val fold_extent : t -> string -> ('a -> int array -> 'a) -> 'a -> 'a

  val replace : t -> rel:string -> int array list -> unit
  (** Replaces a relation's whole extent (used for per-round delta
      relations); its indexes are dropped and rebuilt lazily. *)

  val to_instance : ?keep:(string -> bool) -> t -> Instance.t

  (** {2 Raw column access}

      Zero-copy handles into a relation's extent and its flat-bucket
      column indexes, for the {!Wcoj} leapfrog backend: handles are
      resolved once per fold and buckets are then read in place (the
      record layout is [arity, v0, ..., v_{arity-1}]), so the
      worst-case-optimal join runs on exactly the same index structure
      as the binary-join plans — nothing is materialized twice. *)

  type raw_store
  type raw_col
  type raw_bucket

  val raw_store : t -> string -> raw_store
  (** The relation's store, created empty if absent. *)

  val raw_n : raw_store -> int
  (** Number of tuples in the extent. *)

  val raw_tuple : raw_store -> int -> int array
  (** The i-th extent tuple, in place — do not mutate. *)

  val raw_col : raw_store -> int -> raw_col
  (** The column index at a position, built or incrementally extended
      to cover the current extent. *)

  val raw_sync : raw_store -> raw_col -> int -> unit
  (** Re-extends the column index if the extent grew since {!raw_col}
      (the [pos] must be the one the handle was resolved at). *)

  val raw_find : raw_col -> int -> raw_bucket option
  (** The bucket of tuples holding the given value id at the handle's
      column, if any. *)

  val raw_data : raw_bucket -> int array
  val raw_len : raw_bucket -> int
end

type t

val make : ?counts:(string -> int) -> Ast.t -> t
(** Compiles [q], ordering body atoms greedily by [counts] (relation
    cardinality estimates; default all zero). Duplicate body atoms —
    even physically shared ones — each keep their own join step. *)

val atom_count : t -> int
(** Number of join steps (= body atoms) in the compiled plan. *)

val head_rel : t -> string

val fold : t -> Db.t -> (int array -> 'a -> 'a) -> 'a -> 'a
(** Folds over all satisfying assignments. The [int array] of value
    ids per slot passed to the callback is reused between calls — copy
    it (or convert via {!head_tuple} / {!valuation}) before
    retaining. Disequalities and negated atoms are checked against
    [db] at the leaves. *)

val head_tuple : t -> int array -> int array
(** The interned head tuple derived by a register assignment. *)

val derive : t -> Db.t -> int array list
(** Evaluates the plan, adding every derived head tuple to [db]'s
    head relation as it is found, and returns the genuinely new
    tuples. Duplicate derivations allocate nothing: the head is
    resolved into a scratch buffer and checked against the extent's
    duplicate table before being copied. *)

val valuation : t -> int array -> Valuation.t
(** The {!Valuation.t} a register assignment denotes (conversion at
    the leaves — the engine never manipulates valuation maps). *)
