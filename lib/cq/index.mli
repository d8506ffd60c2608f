(** Lazy per-column hash indexes over an instance, used by the
    value-level evaluators ({!Scale}, and the test oracle's generic
    join) to probe candidate tuples for partially bound atoms. *)

open Lamp_relational

type t

val create : Instance.t -> t
val instance : t -> Instance.t

val lookup : t -> rel:string -> pos:int -> value:Value.t -> Tuple.t list
(** Tuples of [rel] whose column [pos] holds [value]. Builds the column
    index on first use. *)

val all : t -> rel:string -> Tuple.t list
val count : t -> rel:string -> int
