(** Database schemas: relation names with associated arities. *)

type t

val empty : t

val add : string -> arity:int -> t -> t
(** @raise Invalid_argument if the relation was already declared with a
    different arity, or if [arity] is negative. *)

val of_list : (string * int) list -> t

val arity : t -> string -> int option
val mem : t -> string -> bool
val relations : t -> string list
val to_list : t -> (string * int) list

val conforms : t -> Fact.t -> bool
(** [conforms t f] holds when [f]'s relation is declared in [t] with
    matching arity. *)

val union : t -> t -> t
(** @raise Invalid_argument on conflicting arities. *)

val pp : t Fmt.t
