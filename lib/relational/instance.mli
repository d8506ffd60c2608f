(** Database instances: finite sets of facts, indexed by relation name.

    Instances are persistent (purely functional); all bulk operations are
    set-algebraic on the per-relation tuple sets. *)

type t

val empty : t
val is_empty : t -> bool

val add : Fact.t -> t -> t
val remove : Fact.t -> t -> t
val mem : Fact.t -> t -> bool
val singleton : Fact.t -> t

val of_facts : Fact.t list -> t
(** Bulk constructor: buckets per relation, then one sort-and-dedup
    pass per relation — much faster than repeated {!add} on large
    batches (the MPC merge phase builds every inbox with it). *)

val of_list : Fact.t list -> t

val of_tuple_set : string -> Tuple.Set.t -> t
(** [of_tuple_set rel ts] is the instance holding exactly the tuples
    [ts] under [rel] — O(1), the set is shared, not copied. *)

val add_tuple_set : string -> Tuple.Set.t -> t -> t
(** Bulk union of a whole tuple set into one relation. *)

val tuples : t -> string -> Tuple.Set.t
(** All tuples of the given relation; empty set when absent. *)

val tuple_list : t -> string -> Tuple.t list

val relations : t -> string list
(** Relation names with at least one tuple, sorted. *)

val fold : (Fact.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Fact.t -> unit) -> t -> unit
val facts : t -> Fact.t list

val cardinal : t -> int
(** Number of facts ([m] in the paper's load bounds). *)

val filter : (Fact.t -> bool) -> t -> t
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val subset : t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val adom : t -> Value.Set.t
(** Active domain: all values occurring in some fact. *)

val restrict : Value.Set.t -> t -> t
(** [restrict c t] is the induced subinstance [t|c]: all facts whose
    values all belong to [c] (Lemma 5.7 of the paper). *)

val schema : t -> Schema.t
(** Inferred schema. Mixed arities for one relation are possible in an
    instance; the arity of an arbitrary tuple is reported. *)

val pp : t Fmt.t

val of_string : string -> t
(** Parses facts separated by periods, semicolons or newlines, e.g.
    ["R(a,b). R(b,c). S(a,a)"].
    @raise Invalid_argument on malformed facts. *)
