(** Distribution policies (Section 4.1 of the paper).

    A distribution policy [P = (U, rfacts_P)] pairs an optional finite
    universe with a responsibility relation between nodes and facts. Any
    mapping from facts to node sets can be expressed; the constructors
    below cover the families the paper discusses: explicitly enumerated
    policies (the class Pfin), hash-based repartitionings, HyperCube
    grids, and the domain-guided policies of Section 5.2.2. *)

open Lamp_relational
open Lamp_cq

type kind =
  | Explicit
  | Hash
  | Hypercube
  | Domain_guided
  | Custom

type t

val make :
  ?kind:kind ->
  ?universe:Value.Set.t ->
  name:string ->
  nodes:Node.t list ->
  (Node.t -> Fact.t -> bool) ->
  t
(** Wraps an arbitrary responsibility predicate.
    @raise Invalid_argument on an empty network. *)

val name : t -> string
val kind : t -> kind
val nodes : t -> Node.t list

val universe : t -> Value.Set.t option
(** The policy's universe, when finite and known. The
    parallel-correctness deciders require it. *)

val responsible : t -> Node.t -> Fact.t -> bool
(** [responsible t κ f]: whether node [κ] is responsible for fact [f],
    i.e. [f ∈ rfacts_P(κ)]. *)

val responsible_nodes : t -> Fact.t -> Node.t list
(** The nodes responsible for a fact, in {!nodes} order: exactly
    [List.filter (fun κ -> responsible t κ f) (nodes t)]. HyperCube
    policies compute the list directly from the fact's grid cells;
    every other policy asks each node. *)

val loc_inst : t -> Instance.t -> Node.t -> Instance.t
(** [loc_inst t i κ] is the local instance [I ∩ rfacts_P(κ)]. *)

val with_universe : Value.Set.t -> t -> t
val pp : t Fmt.t

(** {1 Constructors} *)

val explicit :
  ?universe:Value.Set.t -> name:string -> (Node.t * Fact.t list) list -> t
(** A policy of class Pfin: all (node, fact) responsibility pairs listed
    explicitly. The universe defaults to the values occurring in the
    listed facts. *)

val hash_values : seed:int -> buckets:int -> Value.t list -> int
(** The seeded hash every route in lamp uses: the bucket in
    [\[0, buckets)] of the values' strings joined by NUL bytes. Hash
    and HyperCube policies hash one value; GYM's ops, MapReduce keys
    and the cascade's second round hash a tuple of them.
    @raise Invalid_argument when [buckets < 1]. *)

val hash_value : seed:int -> buckets:int -> Value.t -> int
(** [hash_value ~seed ~buckets v] is [hash_values ~seed ~buckets [v]]. *)

type unlisted =
  | Drop  (** Relations without a listed column belong to no node. *)
  | Broadcast  (** Such relations are everyone's responsibility. *)

val hash_by_position :
  ?universe:Value.Set.t ->
  ?seed:int ->
  ?unlisted:unlisted ->
  name:string ->
  p:int ->
  (string * int) list ->
  t
(** Repartition policy (Example 3.1(1a)): a fact of relation [r] with
    listed column [c] is the responsibility of the node its [c]-th value
    hashes to. *)

val hypercube :
  ?universe:Value.Set.t ->
  ?seed:int ->
  name:string ->
  query:Ast.t ->
  shares:(string * int) list ->
  unit ->
  t * Grid.t
(** The HyperCube policy of a positive CQ (Example 3.2): nodes form a
    grid with one dimension of size [shares v] per body variable; a fact
    matching a body atom is the responsibility of every node agreeing
    with the hashed coordinates of the atom's variables. Facts that
    cannot instantiate any atom (e.g. mismatching a repeated variable or
    a constant) belong to no node. Every HyperCube policy strongly
    saturates its query, whatever the shares and hash seeds.
    @raise Invalid_argument on non-positive queries, missing shares, or
    shares < 1. *)

val hypercube_replication :
  query:Ast.t -> shares:(string * int) list -> Fact.t -> int
(** Number of nodes a fact is replicated to under the HyperCube policy. *)

val range :
  ?universe:Value.Set.t ->
  ?unlisted:unlisted ->
  name:string ->
  rel:string ->
  pos:int ->
  Value.t list ->
  t
(** Primary horizontal fragmentation by range — the paper's Section 4.1
    example of a Customer relation partitioned by a threshold on the
    area code. [k] thresholds split the value order into [k+1] ranges,
    one node each; facts of [rel] go to the node owning the range of
    their [pos]-th value.
    @raise Invalid_argument on an empty threshold list. *)

val domain_guided :
  ?universe:Value.Set.t ->
  name:string ->
  nodes:Node.t list ->
  (Value.t -> Node.Set.t) ->
  t
(** The domain-guided policy [P_α] induced by a domain assignment [α]
    (Section 5.2.2): every node of [α(a)] is responsible for every fact
    containing [a]. *)

val broadcast_all : ?universe:Value.Set.t -> name:string -> p:int -> unit -> t
(** Every node is responsible for every fact — the "ideal distribution"
    witnessing coordination-freeness in Theorem 5.3. *)
