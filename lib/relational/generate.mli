(** Synthetic instance generators.

    These stand in for the big-data workloads of the paper's cited
    experiments: skew-free ("matching") databases as used in the lower
    bounds of Beame–Koutris–Suciu, Zipf-skewed relations exhibiting heavy
    hitters, and random graphs for the triangle queries. All randomized
    generators take an explicit [Random.State.t] so that experiments are
    reproducible. *)

val random_graph :
  ?rel:string -> rng:Random.State.t -> nodes:int -> edges:int -> unit ->
  Instance.t
(** Uniform random directed graph ([edges] samples with replacement, so
    the result may contain slightly fewer distinct facts). *)

val matching : ?rel:string -> size:int -> offset:int -> unit -> Instance.t
(** Skew-free relation in which every domain value occurs exactly once:
    facts [rel(offset+i, offset+size+i)] for [i < size]. This realizes
    the "matching databases" of the paper's Section 3.2. *)

val zipf_sampler : rng:Random.State.t -> n:int -> s:float -> unit -> int
(** Zipf(s) sampler over [1..n]; rank 1 is the heaviest hitter. *)

val skewed_star :
  ?rel:string -> hub:int -> size:int -> offset:int -> unit -> Instance.t
(** Worst-case skew: all facts share the join value [hub], i.e.
    [rel(hub, offset+i)]. *)

val random_relation :
  rng:Random.State.t -> rel:string -> arity:int -> size:int -> domain:int ->
  unit -> Instance.t

val random_instance :
  rng:Random.State.t -> schema:Schema.t -> size:int -> domain:int -> unit ->
  Instance.t
(** Random instance over a schema, used by property-based tests. *)
