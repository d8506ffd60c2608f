(** Query hypergraphs: fractional edge packings/covers and acyclicity.

    The hypergraph of a CQ has the body variables as vertices and one
    hyperedge per body atom. Its optimal fractional edge packing value
    τ* governs the HyperCube load bound (Section 3.1); GYO ear removal
    decides acyclicity and produces the join trees consumed by the
    Yannakakis and GYM algorithms (Section 3.2). *)

module Sset : Set.S with type elt = string

val tau_star : Ast.t -> float
(** Optimal fractional edge packing value τ* of the query's hypergraph.
    The skew-free one-round load bound is [m / p**(1/tau)]; e.g. 3/2 for
    the triangle query. *)

val rho_star : Ast.t -> float
(** Optimal fractional edge cover value ρ* (the AGM exponent). *)

val share_exponents : Ast.t -> float * (string * float) list
(** [(t, exponents)] where assigning variable [v] the share [p**e_v]
    gives every atom a replication-weighted load of [m / p**t], with
    [t = 1/τ*]. These drive {!Lamp_mpc.Hypercube}. *)

type join_tree = {
  atom : Ast.atom;
  vars : Sset.t;
  children : join_tree list;
}

val join_tree_atoms : join_tree -> Ast.atom list

val gyo : Ast.t -> join_tree list option
(** GYO ear removal. Returns a join forest (one tree per connected
    component of the hypergraph) when the query is acyclic, [None]
    otherwise. The forest satisfies the running-intersection property. *)

val is_acyclic : Ast.t -> bool
