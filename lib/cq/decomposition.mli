(** Tree decompositions of (possibly cyclic) conjunctive queries.

    The GYM algorithm of Section 3.2 takes a tree decomposition of a
    possibly cyclic query, evaluates the atoms grouped in each bag with
    the Shares/HyperCube algorithm, and runs Yannakakis over the
    resulting tree; the shape of the decomposition (depth, bag width)
    trades rounds against communication. This module provides the
    decompositions: the trivial single bag, the per-atom decomposition
    of acyclic queries, and a min-fill variable-elimination heuristic
    for the general case — plus a complete validity checker. *)

module Sset = Hypergraph.Sset

type bag = {
  vars : Sset.t;
  atoms : Ast.atom list;  (** Query atoms evaluated jointly in the bag. *)
}

type t = {
  bag : bag;
  children : t list;
}

val bags : t -> bag list
val depth : t -> int

val width : t list -> int
(** Largest number of atoms in a bag (the hypertree-width-style measure
    driving the bag-join cost). *)

val validate : Ast.t -> t list -> (unit, string) result
(** Checks the decomposition: every positive body atom covered by some
    bag, bag atoms within bag variables, and the running-intersection
    property for every variable. *)

val singleton : Ast.t -> t list
(** The trivial decomposition: one bag holding the whole body. *)

val of_join_forest : Hypergraph.join_tree list -> t list
(** One bag per atom, from a GYO join forest (acyclic queries). *)

val min_fill : Ast.t -> t list
(** Tree decomposition by min-fill variable elimination on the query's
    primal graph; each bag holds every atom its variables cover. Always
    valid (the test suite checks this by property); bag width is
    heuristic, not optimal. *)

val pp : t Fmt.t
