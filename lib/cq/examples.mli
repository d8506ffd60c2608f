(** The worked queries of the paper, as parsed values.

    Keeping them in one place lets tests, examples and benches refer to
    the paper's running examples by name. *)

val q1_join : Ast.t
(** Example 3.1(1): [H(x,y,z) ← R(x,y), S(y,z)]. *)

val q2_triangle : Ast.t
(** Example 3.1(2) / 3.2: the triangle query over three distinct
    relations [R], [S], [T]. *)

val qe_example_4_1 : Ast.t
(** Example 4.1: [H(x1,x3) ← R(x1,x2), R(x2,x3), S(x3,x1)]. *)

val q_example_4_3 : Ast.t
(** Example 4.3 / 4.5: [H(x,z) ← R(x,y), R(y,z), R(x,x)] — the query
    showing that (PC0) is not necessary for parallel-correctness. *)

val q1_example_4_11 : Ast.t
(** [H() ← S(x), R(x,x), T(x)]. *)

val q2_example_4_11 : Ast.t
(** [H() ← R(x,x), T(x)]. *)

val q3_example_4_11 : Ast.t
(** [H() ← S(x), R(x,y), T(y)]. *)

val q4_example_4_11 : Ast.t
(** [H() ← R(x,y), T(y)]. *)

val triangles_distinct : Ast.t
(** Example 5.1(1): all triangles with pairwise distinct nodes, over a
    single edge relation [E]. *)

val open_triangle : Ast.t
(** Example 5.1(2): open triangles [H(x,y,z) ← E(x,y), E(y,z), ¬E(z,x)]
    — the paper's non-monotone running example. *)

val full_triangle_e : Ast.t
(** Triangle query over a single edge relation, without inequalities. *)

val q_four_cycle : Ast.t
(** The 4-cycle [H(x,y,z,w) ← R(x,y), S(y,z), T(z,w), U(w,x)] — with
    the triangle and the cliques, the canonical cyclic queries on which
    worst-case-optimal joins beat every binary join plan. *)

val q_clique : int -> Ast.t
(** [q_clique k] is the k-clique query
    [H(x1,…,xk) ← Eij(xi,xj) for 1 ≤ i < j ≤ k] over one binary
    relation per edge ({!clique_rels} names them), so it is self-join
    free and every MPC entry point applies directly. Populate all the
    [Eij] with the same edge set to count cliques of one graph.
    @raise Invalid_argument when [k < 2]. *)

val clique_rels : int -> string list
(** The relation names [q_clique k] uses, in atom order. *)
