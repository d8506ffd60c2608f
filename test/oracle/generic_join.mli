(** Worst-case optimal (generic) join.

    The multiway join algorithm in the NPRR / Leapfrog-Triejoin style:
    variables are bound one at a time and each variable's candidates are
    the {e intersection} of the value sets offered by all atoms
    containing it, iterated smallest-set-first. Unlike any binary join
    plan, the work is bounded by the AGM bound m^ρ* — this is the
    sequential algorithm Chu–Balazinska–Suciu [26] combine with
    HyperCube for the paper's Section 3.1 empirical discussion, and
    [39]'s building block for worst-case optimal parallel processing.

    A value-level oracle: the engine's worst-case optimal backend is
    {!Lamp_cq.Wcoj}, and the property suites check it and the binary
    plans against this module. *)

open Lamp_relational
open Lamp_cq

val default_order : Ast.t -> string list
(** Most-constrained-first variable order: variables covered by more
    body atoms come first, ties broken by variable name (ascending).
    Deterministic — a pure function of the query, never of hash or
    iteration order — so the oracle runs the {!Wcoj} property suite
    compares against are reproducible. *)

val eval : ?order:string list -> Ast.t -> Instance.t -> Instance.t
(** Evaluates a positive CQ (inequalities allowed); agrees with
    {!Eval.eval} on every query and instance, which the test suite
    checks by property.
    @raise Invalid_argument on CQ¬ or on an [order] that does not
    enumerate the body variables. *)

val fold :
  ?order:string list -> Ast.t -> Index.t -> (Valuation.t -> 'a -> 'a) -> 'a -> 'a
(** Folds over all satisfying valuations, reusing a prebuilt index. *)
