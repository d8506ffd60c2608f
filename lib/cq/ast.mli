(** Abstract syntax of conjunctive queries.

    A conjunctive query (CQ, Section 2 of the paper) is a rule
    [H(x̄) ← R₁(ȳ₁), …, Rₘ(ȳₘ)]. This module also carries the two
    extensions used in Sections 4–5: negated body atoms (the class CQ¬)
    and inequalities between terms (CQ with ≠). A query with neither is a
    plain CQ. *)

open Lamp_relational

type term =
  | Var of string
  | Const of Value.t

val term_equal : term -> term -> bool

type atom = {
  rel : string;
  terms : term list;
}

val atom : string -> term list -> atom
val atom_vars : atom -> string list
(** Variables of an atom, in order of occurrence (with duplicates). *)

val atom_equal : atom -> atom -> bool
val pp_atom : atom Fmt.t

type t = private {
  head : atom;
  body : atom list;  (** Positive body atoms. *)
  negated : atom list;  (** Negated body atoms (CQ¬). *)
  diseq : (term * term) list;  (** Inequalities (CQ with ≠). *)
}

exception Unsafe of string

val make :
  ?negated:atom list ->
  ?diseq:(term * term) list ->
  head:atom ->
  body:atom list ->
  unit ->
  t
(** Builds a query and enforces safety: every variable of the head, of a
    negated atom, and of an inequality must occur in some positive body
    atom.
    @raise Unsafe otherwise. *)

val head : t -> atom
val body : t -> atom list
val negated : t -> atom list
val diseq : t -> (term * term) list

val is_positive : t -> bool
(** No negated atoms and no inequalities: a plain CQ. *)

val has_negation : t -> bool

val vars : t -> string list
(** All variables, sorted. *)

val body_vars : t -> string list
val constants : t -> Value.Set.t

val is_full : t -> bool
(** A full CQ outputs all body variables (the class for which HyperCube
    is defined and transfer drops to NP). *)

val has_self_join : t -> bool
(** Some relation name occurs twice in the positive body. *)

val is_boolean : t -> bool

val body_schema : t -> Schema.t
(** Schema of the (positive and negated) body atoms.
    @raise Invalid_argument if a relation occurs with two arities. *)

val pp : t Fmt.t
val to_string : t -> string
val compare : t -> t -> int
val equal : t -> t -> bool
