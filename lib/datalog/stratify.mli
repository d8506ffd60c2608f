(** Stratification of Datalog programs with negation.

    A program is stratified when its predicates can be layered so that
    recursion never passes through negation; stratified programs are
    evaluated stratum by stratum, treating lower strata as extensional. *)

module Smap : Map.S with type key = string

exception Not_stratifiable of string

val strata : Program.t -> int Smap.t
(** Minimal stratum number per IDB predicate.
    @raise Not_stratifiable on a negative cycle. *)

val is_stratifiable : Program.t -> bool

val layers : Program.t -> Program.rule list list
(** The program's rules grouped by head stratum, lowest first, empty
    layers removed.
    @raise Not_stratifiable on a negative cycle. *)
