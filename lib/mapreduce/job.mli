(** MapReduce jobs and programs (the formalization of Section 3).

    A job is a pair (µ, ρ): the map function turns each input fact into
    key-value pairs, pairs are grouped by key, and the reduce function
    turns each group into output facts. A program is a sequence of jobs.
    Values are facts, which is fully general here — arbitrary payloads
    can be tagged through relation names.

    As the paper observes, every MapReduce program is an MPC algorithm:
    map runs during the communication phase, the shuffle is the
    communication, and reduce is the computation phase. {!run_mpc}
    realizes that translation on the simulator, one round per job, and
    agrees with the sequential semantics {!run}. *)

open Lamp_relational

type key = Value.t list

type t = {
  map : Fact.t -> (key * Fact.t) list;
  reduce : key -> Instance.t -> Fact.t list;
}

type program = t list

val run_job : t -> Instance.t -> Instance.t
(** Sequential semantics of a single job. *)

val run : program -> Instance.t -> Instance.t
(** Sequential semantics of a program: each job consumes the previous
    job's output. *)

val run_mpc :
  ?seed:int -> p:int -> program -> Instance.t -> Instance.t * Lamp_mpc.Stats.t
(** Runs a whole program on [p] servers and reports load statistics
    (one round per job). *)

(**/**)

val encode_pair : key * Fact.t -> Fact.t
val decode_pair : Fact.t -> key * Fact.t
