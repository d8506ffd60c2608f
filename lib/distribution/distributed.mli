(** One-round distributed evaluation under a distribution policy.

    [eval q p i] is the paper's [⟦Q, P⟧(I) = ⋃_κ Q(loc-inst_{P,I}(κ))]:
    reshuffle the data according to the policy, evaluate the query
    locally everywhere, and take the union. Parallel-correctness asks
    when this equals [Q(I)]. *)

open Lamp_relational
open Lamp_cq

val eval : Ast.t -> Policy.t -> Instance.t -> Instance.t
(** The one-round result [⟦Q, P⟧(I)]. *)

val eval_ucq : Ast.t list -> Policy.t -> Instance.t -> Instance.t

val max_load : Policy.t -> Instance.t -> int
(** Largest local instance over the network — the quantity the MPC load
    bounds of Section 3 are about. *)

val total_load : Policy.t -> Instance.t -> int
(** Sum of the local instance sizes (the "communication cost" of the
    Shares literature; counts replication). *)
