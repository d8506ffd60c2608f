(** Share allocation for one-round multiway joins.

    The Shares algorithm of Afrati–Ullman assigns each query variable a
    {e share} — a dimension of the server grid — and replicates each atom
    across the dimensions it does not mention. Afrati–Ullman optimize
    {e total communication}; Beame–Koutris–Suciu's HyperCube instead
    minimizes the {e maximum per-server load}, which their lower bound
    shows optimal. Both objectives are available here, decided exactly by
    exhaustive enumeration of integer share vectors (the queries of the
    paper have ≤ 4 variables) alongside the LP-guided rounding used for
    larger p. *)

open Lamp_cq

val enumerate_share_vectors :
  p:int -> string list -> ((string * int) list -> unit) -> unit
(** All integer share vectors over the variables with product ≤ p. *)

val product : (string * int) list -> int

val atom_replication : shares:(string * int) list -> Ast.atom -> int
(** Number of copies of each tuple of the atom's relation: the product
    of the shares of the variables the atom does not mention. *)

type objective =
  | Total_communication
      (** Afrati–Ullman Shares: minimise Σ_atoms size(atom) ·
          replication(atom). *)
  | Max_load
      (** Beame–Koutris–Suciu HyperCube: minimise the skew-free
          per-server load Σ_atoms size(atom) / Π_{v ∈ atom} share(v). *)

val optimize :
  ?objective:objective ->
  p:int ->
  sizes:(Ast.atom -> int) ->
  Ast.t ->
  (string * int) list * float
(** Optimal integer shares for the chosen objective and their predicted
    cost.
    @raise Invalid_argument on non-positive queries. *)

val lp_rounded : p:int -> Ast.t -> (string * int) list
(** Integer shares obtained by rounding the fractional LP exponents
    [p**e_v] and repairing the budget — the practical choice when
    exhaustive enumeration is too slow. *)
