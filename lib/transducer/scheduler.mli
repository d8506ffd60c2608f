(** Schedulers for transducer networks.

    A run is an infinite fair sequence of transitions; finitely many of
    them matter because computations are generic and inputs finite, so
    the schedulers below run to {e quiescence}: no messages in flight
    and a full heartbeat sweep changing nothing. Randomized and
    adversarial (FIFO/LIFO/{!Adversary}) message orders realize the
    model's arbitrary message delay. *)

open Lamp_relational

type schedule =
  | Random_fair of int  (** Seeded random node and message choice. *)
  | Fifo  (** Round-robin nodes, oldest message first. *)
  | Lifo  (** Round-robin nodes, newest message first. *)
  | Adversary of Lamp_faults.Plan.t
      (** The delivery adversary: random delivery that additionally
          {e duplicates} buffered messages (with the plan's [duplicate]
          probability, under a bounded budget so runs terminate) and
          adversarially reorders (preferring the newest message, so old
          ones starve as long as fairness allows). It never drops a
          message — eventual delivery is the one guarantee of the model
          — making it exactly the nondeterminism the CALM theorem
          quantifies over: coordination-free programs converge to the
          same output under it. *)

val adversary : int -> schedule
(** [adversary seed] is an {!Adversary} with a default plan
    (duplicate 0.3, delay 0.2, reorder). *)

exception
  Did_not_quiesce of {
    transitions : int;  (** Transitions consumed before giving up. *)
    in_flight : int;  (** Messages still buffered at that point. *)
  }
(** The transition budget ran out before quiescence — either the budget
    is too small for the input, or the program genuinely diverges. *)

val drain :
  ?schedule:schedule -> ?max_transitions:int -> Network.t -> Instance.t
(** Runs the network to quiescence and returns the union of outputs —
    the eventually consistent answer of the run.
    @raise Did_not_quiesce beyond [max_transitions] (default 200000). *)

val run_silent : ?max_sweeps:int -> Network.t -> Instance.t
(** Heartbeat-only run: no node ever reads its buffer. The
    coordination-freeness witness: a program is coordination-free on an
    ideal distribution when this equals the query answer. *)
