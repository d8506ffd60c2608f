(** The idempotency-key dedup window.

    One logical client op (a {!Wire.request.Keyed} envelope) maps to
    one entry keyed by (client name, key). The first execution claims
    the entry, runs, and {!commit}s its response (opaque strings: the
    server records its frames as they were encoded, before any is
    written); any retry of the same key — typically after a connection
    loss, when the client cannot know whether the op executed —
    {!acquire}s a [`Replay] and writes the record again instead of
    re-executing. An ingest therefore applies {e exactly once} no
    matter how many times the client has to re-send it.

    Entries survive until [capacity] later completions evict them
    (oldest finished first); a claimed (pending) entry is never
    evicted. Only {e successful} completions are recorded — a failed
    attempt {!abort}s so the retry really re-executes. Not
    thread-safe: the server's loop is its one user.

    Client names and keys are both client-chosen, so a (client, key)
    collision — a restarted client whose counter starts over, a second
    process sharing a name — is possible and must never replay another
    operation's recording. Every entry therefore carries a [digest] of
    the request it was recorded for; {!acquire} with the same key but a
    different digest answers [`Mismatch], which the server types as a
    bad request instead of silently returning the wrong responses. *)

type t

type token
(** A claimed pending entry; must be resolved with {!commit} or
    {!abort} exactly once. *)

val create : capacity:int -> t
(** @raise Invalid_argument when [capacity < 1]. *)

val acquire :
  t -> client:string -> key:int -> digest:int ->
  [ `Replay of string list | `Run of token | `Mismatch ]
(** [`Replay r]: this op already completed; answer with the record [r]
    (counted by {!hits}). [`Run tok]: the caller owns the execution.
    [`Mismatch]: the key was recorded for a different request, or is
    claimed and not yet resolved — reject, never replay. [digest] is
    any collision-resistant-enough fingerprint of the inner request
    (the server uses {!Wire.checksum} of its encoding). *)

val commit : t -> token -> string list -> unit
(** Record the op's response. *)

val abort : t -> token -> unit
(** The execution failed or was shed: drop the entry so a retry
    re-executes. *)

val hits : t -> int
(** Replays served so far. *)

val length : t -> int
(** Entries currently held (pending + finished). *)
