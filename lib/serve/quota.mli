(** Token-bucket rate limiting, one bucket per client.

    A bucket holds up to [burst] tokens and refills continuously at
    [rate] tokens per second; each admitted request spends one token.
    A client that stays below [rate] requests/second is never
    throttled, and may burst [burst] requests instantly after an idle
    spell — the standard shape for smoothing the load generator's
    request storms without starving interactive clients.

    The clock is injectable so tests drive time deterministically, and
    the bucket is hardened against clock jumps: a backwards step
    refills nothing (but resyncs, so refills resume immediately), and
    an arbitrarily large forward jump clamps at [burst] — never a free
    burst beyond it, never an overflow. *)

type t

val create : ?clock:(unit -> float) -> rate:float -> burst:float -> unit -> t
(** [clock] defaults to [Unix.gettimeofday]. The bucket starts full.
    @raise Invalid_argument unless [rate > 0] and [burst >= 1]. *)

val try_take : ?cost:float -> t -> bool
(** Spend [cost] tokens (default 1): [true] and debits on success,
    [false] (and no debit) when the bucket holds fewer than [cost].
    Not thread-safe: the server's loop is its one user. *)

val tokens : t -> float
(** Current token count after refill — for stats, not for
    decisions. *)
