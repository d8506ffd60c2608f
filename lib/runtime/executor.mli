(** The execution backend of the simulator: where per-server work runs.

    An executor is either [Sequential] — everything on the calling
    domain, the seed behaviour — or a {!Pool} of domains. The
    combinators below are deterministic across backends: results are
    assembled in index order, so any computation whose per-index work is
    pure (and, for {!map_reduce}, whose [combine] is associative)
    produces identical values on both. The MPC simulator relies on this
    to keep its load statistics bit-identical whatever the backend. *)

type t

val sequential : t
(** Runs every combinator inline on the calling domain. *)

val pool : ?chunk:int -> Pool.t -> t
(** Runs combinators on the pool. [chunk] fixes the number of
    consecutive indices grouped into one pool task; by default a batch
    of [n] indices is cut into at most [4 × workers] chunks. *)

val workers : t -> int
(** 1 for {!sequential}, the pool size otherwise. *)

val backend_name : t -> string
(** ["seq"] or ["pool"]. *)

val parallel_for : t -> ?chunk:int -> n:int -> (worker:int -> int -> unit) -> unit
(** [parallel_for e ~n f] runs [f ~worker i] for [i = 0 .. n - 1].
    [worker < workers e] identifies the executing worker, for
    per-worker accumulators. Blocks until all indices are done;
    re-raises the first task exception. *)

val map_array : t -> ?chunk:int -> n:int -> (int -> 'a) -> 'a array
(** [map_array e ~n f] is [| f 0; …; f (n - 1) |], computed across the
    backend. *)

val map_reduce :
  t -> ?chunk:int -> n:int -> map:(int -> 'a) -> combine:('a -> 'a -> 'a) ->
  'a -> 'a
(** [map_reduce e ~n ~map ~combine init] folds [combine] over
    [map 0 … map (n - 1)] starting from [init], always associating in
    index order. [combine] must be associative for the result to be
    chunking-independent. *)

(** {1 Retry} *)

val exponential_backoff :
  ?base:float ->
  ?factor:float ->
  ?max_delay:float ->
  ?jitter:float ->
  seed:int ->
  unit ->
  int ->
  float
(** [exponential_backoff ~seed ()] is a delay schedule for
    {!with_retry}'s [delay]: attempt [k] waits
    [min (base·factor^(k-1)) max_delay] seconds, inflated by a
    deterministic jitter in [\[0, jitter)] drawn by hashing
    [(seed, k)] — the same seed always yields the same delays, so
    retried runs remain reproducible while distinct seeds decorrelate
    (no thundering herd). Defaults: [base = 1ms], [factor = 2],
    [max_delay = 100ms], [jitter = 0.5].
    @raise Invalid_argument on a negative parameter or [factor < 1]. *)

val with_retry :
  ?max_attempts:int ->
  ?backoff:(int -> unit) ->
  ?delay:(int -> float) ->
  ?budget:float ->
  ?hint:(exn -> float option) ->
  retryable:(exn -> bool) ->
  (attempt:int -> 'a) ->
  'a
(** [with_retry ~retryable f] runs [f ~attempt:1]; when it raises an
    exception accepted by [retryable] it is retried — [backoff] (called
    with the failed attempt number; default none) then [f ~attempt:k] —
    up to [max_attempts] (default 4) total attempts, after which the
    exception propagates. Non-retryable exceptions propagate
    immediately. Retries bump the ["runtime.retries"] trace counter.

    [delay] (e.g. {!exponential_backoff}) is slept between attempts;
    [budget] caps the {e cumulative} sleep: a retry whose delay would
    push the total past the budget is abandoned and the exception
    propagates — a straggling task fails fast instead of blocking its
    round indefinitely.

    [hint] extracts a server-suggested minimum wait from the failed
    attempt's exception (e.g. an [Overloaded {retry_after_s}] serve
    error): when present it {e floors} the next sleep — the schedule's
    delay is used unless the hint is larger — and counts against the
    budget like any other sleep.

    Deterministic as long as [f], [backoff], [delay] and [hint] are:
    no clocks or randomness are involved. Use inside a pool task to
    absorb transient faults without poisoning the batch. *)

type counters = {
  tasks : int;  (** tasks executed since the executor was created *)
  steals : int;  (** work-stealing events (0 on [Sequential]) *)
}

val counters : t -> counters
(** Cumulative instrumentation counters; subtract two snapshots to
    meter a region. *)

val in_flight : t -> int
(** Indices of the currently running batch not yet completed, 0 when
    idle. Readable from any thread or domain (one atomic load), so a
    serving layer's admission control and stats endpoint can observe a
    busy executor without synchronizing with it. On {!sequential} the
    gauge only moves while a combinator runs on another thread — reading
    it from the same thread always yields 0 or the remaining count of
    the batch that is interrupted by the read. *)

val backend_pool : t -> Pool.t option
(** The underlying pool, [None] for {!sequential}. Gives stats
    endpoints access to {!Pool.tasks_run}/{!Pool.steals} attribution
    without widening this interface further. *)
