(** A bounded LRU cache keyed by string fingerprints.

    The serving layer keys it by (instance, canonical query text):
    thousands of sessions issuing the same query share one compiled
    {!Lamp_cq.Plan}, so compilation cost is paid once per distinct
    query — the prepared-statement economics of a database server.
    Hit/miss/eviction counters feed the [stats] endpoint and the e15
    cache-hit-rate acceptance bar.

    Not thread-safe: the server's loop is its one user. The counters
    are plain fields, so a reader on another thread (the stats
    endpoint) sees them at most a moment stale. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [capacity] (default 128) bounds entries; inserting beyond it evicts
    the least-recently-used entry.
    @raise Invalid_argument on [capacity < 1]. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a * bool
(** [find_or_add c key build] returns [(v, true)] on a hit and
    [(build (), false)] on a miss, caching the built value. A raising
    [build] caches nothing. Both paths refresh the entry's recency. *)

val find : 'a t -> string -> 'a option
(** Lookup without building; counts as hit or miss and refreshes
    recency on hit. *)

val remove_if : 'a t -> (string -> bool) -> int
(** Drops every entry whose key satisfies the predicate — ingest
    invalidation sweeps one instance's plans. Returns how many were
    dropped (counted as evictions). *)

val length : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int
