(** The lamp query server.

    One process serves named instances over Unix-domain or TCP sockets
    speaking {!Wire}. One loop thread answers every session: it polls
    the listeners and every session socket, assembles request frames,
    runs at most one request per session per turn inline and writes
    the response without blocking; a session's next request is read
    once its previous response is written. Only the loop touches the
    engine, so nothing takes a lock; parallelism {e within} an
    execution comes from the {!Lamp_runtime.Executor} passed at
    creation. The ["serve.queue_wait_us"] histogram records the time
    from a request frame's completion to its execution start.

    Resources are governed as a database server would: one engine
    handle per instance (an interned DB with its lazily built indexes),
    built on first use, reused across requests and extended in place
    with the facts an ingest adds; a {!Cache} of compiled plans keyed by
    (instance, canonical query) shared by all sessions, whose entries
    get a plan id only when a [Prepare] names them; per-client
    token-bucket {!Quota}s; and one overload decision, [max_inflight],
    taken at admission. Three deadlines, when set, bound every wait of
    a session; a session cut off by one counts in [reaped].

    Responses are bit-identical to direct library calls: [Local] mode
    mirrors [Cq.Eval.eval]'s compiled-plan path, the MPC modes call the
    same [Mpc.*] entry points the CLI does. *)

type config = {
  name : string;  (** Reported in [Hello_ok]. *)
  max_sessions : int;
      (** Connections beyond this get [Error Rejected] and a hangup,
          and count in [rejected]. *)
  max_inflight : int;
      (** Engine ops (prepare, execute, ingest) admitted and not yet
          answered: an op holds its slot until its response's last
          frame is written. One more gets
          [Error (Overloaded { retry_after_s })] at once and counts in
          [shed]; the hint is the in-flight count times the mean
          service time. Health, stats and scrapes are never refused. *)
  plan_cache : int;  (** Plan cache capacity. *)
  batch : int;  (** Facts per [Batch] frame when streaming results. *)
  quota : (float * float) option;
      (** Per-client token bucket as [(rate, burst)]; [None] disables
          throttling. *)
  strategy : Lamp_cq.Eval.strategy;
      (** Plan backend prepared plans compile to: [Binary] (the seed
          join-order plan) or [Wcoj] (worst-case-optimal). Both produce
          bit-identical results over the same column indexes. *)
  max_frame : int;
      (** Per-session cap on an incoming frame's payload length,
          checked before any allocation; a hostile length prefix gets
          [Error Corrupt_frame] and a hangup. Default
          {!Wire.max_frame}. *)
  read_timeout_s : float option;
      (** Deadline for a {e started} request frame to finish arriving
          (defeats slow-loris trickle); the idle wait between requests
          is governed by [idle_timeout_s]. [None] waits forever.
          Default 30 s. *)
  write_timeout_s : float option;
      (** Deadline for a whole response, counted from when it is
          produced (queueing is not counted): a peer that drains its
          socket too slowly is cut off instead of pinning the session.
          [None] waits forever. Default 30 s. *)
  idle_timeout_s : float option;
      (** How long a session may sit between requests before it is
          hung up on. [None] (default) keeps idle sessions forever. *)
  dedup_window : int;
      (** Capacity of the idempotency-key window ({!Dedup}): how many
          completed keyed ops are remembered for replay. [0] disables
          deduplication (keyed requests execute unconditionally).
          Default 1024. Every entry is bound to a digest of the request
          it recorded; a replay whose request differs (a reused key) is
          refused with [Bad_request] instead of answered with the other
          op's responses. *)
  dedup_max_bytes : int;
      (** Cap on the encoded size of one dedup record (default 1 MiB).
          A keyed op whose responses exceed it completes normally but
          is {e not} recorded — a retry re-executes instead of
          replaying — so keyed queries with large result streams cannot
          pin up to [dedup_window] result sets in server memory. *)
}

val default_config : config
(** [{ name = "lamp"; max_sessions = 1024; max_inflight = 64;
      plan_cache = 128; batch = 512; quota = None;
      strategy = Binary; max_frame = Wire.max_frame;
      read_timeout_s = Some 30.0; write_timeout_s = Some 30.0;
      idle_timeout_s = None; dedup_window = 1024;
      dedup_max_bytes = 1 lsl 20 }] *)

type t

val create : ?config:config -> executor:Lamp_runtime.Executor.t -> unit -> t
(** Starts the loop thread. The executor runs MPC simulations and must
    outlive the server. *)

val add_instance : t -> name:string -> Lamp_relational.Instance.t -> unit
(** Registers (or replaces) a served instance; callable from any
    thread, and seen by every request that arrives after it returns.
    Replacing drops its engine handle; plans cached for the old
    contents stay valid, since results do not depend on join order. *)

val listen_unix : t -> path:string -> unit
(** Binds a Unix-domain socket (unlinking a stale one) and starts
    accepting. *)

val listen_tcp : ?host:string -> t -> port:int -> int
(** Binds [host] (default ["127.0.0.1"]) and starts accepting; returns
    the bound port, which is the OS's pick when [port = 0]. *)

val stats : t -> Wire.server_stats
(** Callable from any thread. *)

val stop : t -> unit
(** Wakes the loop, which closes every session and listener, and joins
    it — after [stop], {!stats} reports no session (the smoke test's
    leak check). Idempotent. The executor is the caller's to
    dispose. *)
