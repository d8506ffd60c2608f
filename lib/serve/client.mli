(** Blocking client for the lamp query server.

    One connection per client value; calls are synchronous
    request/response exchanges and a client value must not be shared
    between threads without external locking (the load generator gives
    each concurrent session its own connection, as real drivers do).

    Server-signalled failures ({!Wire.Error} responses) raise
    {!Server_error}; a reply that violates the protocol (wrong response
    kind, batch count mismatch) raises {!Protocol_error}.

    {2 Failure typing}

    Transport-level failures never escape as raw [Unix.Unix_error]:
    mid-stream resets, broken pipes and kernel timeouts
    ([ECONNRESET]/[EPIPE]/[ETIMEDOUT]/…), a peer that closed between
    frames, and bytes that fail the frame checksum all raise
    {!Connection_lost}; a per-request deadline (set at connect time via
    [?timeout_s]) that expires raises {!Timed_out}. Both are
    {e connection-fatal}: the framing state is unknowable afterwards,
    so the client value is marked {!closed} and the socket shut. A
    caller that wants to continue reconnects — {!Resilient} packages
    that loop. *)

type t

exception Server_error of Wire.error_code * string
exception Protocol_error of string

exception Connection_lost of string
(** The transport failed: reset/EOF mid-frame, transient connect
    failure, or in-flight corruption (frame checksum mismatch, or a
    length header past the frame limit). The
    client is closed; the operation may or may not have executed
    server-side — re-issue it under an idempotency [?key] to make the
    retry safe. *)

exception Timed_out of string
(** The per-request deadline ([?timeout_s] at connect) expired. The
    client is closed (a reply may still be in flight on the wire, so
    the framing is out of sync). *)

val connect_unix : ?timeout_s:float -> path:string -> unit -> t
val connect_tcp : ?timeout_s:float -> ?host:string -> port:int -> unit -> t
(** [host] defaults to ["127.0.0.1"]. [timeout_s] is the per-request
    deadline applied to every later call on this client (whole
    request/response exchange, including all batches of a streamed
    result); omitted means wait forever. Transient connect failures
    ([ECONNREFUSED], a not-yet-bound socket path, …) raise
    {!Connection_lost}. *)

val hello : ?client:string -> t -> string
(** Identifies the session (the server's quota key; default ["anon"])
    at {!Wire.protocol_version}; returns the server's name. Every work
    request is wrapped in {!Wire.Traced} with this connection's trace
    id.
    @raise Protocol_error if the server answers with another
    version. *)

type prepared = {
  id : int;  (** Pass as [Wire.Id id] to {!execute}. *)
  cached : bool;  (** The server already had this plan compiled. *)
  atoms : int;  (** Join steps of the compiled plan. *)
}

val prepare : ?key:int -> t -> instance:string -> query:string -> prepared

val execute :
  ?key:int ->
  t ->
  instance:string ->
  ?mode:Wire.mode ->
  Wire.plan_ref ->
  Lamp_relational.Instance.t * Lamp_mpc.Stats.t option
(** Runs the plan ([mode] defaults to [Local]), collecting the streamed
    batches into an instance. The MPC modes also return the run's load
    statistics, exactly the [Stats.t] the library call yields. *)

val ingest :
  ?key:int -> t -> instance:string -> Lamp_relational.Fact.t list -> int
(** Returns how many facts were new.

    On {!prepare}/{!execute}/{!ingest}, [?key] is an idempotency key:
    the request is wrapped in {!Wire.Keyed} and the server
    deduplicates — re-sending the same [(client, key)] after a
    {!Connection_lost} or {!Timed_out} replays the recorded response
    instead of executing again, so a retried keyed ingest counts its
    facts exactly once. Keys must be unique per logical operation
    within a client name's dedup window. *)

val stats : t -> Wire.server_stats
val health : t -> bool
(** [false] only on a server that answers but declares itself sick —
    connection errors raise as usual. *)

val metrics : t -> string
(** Live telemetry scrape: the server's current metrics as OpenMetrics
    text (parse with [Obs.Export.parse_openmetrics]). *)

val trace_dump : ?limit:int -> t -> Wire.span_info list
(** The server's most recent completed spans, oldest first ([limit]
    defaults to 256). Empty unless the server runs with tracing on. *)

val close : t -> unit
(** Idempotent. *)

val closed : t -> bool
(** [true] once {!close} was called or a connection-fatal failure
    ({!Connection_lost}/{!Timed_out}) tore the session down. *)
