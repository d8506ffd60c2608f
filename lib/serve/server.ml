module Trace = Lamp_obs.Trace
module Metrics = Lamp_obs.Metrics
module Export = Lamp_obs.Export
module Instance = Lamp_relational.Instance
module Plan = Lamp_cq.Plan
module Eval = Lamp_cq.Eval
module Parser = Lamp_cq.Parser
module Ast = Lamp_cq.Ast
module Executor = Lamp_runtime.Executor

type config = {
  name : string;
  max_sessions : int;
  max_inflight : int;
  plan_cache : int;
  batch : int;
  quota : (float * float) option;
  strategy : Eval.strategy;
  max_frame : int;
  read_timeout_s : float option;
  write_timeout_s : float option;
  idle_timeout_s : float option;
  reap_after_s : float option;
  dedup_window : int;
  dedup_max_bytes : int;
  shed_queue_us : float option;
  shed_retry_after_s : float;
}

let default_config =
  {
    name = "lamp";
    max_sessions = 1024;
    max_inflight = 64;
    plan_cache = 128;
    batch = 512;
    quota = None;
    strategy = Eval.Binary;
    max_frame = Wire.max_frame;
    read_timeout_s = Some 30.0;
    write_timeout_s = Some 30.0;
    idle_timeout_s = None;
    reap_after_s = None;
    dedup_window = 1024;
    dedup_max_bytes = 1 lsl 20;
    shed_queue_us = None;
    shed_retry_after_s = 0.05;
  }

(* [handle] is the engine handle: the interned-tuple view of [data]
   plus its lazily built column indexes. Building one replays the whole
   instance through the interner, so it is kept across requests: an
   ingest appends the facts it adds, and only [add_instance] drops it.
   Both fields change only under the engine lock. *)
type inst = {
  mutable data : Instance.t;
  mutable handle : Plan.Db.t option;
}

(* [pe_id] is [None] until a [Prepare] names the entry; it is set once,
   under the server's [lock]. *)
type plan_entry = {
  mutable pe_id : int option;
  pe_instance : string;
  pe_ast : Ast.t;
  pe_plan : Eval.prepared;
}

type t = {
  config : config;
  executor : Executor.t;
  (* Serializes all engine work (parse/compile/eval/ingest): the
     process-global interning tables and Db handles are not
     thread-safe. Sessions overlap on socket I/O, not on evaluation. *)
  engine : Mutex.t;
  (* Protects the registries and session bookkeeping below. Leaf locks
     (Cache, Quota) may be taken under [engine] but never the other
     way round. *)
  lock : Mutex.t;
  session_exit : Condition.t;
  instances : (string, inst) Hashtbl.t;
  plans : (int, plan_entry) Hashtbl.t;
  mutable next_plan : int;
  plan_cache : plan_entry Cache.t;
  quotas : (string, Quota.t) Hashtbl.t;
  mutable listeners : Unix.file_descr list;
  mutable acceptors : Thread.t list;
  (* Each session's last-activity timestamp, for the reaper. *)
  session_fds : (Unix.file_descr, float ref) Hashtbl.t;
  mutable session_count : int;
  mutable stopped : bool;
  active : int Atomic.t;
  served : int Atomic.t;
  rejected : int Atomic.t;
  throttled : int Atomic.t;
  started : float;
  dedup : Dedup.t option;
  deduped_n : int Atomic.t;
  shed_n : int Atomic.t;
  reaped_n : int Atomic.t;
  shedding : bool Atomic.t;
  shed_probe : int Atomic.t;
  qwait_ewma_us : float Atomic.t;
  mutable reaper : Thread.t option;
}

let requests_c = Trace.counter "serve.requests"
let rejected_c = Trace.counter "serve.rejected"
let throttled_c = Trace.counter "serve.throttled"
let deduped_c = Trace.counter "serve.deduped"
let shed_c = Trace.counter "serve.shed"
let reaped_c = Trace.counter "serve.reaped"
let queue_wait_h = Trace.histogram "serve.queue_wait_us"
let request_h = Trace.histogram "serve.request_us"

let () =
  Metrics.describe ~kind:Metrics.Counter
    ~help:"Requests received, including rejected and throttled ones"
    "serve.requests";
  Metrics.describe ~kind:Metrics.Counter
    ~help:"Requests refused by admission control" "serve.rejected";
  Metrics.describe ~kind:Metrics.Counter
    ~help:"Requests refused by a client's token bucket" "serve.throttled";
  Metrics.describe ~kind:Metrics.Counter
    ~help:"Keyed requests answered from the dedup window instead of \
           re-executed"
    "serve.deduped";
  Metrics.describe ~kind:Metrics.Counter
    ~help:"Requests rejected with Overloaded while load shedding"
    "serve.shed";
  Metrics.describe ~kind:Metrics.Counter
    ~help:"Sessions torn down by a deadline, idle timeout or the reaper"
    "serve.reaped";
  Metrics.describe ~kind:Metrics.Histogram
    ~help:"Wait for the engine lock, microseconds" "serve.queue_wait_us";
  Metrics.describe ~kind:Metrics.Histogram
    ~help:"Request handling end to end, microseconds" "serve.request_us"

(* Live gauges for the scrape endpoint. Callback-backed: evaluated at
   snapshot time, so they are always current and cost nothing between
   scrapes. Registered per [create]; with several servers in one
   process the most recent registration wins, which is the serving
   process shape (one server) anyway. *)
let register_gauges t =
  Metrics.register_callback "serve.sessions" (fun () ->
      float_of_int (Mutex.protect t.lock (fun () -> t.session_count)));
  Metrics.register_callback "serve.active_requests" (fun () ->
      float_of_int (Atomic.get t.active));
  Metrics.register_callback "serve.executor_in_flight" (fun () ->
      float_of_int (Executor.in_flight t.executor));
  Metrics.register_callback "serve.plan_cache_size" (fun () ->
      float_of_int (Cache.length t.plan_cache));
  Metrics.register_callback "serve.uptime_s" (fun () ->
      Unix.gettimeofday () -. t.started);
  Metrics.register_callback "serve.shedding" (fun () ->
      if Atomic.get t.shedding then 1.0 else 0.0);
  Metrics.register_callback "serve.queue_wait_ewma_us" (fun () ->
      Atomic.get t.qwait_ewma_us)

(* The stalled-connection reaper: shuts down any session whose last
   I/O activity is older than [reap_after_s]. The session thread's
   blocked read then fails and the session unwinds through its normal
   cleanup. The limit is a hard staleness cap — it must exceed the
   longest legitimate request (engine time included).

   The shutdown runs while [t.lock] is held: a session removes itself
   from [session_fds] (under the lock) {e before} closing its fd, so a
   descriptor still in the table cannot be concurrently closed — and
   its number cannot be reused by a fresh connection between the
   staleness check and the shutdown. Shutting down after releasing the
   lock would race exactly that reuse and could sever a healthy new
   session. *)
let reaper_loop t limit =
  let rec loop () =
    if not (Mutex.protect t.lock (fun () -> t.stopped)) then begin
      Thread.delay 0.25;
      let now = Unix.gettimeofday () in
      Mutex.protect t.lock (fun () ->
          Hashtbl.iter
            (fun fd last ->
              if now -. !last > limit then begin
                Atomic.incr t.reaped_n;
                Trace.incr reaped_c;
                try Unix.shutdown fd SHUTDOWN_ALL
                with Unix.Unix_error _ -> ()
              end)
            t.session_fds);
      loop ()
    end
  in
  loop ()

let create ?(config = default_config) ~executor () =
  if config.max_sessions < 1 then invalid_arg "Server: max_sessions < 1";
  if config.max_inflight < 0 then invalid_arg "Server: max_inflight < 0";
  if config.batch < 1 then invalid_arg "Server: batch < 1";
  if config.max_frame < 1 then invalid_arg "Server: max_frame < 1";
  if config.dedup_max_bytes < 1 then
    invalid_arg "Server: dedup_max_bytes < 1";
  if config.shed_retry_after_s < 0.0 then
    invalid_arg "Server: shed_retry_after_s < 0";
  let t = {
    config;
    executor;
    engine = Mutex.create ();
    lock = Mutex.create ();
    session_exit = Condition.create ();
    instances = Hashtbl.create 8;
    plans = Hashtbl.create 64;
    next_plan = 1;
    plan_cache = Cache.create ~capacity:config.plan_cache ();
    quotas = Hashtbl.create 16;
    listeners = [];
    acceptors = [];
    session_fds = Hashtbl.create 64;
    session_count = 0;
    stopped = false;
    active = Atomic.make 0;
    served = Atomic.make 0;
    rejected = Atomic.make 0;
    throttled = Atomic.make 0;
    started = Unix.gettimeofday ();
    dedup =
      (if config.dedup_window > 0 then
         Some (Dedup.create ~capacity:config.dedup_window)
       else None);
    deduped_n = Atomic.make 0;
    shed_n = Atomic.make 0;
    reaped_n = Atomic.make 0;
    shedding = Atomic.make false;
    shed_probe = Atomic.make 0;
    qwait_ewma_us = Atomic.make 0.0;
    reaper = None;
  } in
  register_gauges t;
  (match config.reap_after_s with
  | Some limit when limit > 0.0 ->
    t.reaper <- Some (Thread.create (fun () -> reaper_loop t limit) ())
  | _ -> ());
  t

let add_instance t ~name data =
  Mutex.protect t.engine (fun () ->
      Mutex.protect t.lock (fun () ->
          match Hashtbl.find_opt t.instances name with
          | Some inst ->
            inst.data <- data;
            inst.handle <- None
          | None -> Hashtbl.replace t.instances name { data; handle = None }))

let instance t name =
  Mutex.protect t.lock (fun () ->
      Option.map (fun i -> i.data) (Hashtbl.find_opt t.instances name))

let find_instance t name =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.instances name)

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

exception Reply of Wire.error_code * string

let bad fmt = Format.kasprintf (fun s -> raise (Reply (Bad_request, s))) fmt

let usecs s = int_of_float (s *. 1e6)

(* Queue-wait EWMA drives load shedding: entered past the watermark,
   exited (with hysteresis) below half of it. Updates race benignly —
   a lost update skews the estimate by one sample. *)
let note_queue_wait t w_us =
  let w = float_of_int w_us in
  let e = Atomic.get t.qwait_ewma_us in
  let e' = if e <= 0.0 then w else (0.8 *. e) +. (0.2 *. w) in
  Atomic.set t.qwait_ewma_us e';
  match t.config.shed_queue_us with
  | Some mark ->
    if e' > mark then Atomic.set t.shedding true
    else if e' < mark *. 0.5 then Atomic.set t.shedding false
  | None -> ()

let with_engine t f =
  let t0 = Unix.gettimeofday () in
  Mutex.lock t.engine;
  let w_us = usecs (Unix.gettimeofday () -. t0) in
  Trace.observe queue_wait_h w_us;
  note_queue_wait t w_us;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.engine) f

(* Graceful degradation: past the watermark, low-priority work (the
   engine ops) is refused with a typed retry hint while control-plane
   ops (health, stats, scrapes) keep answering. One probe in eight is
   admitted so the wait estimate can decay and shedding can exit once
   the queue drains. *)
let shed_check t =
  if t.config.shed_queue_us <> None && Atomic.get t.shedding then begin
    let n = Atomic.fetch_and_add t.shed_probe 1 in
    if n mod 8 <> 0 then begin
      Atomic.incr t.shed_n;
      Trace.incr shed_c;
      raise
        (Reply
           ( Overloaded { retry_after_s = t.config.shed_retry_after_s },
             "server overloaded; retry after backoff" ))
    end
  end

let get_inst t name =
  match find_instance t name with
  | Some i -> i
  | None -> bad "unknown instance %S" name

(* Canonical fingerprint: the pretty-printed parse, not the raw text,
   so formatting variants of one query share a cache entry. *)
let fingerprint ~instance ast = instance ^ "\000" ^ Fmt.str "%a" Ast.pp ast

let parse_query q =
  try Parser.query q with Parser.Parse_error m -> bad "parse error: %s" m

(* Runs [f] on the instance's engine handle, building it first if there
   is none. Call under the engine lock. If [f] raises, the handle's
   state is unknown, so it is dropped and rebuilt on next use. *)
let with_handle inst f =
  let db =
    match inst.handle with
    | Some db -> db
    | None ->
      let db = Plan.Db.of_instance inst.data in
      inst.handle <- Some db;
      db
  in
  match f db with
  | v -> v
  | exception e ->
    inst.handle <- None;
    raise e

(* Compile under the engine lock, against the handle's counts
   (join-order estimates only — the result set is order-independent). *)
let prepare_plan t inst ~instance ast =
  let key = fingerprint ~instance ast in
  Cache.find_or_add t.plan_cache key (fun () ->
      let plan =
        with_handle inst (Eval.prepare ~strategy:t.config.strategy ast)
      in
      { pe_id = None; pe_instance = instance; pe_ast = ast; pe_plan = plan })

(* Only [Prepare] hands out plan ids, and an id stays valid for the
   server's lifetime, so the registry grows with prepared queries, not
   with ad-hoc texts. The first [Prepare] naming an entry registers it;
   later ones answer the same id. *)
let plan_id t entry =
  Mutex.protect t.lock (fun () ->
      match entry.pe_id with
      | Some id -> id
      | None ->
        let id = t.next_plan in
        t.next_plan <- id + 1;
        entry.pe_id <- Some id;
        Hashtbl.replace t.plans id entry;
        id)

let resolve_plan t inst ~instance = function
  | Wire.Id id -> (
    match Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.plans id) with
    | None -> bad "unknown plan id %d" id
    | Some e when e.pe_instance <> instance ->
      bad "plan %d belongs to instance %S" id e.pe_instance
    | Some e -> e)
  | Wire.Adhoc q ->
    (* Ad-hoc executions go through the same cache: after warmup even
       clients that never Prepare hit compiled plans. *)
    fst (prepare_plan t inst ~instance (parse_query q))

let execute t ~instance plan_ref mode =
  let inst = get_inst t instance in
  with_engine t (fun () ->
      match mode with
      | Wire.Local ->
        let entry = resolve_plan t inst ~instance plan_ref in
        let result = with_handle inst (Eval.run entry.pe_plan) in
        (result, None)
      | Wire.Hypercube { p } ->
        if p < 1 then bad "hypercube: p must be >= 1";
        let entry = resolve_plan t inst ~instance plan_ref in
        let result, stats, _shares =
          Lamp_mpc.Hypercube.run ~executor:t.executor ~p entry.pe_ast
            inst.data
        in
        (result, Some stats)
      | Wire.Repartition { p } ->
        if p < 1 then bad "repartition: p must be >= 1";
        let result, stats =
          Lamp_mpc.Repartition_join.run ~executor:t.executor ~p inst.data
        in
        (result, Some stats)
      | Wire.Grid { p } ->
        if p < 1 then bad "grid: p must be >= 1";
        let result, stats =
          Lamp_mpc.Grid_join.run ~executor:t.executor ~p inst.data
        in
        (result, Some stats))

(* Ingest only ever adds facts, so the live handle is extended with
   exactly the facts the union adds; its column indexes catch up on
   their next probe. If the append raises, [with_handle] drops the
   handle and the data stays as it was. Plans compiled with the old
   counts are dropped so re-preparation sees fresh cardinalities. *)
let ingest t ~instance facts =
  let inst = get_inst t instance in
  with_engine t (fun () ->
      let fresh = Instance.diff (Instance.of_facts facts) inst.data in
      let added = Instance.cardinal fresh in
      if added > 0 then begin
        if Option.is_some inst.handle then
          with_handle inst (fun db -> Plan.Db.extend db fresh);
        inst.data <- Instance.union inst.data fresh;
        let prefix = instance ^ "\000" in
        ignore
          (Cache.remove_if t.plan_cache (fun k ->
               String.length k >= String.length prefix
               && String.sub k 0 (String.length prefix) = prefix))
      end;
      added)

let stats t =
  {
    Wire.sessions = Mutex.protect t.lock (fun () -> t.session_count);
    active_requests = Atomic.get t.active;
    executor_in_flight = Executor.in_flight t.executor;
    pool_workers = Executor.workers t.executor;
    plan_cache_size = Cache.length t.plan_cache;
    plan_cache_hits = Cache.hits t.plan_cache;
    plan_cache_misses = Cache.misses t.plan_cache;
    requests_served = Atomic.get t.served;
    rejected = Atomic.get t.rejected;
    throttled = Atomic.get t.throttled;
    uptime_s = Unix.gettimeofday () -. t.started;
    deduped = Atomic.get t.deduped_n;
    shed = Atomic.get t.shed_n;
    reaped = Atomic.get t.reaped_n;
  }

let quota_allows t client =
  match t.config.quota with
  | None -> true
  | Some (rate, burst) ->
    let bucket =
      Mutex.protect t.lock (fun () ->
          match Hashtbl.find_opt t.quotas client with
          | Some b -> b
          | None ->
            let b = Quota.create ~rate ~burst () in
            Hashtbl.replace t.quotas client b;
            b)
    in
    Quota.try_take bucket

(* Admission: claim a slot with one fetch-and-add; over-claims are
   rolled back and fast-rejected, so a full server answers cheaply
   instead of queueing unboundedly. *)
let with_admission t f =
  let n = Atomic.fetch_and_add t.active 1 in
  if n >= t.config.max_inflight then begin
    Atomic.decr t.active;
    Atomic.incr t.rejected;
    Trace.incr rejected_c;
    raise (Reply (Rejected, "server at max in-flight requests"))
  end;
  Fun.protect ~finally:(fun () -> Atomic.decr t.active) f

let stream_result t reply result stats =
  let total = Instance.cardinal result in
  let flush batch = if batch <> [] then reply (Wire.Batch (List.rev batch)) in
  let pending, count =
    Instance.fold
      (fun fact (batch, n) ->
        if n = t.config.batch then begin
          flush batch;
          ([ fact ], 1)
        end
        else (fact :: batch, n + 1))
      result ([], 0)
  in
  ignore count;
  flush pending;
  reply (Wire.Done { facts = total; stats })

let span_info_of_event : Trace.event -> Wire.span_info option = function
  | Trace.Span { name; cat; tid; t; dur; args = _ } ->
    Some { Wire.sp_name = name; sp_cat = cat; sp_tid = tid; sp_t = t; sp_dur = dur }
  | Trace.Instant _ | Trace.Sample _ -> None

(* Responses carry the write deadline: a peer that stops draining its
   socket times the session out instead of pinning it forever. Each
   response is encoded once; inside a [Keyed] execution that payload is
   also what the dedup window records and replays. *)
let handle_request t fd client req =
  Trace.incr requests_c;
  let t0 = Unix.gettimeofday () in
  let recording = ref None in
  let oversized = ref false in
  let send payload =
    let deadline =
      Option.map
        (fun s -> Unix.gettimeofday () +. s)
        t.config.write_timeout_s
    in
    Wire.write_frame ?deadline fd payload
  in
  let reply resp =
    let payload = Wire.response_to_string resp in
    (match !recording with
    | Some (acc, bytes) ->
      (* A dedup record pins its payloads in server memory for up to
         [dedup_window] completions, so its size must be bounded by
         policy, not by [max_frame]. Past the cap the recording is
         dropped and the keyed wrapper aborts instead of committing:
         a retry of a huge result re-executes rather than replaying. *)
      bytes := !bytes + String.length payload;
      if !bytes > t.config.dedup_max_bytes then begin
        recording := None;
        oversized := true
      end
      else acc := payload :: !acc
    | None -> ());
    send payload
  in
  (try
     let rec go (req : Wire.request) =
       match req with
       | Hello { client = name; version } ->
         if version <> Wire.protocol_version then
           bad "protocol version %d, server speaks %d" version
             Wire.protocol_version;
         client := name;
         reply (Hello_ok { server = t.config.name; version })
       | Health -> reply Healthy
       | Stats -> reply (Stats_reply (stats t))
       | Metrics -> reply (Metrics_reply (Export.openmetrics ()))
       | Trace_dump { limit } ->
         let limit = max 0 (min limit 10_000) in
         let spans =
           List.filter_map span_info_of_event (Trace.recent ~limit ())
         in
         reply (Trace_reply spans)
       | Traced { trace; span; req = inner } -> (
         match inner with
         | Traced _ -> bad "nested Traced request"
         | _ ->
           (* The server-side span for the work, linked to the caller's
              trace so a client span and its server span correlate in
              one timeline. *)
           Trace.span ~cat:"serve"
             ~args:
               [
                 ("trace", Trace.Int trace);
                 ("span", Trace.Int span);
                 ("client", Trace.Str !client);
               ]
             "serve.request"
             (fun () -> go inner))
       | Keyed { key; req = inner } -> (
         match inner with
         | Keyed _ | Traced _ | Hello _ -> bad "malformed Keyed request"
         | _ -> (
           match t.dedup with
           | None -> go inner
           | Some dedup -> (
             (* The digest ties the window entry to this request's
                bytes: a colliding (client, key) — client names are
                self-reported and keys client-allocated — can never be
                answered with another operation's recording. *)
             let digest = Wire.checksum (Wire.request_to_string inner) in
             match Dedup.acquire dedup ~client:!client ~key ~digest with
             | `Replay payloads ->
               (* The op already ran to completion (possibly on a
                  session whose connection the client lost): answer
                  with the recorded payloads, execute nothing. *)
               Atomic.incr t.deduped_n;
               Trace.incr deduped_c;
               List.iter send payloads
             | `Mismatch ->
               bad "idempotency key %d re-used for a different request"
                 key
             | `Run token -> (
               let acc = ref [] in
               oversized := false;
               recording := Some (acc, ref 0);
               match go inner with
               | () ->
                 recording := None;
                 if !oversized then Dedup.abort dedup token
                 else Dedup.commit dedup token (List.rev !acc)
               | exception e ->
                 (* Only successful completions are recorded: the
                    retry of a shed or failed attempt re-executes. *)
                 recording := None;
                 Dedup.abort dedup token;
                 raise e))))
       | Prepare { instance; query } ->
         shed_check t;
         if not (quota_allows t !client) then begin
           Atomic.incr t.throttled;
           Trace.incr throttled_c;
           raise (Reply (Throttled, "client quota exhausted"))
         end;
         with_admission t (fun () ->
             let ast = parse_query query in
             let inst = get_inst t instance in
             let entry, cached =
               with_engine t (fun () -> prepare_plan t inst ~instance ast)
             in
             let id = plan_id t entry in
             Atomic.incr t.served;
             reply
               (Prepared
                  {
                    id;
                    cached;
                    atoms = Eval.atom_count entry.pe_plan;
                  }))
       | Execute { instance; plan; mode } ->
         shed_check t;
         if not (quota_allows t !client) then begin
           Atomic.incr t.throttled;
           Trace.incr throttled_c;
           raise (Reply (Throttled, "client quota exhausted"))
         end;
         with_admission t (fun () ->
             let result, mpc_stats = execute t ~instance plan mode in
             Atomic.incr t.served;
             (* Stream outside the engine lock: the result instance is
                immutable, so slow clients only hold their own socket. *)
             stream_result t reply result mpc_stats)
       | Ingest { instance; facts } ->
         shed_check t;
         if not (quota_allows t !client) then begin
           Atomic.incr t.throttled;
           Trace.incr throttled_c;
           raise (Reply (Throttled, "client quota exhausted"))
         end;
         with_admission t (fun () ->
             let added = ingest t ~instance facts in
             Atomic.incr t.served;
             reply (Ingested { added }))
     in
     go req
   with
  | Reply (code, message) -> reply (Error { code; message })
  | Wire.Closed as e -> raise e
  | Wire.Timed_out as e -> raise e
  | e -> reply (Error { code = Failed; message = Printexc.to_string e }));
  Trace.observe request_h (usecs (Unix.gettimeofday () -. t0))

(* ------------------------------------------------------------------ *)
(* Sessions and listeners                                              *)

let session_enter t fd =
  let last = ref (Unix.gettimeofday ()) in
  let admitted =
    Mutex.protect t.lock (fun () ->
        if t.stopped then false
        else begin
          t.session_count <- t.session_count + 1;
          Hashtbl.replace t.session_fds fd last;
          t.session_count <= t.config.max_sessions
        end)
  in
  (admitted, last)

let session_leave t fd =
  Mutex.protect t.lock (fun () ->
      t.session_count <- t.session_count - 1;
      Hashtbl.remove t.session_fds fd;
      Condition.broadcast t.session_exit)

let note_reaped t =
  Atomic.incr t.reaped_n;
  Trace.incr reaped_c

let session t fd =
  let admitted, last = session_enter t fd in
  Fun.protect
    ~finally:(fun () ->
      session_leave t fd;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      if not admitted then
        try
          Wire.write_response fd
            (Error { code = Rejected; message = "server at max sessions" })
        with _ -> ()
      else begin
        let client = ref "anon" in
        let rdeadline () =
          Option.map
            (fun s -> Unix.gettimeofday () +. s)
            t.config.read_timeout_s
        in
        let hangup_with code message =
          try Wire.write_response fd (Error { code; message }) with _ -> ()
        in
        let rec loop () =
          (* Two timers guard the read: the idle timeout bounds the
             wait for a request to {e start} (cheap select, no
             deadline mid-frame), the read deadline bounds how long a
             started frame may take to arrive (defeats slow-loris
             trickle). *)
          match Wire.wait_readable ?timeout_s:t.config.idle_timeout_s fd with
          | false -> note_reaped t
          | true -> (
            last := Unix.gettimeofday ();
            match
              Wire.read_request ~max_len:t.config.max_frame
                ?deadline:(rdeadline ()) fd
            with
            | req ->
              handle_request t fd client req;
              last := Unix.gettimeofday ();
              loop ()
            | exception Wire.Closed -> ()
            | exception Wire.Timed_out ->
              (* The frame never finished arriving: a stalled or
                 trickling peer. The stream is torn; hang up. *)
              note_reaped t
            | exception Wire.Too_large { len; limit } ->
              hangup_with Corrupt_frame
                (Printf.sprintf "frame length %d exceeds limit %d" len limit)
            | exception Lamp_jobs.Codec.Corrupt msg ->
              (* A corrupt frame leaves the stream unframed; answer once
                 and hang up rather than guess at a resync point. *)
              hangup_with Corrupt_frame ("corrupt frame: " ^ msg)
            | exception Unix.Unix_error _ -> ())
        in
        (* [handle_request] itself only lets [Closed] (peer hung up
           mid-response), a write deadline and socket errors escape. *)
        try loop () with
        | Wire.Closed | Unix.Unix_error _ -> ()
        | Wire.Timed_out -> note_reaped t
      end)

(* Poll with a timeout rather than block in accept: on Linux a thread
   blocked in accept(2) is NOT woken when another thread closes the
   listening fd, so a blocking acceptor would hang [stop]. The listener
   is created before any session, so its fd number is far below
   select's FD_SETSIZE; session sockets never go through select. *)
let acceptor t listen_fd =
  let rec loop () =
    if not (Mutex.protect t.lock (fun () -> t.stopped)) then begin
      match Unix.select [ listen_fd ] [] [] 0.2 with
      | [], _, _ -> loop ()
      | _ :: _, _, _ ->
        (match Unix.accept ~cloexec:true listen_fd with
        | fd, _ -> ignore (Thread.create (fun () -> session t fd) ())
        | exception
            Unix.Unix_error
              ((EAGAIN | EWOULDBLOCK | ECONNABORTED | EINTR), _, _) ->
          ()
        | exception Unix.Unix_error ((EBADF | EINVAL), _, _) ->
          (* Listener closed by [stop]; the guard above exits. *)
          ()
        | exception Unix.Unix_error _ ->
          (* e.g. EMFILE under fd pressure: back off, retry. *)
          Thread.delay 0.01);
        loop ()
      | exception Unix.Unix_error (EINTR, _, _) -> loop ()
      | exception Unix.Unix_error ((EBADF | EINVAL), _, _) -> loop ()
    end
  in
  loop ()

let start_listener t fd =
  Mutex.protect t.lock (fun () ->
      if t.stopped then begin
        (try Unix.close fd with Unix.Unix_error _ -> ());
        invalid_arg "Server: stopped"
      end;
      t.listeners <- fd :: t.listeners;
      t.acceptors <- Thread.create (fun () -> acceptor t fd) () :: t.acceptors)

let listen_unix t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  (try
     Unix.bind fd (ADDR_UNIX path);
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  start_listener t fd

let listen_tcp ?(host = "127.0.0.1") t ~port =
  let fd = Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd SO_REUSEADDR true;
     Unix.bind fd (ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let bound =
    match Unix.getsockname fd with
    | ADDR_INET (_, p) -> p
    | ADDR_UNIX _ -> assert false
  in
  start_listener t fd;
  bound

let stop t =
  let listeners =
    Mutex.protect t.lock (fun () ->
        if t.stopped then []
        else begin
          t.stopped <- true;
          let ls = t.listeners in
          t.listeners <- [];
          (* Shut sessions down at the socket: their blocking reads
             return EOF and the session threads unwind; each closes its
             own fd. Done under the lock for the same reason as the
             reaper: an fd still in the table cannot be closed (and its
             number reused) concurrently. *)
          Hashtbl.iter
            (fun fd _ ->
              try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
            t.session_fds;
          ls
        end)
  in
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  Mutex.protect t.lock (fun () ->
      while t.session_count > 0 do
        Condition.wait t.session_exit t.lock
      done);
  let acceptors = t.acceptors in
  t.acceptors <- [];
  List.iter Thread.join acceptors;
  match t.reaper with
  | Some th ->
    t.reaper <- None;
    Thread.join th
  | None -> ()
