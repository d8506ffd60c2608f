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
  dedup_window : int;
  dedup_max_bytes : int;
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
    dedup_window = 1024;
    dedup_max_bytes = 1 lsl 20;
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
  (* Live session sockets, for [stop] to shut down. *)
  session_fds : (Unix.file_descr, unit) Hashtbl.t;
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
  (* Engine service time (how long the engine lock is held), summed
     over [engine_ops] holds: their ratio prices an [Overloaded]
     reply's retry hint. *)
  engine_us : int Atomic.t;
  engine_ops : int Atomic.t;
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
    ~help:"Requests received, including shed and throttled ones"
    "serve.requests";
  Metrics.describe ~kind:Metrics.Counter
    ~help:"Connections refused at max_sessions" "serve.rejected";
  Metrics.describe ~kind:Metrics.Counter
    ~help:"Requests refused by a client's token bucket" "serve.throttled";
  Metrics.describe ~kind:Metrics.Counter
    ~help:"Keyed requests answered from the dedup window instead of \
           re-executed"
    "serve.deduped";
  Metrics.describe ~kind:Metrics.Counter
    ~help:"Requests refused with Overloaded at max_inflight" "serve.shed";
  Metrics.describe ~kind:Metrics.Counter
    ~help:"Sessions cut off by the idle, read or write deadline"
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
      Unix.gettimeofday () -. t.started)

let create ?(config = default_config) ~executor () =
  if config.max_sessions < 1 then invalid_arg "Server: max_sessions < 1";
  if config.max_inflight < 0 then invalid_arg "Server: max_inflight < 0";
  if config.batch < 1 then invalid_arg "Server: batch < 1";
  if config.max_frame < 1 then invalid_arg "Server: max_frame < 1";
  if config.dedup_max_bytes < 1 then
    invalid_arg "Server: dedup_max_bytes < 1";
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
    engine_us = Atomic.make 0;
    engine_ops = Atomic.make 0;
  } in
  register_gauges t;
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

let with_engine t f =
  let t0 = Unix.gettimeofday () in
  Mutex.lock t.engine;
  let t1 = Unix.gettimeofday () in
  Trace.observe queue_wait_h (usecs (t1 -. t0));
  Fun.protect
    ~finally:(fun () ->
      let held = usecs (Unix.gettimeofday () -. t1) in
      Mutex.unlock t.engine;
      ignore (Atomic.fetch_and_add t.engine_us held : int);
      Atomic.incr t.engine_ops)
    f

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

(* Admission, the server's one overload decision, taken by every
   engine op: the client's quota first, then the in-flight bound. A
   slot is claimed with one fetch-and-add; an over-claim is rolled back
   and answered [Overloaded] at once instead of queueing. The count it
   found is the queue it would have joined, so the retry hint is that
   many mean engine services. *)
let admit t client f =
  if not (quota_allows t client) then begin
    Atomic.incr t.throttled;
    Trace.incr throttled_c;
    raise (Reply (Throttled, "client quota exhausted"))
  end;
  let n = Atomic.fetch_and_add t.active 1 in
  if n >= t.config.max_inflight then begin
    Atomic.decr t.active;
    Atomic.incr t.shed_n;
    Trace.incr shed_c;
    let ops = Atomic.get t.engine_ops in
    let mean_s =
      if ops = 0 then 0.0
      else float_of_int (Atomic.get t.engine_us) /. float_of_int ops /. 1e6
    in
    raise
      (Reply
         ( Overloaded { retry_after_s = float_of_int n *. mean_s },
           "server at max in-flight requests" ))
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

let write_deadline t =
  Option.map (fun s -> Unix.gettimeofday () +. s) t.config.write_timeout_s

(* One write deadline covers the whole response: it is set when the
   first frame is written, after any engine queueing, so a peer that
   drains a long stream too slowly is cut off even if each frame alone
   would make it. Each response is encoded once; inside a [Keyed]
   execution that payload is also what the dedup window records and
   replays. *)
let handle_request t fd client req =
  Trace.incr requests_c;
  let t0 = Unix.gettimeofday () in
  let recording = ref None in
  let oversized = ref false in
  let deadline = ref None in
  let send payload =
    if Option.is_none !deadline then deadline := write_deadline t;
    Wire.write_frame ?deadline:!deadline fd payload
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
         admit t !client (fun () ->
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
         admit t !client (fun () ->
             let result, mpc_stats = execute t ~instance plan mode in
             Atomic.incr t.served;
             (* Stream outside the engine lock: the result instance is
                immutable, so slow clients only hold their own socket. *)
             stream_result t reply result mpc_stats)
       | Ingest { instance; facts } ->
         admit t !client (fun () ->
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
  Mutex.protect t.lock (fun () ->
      if t.stopped then false
      else begin
        t.session_count <- t.session_count + 1;
        Hashtbl.replace t.session_fds fd ();
        t.session_count <= t.config.max_sessions
      end)

let session_leave t fd =
  Mutex.protect t.lock (fun () ->
      t.session_count <- t.session_count - 1;
      Hashtbl.remove t.session_fds fd;
      Condition.broadcast t.session_exit)

let note_reaped t =
  Atomic.incr t.reaped_n;
  Trace.incr reaped_c

(* Three deadlines, when set, bound every socket wait of a session: the
   idle timeout the wait for a request to {e start} ([Wire.wait_readable]),
   the read deadline a started frame (defeats slow-loris trickle), and
   the write deadline a whole response. A session cut off by any of
   them counts as reaped. *)
let session t fd =
  let admitted = session_enter t fd in
  let hangup_with code message =
    try
      Wire.write_response ?deadline:(write_deadline t) fd
        (Error { code; message })
    with _ -> ()
  in
  Fun.protect
    ~finally:(fun () ->
      session_leave t fd;
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      if not admitted then begin
        Atomic.incr t.rejected;
        Trace.incr rejected_c;
        hangup_with Rejected "server at max sessions"
      end
      else begin
        let client = ref "anon" in
        let rdeadline () =
          Option.map
            (fun s -> Unix.gettimeofday () +. s)
            t.config.read_timeout_s
        in
        let rec loop () =
          match Wire.wait_readable ?timeout_s:t.config.idle_timeout_s fd with
          | false -> note_reaped t
          | true -> (
            match
              Wire.read_request ~max_len:t.config.max_frame
                ?deadline:(rdeadline ()) fd
            with
            | req ->
              handle_request t fd client req;
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

(* The acceptor blocks in accept(2). The listener's SO_RCVTIMEO wakes
   it to look at [stopped] again, and [stop] shuts the listener down,
   which wakes it at once. *)
let acceptor t listen_fd =
  let rec loop () =
    if not (Mutex.protect t.lock (fun () -> t.stopped)) then begin
      (match Unix.accept ~cloexec:true listen_fd with
      | fd, _ -> ignore (Thread.create (fun () -> session t fd) ())
      | exception
          Unix.Unix_error
            ((EAGAIN | EWOULDBLOCK | ECONNABORTED | EINTR | EBADF | EINVAL), _, _)
        ->
        ()
      | exception Unix.Unix_error _ ->
        (* e.g. EMFILE under fd pressure: back off, retry. *)
        Thread.delay 0.01);
      loop ()
    end
  in
  loop ()

let start_listener t fd =
  Unix.setsockopt_float fd SO_RCVTIMEO 0.2;
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
             own fd. Done under the lock: a session leaves the table
             before closing its fd, so an fd still in the table cannot
             be closed (and its number reused by a fresh connection)
             concurrently. *)
          Hashtbl.iter
            (fun fd _ ->
              try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
            t.session_fds;
          ls
        end)
  in
  List.iter
    (fun fd -> try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    listeners;
  Mutex.protect t.lock (fun () ->
      while t.session_count > 0 do
        Condition.wait t.session_exit t.lock
      done);
  let acceptors = t.acceptors in
  t.acceptors <- [];
  List.iter Thread.join acceptors;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners
