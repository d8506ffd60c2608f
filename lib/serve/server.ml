module Trace = Lamp_obs.Trace
module Metrics = Lamp_obs.Metrics
module Export = Lamp_obs.Export
module Instance = Lamp_relational.Instance
module Plan = Lamp_cq.Plan
module Eval = Lamp_cq.Eval
module Parser = Lamp_cq.Parser
module Ast = Lamp_cq.Ast
module Executor = Lamp_runtime.Executor
module Smap = Map.Make (String)

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
   ingest appends the facts it adds. Only the loop changes a record;
   [add_instance] installs a fresh one instead. *)
type inst = {
  mutable data : Instance.t;
  mutable handle : Plan.Db.t option;
}

(* [pe_id] is [None] until a [Prepare] names the entry. *)
type plan_entry = {
  mutable pe_id : int option;
  pe_instance : string;
  pe_ast : Ast.t;
  pe_plan : Eval.prepared;
}

(* One connection. [out] from [out_off] is the unwritten rest of its
   response; until it is written, the session holds its admission
   [slot] (if any), reads nothing, and hangs up after if [closing].
   [deadline] is the one timer of what the session is doing: waiting
   idle, reading a started frame or writing ([infinity]: none). *)
type session = {
  fd : Unix.file_descr;
  reader : Wire.reader;
  mutable client : string;
  mutable out : string;
  mutable out_off : int;
  mutable slot : bool;
  mutable closing : bool;
  mutable deadline : float;
}

(* A count [stats] reports, mirrored in the trace counter [c]. *)
type count = {
  mutable n : int;
  c : Trace.counter;
}

let count name = { n = 0; c = Trace.counter name }

let bump k =
  k.n <- k.n + 1;
  Trace.incr k.c

(* All but the atomics belongs to the loop thread; [stats] reads the
   plain counters from any thread, at most a moment stale. *)
type t = {
  config : config;
  executor : Executor.t;
  (* Set from any thread by [add_instance], [listen_*] and [stop]; a
     byte on [wake_w] makes the loop look. *)
  instances : inst Smap.t Atomic.t;
  listeners : Unix.file_descr list Atomic.t;
  stopping : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mutable loop : Thread.t option;
  sessions : (Unix.file_descr, session) Hashtbl.t;
  plans : (int, plan_entry) Hashtbl.t;
  mutable next_plan : int;
  plan_cache : plan_entry Cache.t;
  quotas : (string, Quota.t) Hashtbl.t;
  dedup : Dedup.t option;
  (* The frames of the response being produced. *)
  response : Buffer.t;
  started : float;
  mutable active : int;
  mutable served : int;
  rejected : count;
  throttled : count;
  deduped : count;
  shed : count;
  reaped : count;
  (* Service time summed over [ops] admitted ops: their ratio prices an
     [Overloaded] reply's retry hint. *)
  mutable busy_us : int;
  mutable ops : int;
}

let requests_c = Trace.counter "serve.requests"
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
    ~help:"request frame complete → execution start" "serve.queue_wait_us";
  Metrics.describe ~kind:Metrics.Histogram
    ~help:"execution start → response handed to the socket"
    "serve.request_us"

(* Live gauges for the scrape endpoint. Callback-backed: evaluated at
   snapshot time, so they are always current and cost nothing between
   scrapes. Registered per [create]; with several servers in one
   process the most recent registration wins, which is the serving
   process shape (one server) anyway. *)
let register_gauges t =
  Metrics.register_callback "serve.sessions" (fun () ->
      float_of_int (Hashtbl.length t.sessions));
  Metrics.register_callback "serve.active_requests" (fun () ->
      float_of_int t.active);
  Metrics.register_callback "serve.executor_in_flight" (fun () ->
      float_of_int (Executor.in_flight t.executor));
  Metrics.register_callback "serve.plan_cache_size" (fun () ->
      float_of_int (Cache.length t.plan_cache));
  Metrics.register_callback "serve.uptime_s" (fun () ->
      Unix.gettimeofday () -. t.started)

let rec update a f =
  let v = Atomic.get a in
  if not (Atomic.compare_and_set a v (f v)) then update a f

let add_instance t ~name data =
  update t.instances (Smap.add name { data; handle = None })

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)

exception Reply of Wire.error_code * string

let bad fmt = Format.kasprintf (fun s -> raise (Reply (Bad_request, s))) fmt

let usecs s = int_of_float (s *. 1e6)

let get_inst t name =
  match Smap.find_opt name (Atomic.get t.instances) with
  | Some i -> i
  | None -> bad "unknown instance %S" name

(* Canonical fingerprint: the pretty-printed parse, not the raw text,
   so formatting variants of one query share a cache entry. *)
let fingerprint ~instance ast = instance ^ "\000" ^ Fmt.str "%a" Ast.pp ast

let parse_query q =
  try Parser.query q with Parser.Parse_error m -> bad "parse error: %s" m

(* Runs [f] on the instance's engine handle, building it first if there
   is none. If [f] raises, the handle's state is unknown, so it is
   dropped and rebuilt on next use. *)
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

(* Compiled against the handle's counts (join-order estimates only —
   the result set is order-independent). *)
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
  match entry.pe_id with
  | Some id -> id
  | None ->
    let id = t.next_plan in
    t.next_plan <- id + 1;
    entry.pe_id <- Some id;
    Hashtbl.replace t.plans id entry;
    id

let resolve_plan t inst ~instance = function
  | Wire.Id id -> (
    match Hashtbl.find_opt t.plans id with
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
  match mode with
  | Wire.Local ->
    let entry = resolve_plan t inst ~instance plan_ref in
    (with_handle inst (Eval.run entry.pe_plan), None)
  | Wire.Hypercube { p } ->
    if p < 1 then bad "hypercube: p must be >= 1";
    let entry = resolve_plan t inst ~instance plan_ref in
    let result, stats, _shares =
      Lamp_mpc.Hypercube.run ~executor:t.executor ~p entry.pe_ast inst.data
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
    let result, stats = Lamp_mpc.Grid_join.run ~executor:t.executor ~p inst.data in
    (result, Some stats)

(* Ingest only ever adds facts, so the live handle is extended with
   exactly the facts the union adds; its column indexes catch up on
   their next probe. If the append raises, [with_handle] drops the
   handle and the data stays as it was. Plans compiled with the old
   counts are dropped so re-preparation sees fresh cardinalities. *)
let ingest t ~instance facts =
  let inst = get_inst t instance in
  let fresh = Instance.diff (Instance.of_facts facts) inst.data in
  let added = Instance.cardinal fresh in
  if added > 0 then begin
    if Option.is_some inst.handle then
      with_handle inst (fun db -> Plan.Db.extend db fresh);
    inst.data <- Instance.union inst.data fresh;
    let prefix = instance ^ "\000" in
    ignore (Cache.remove_if t.plan_cache (String.starts_with ~prefix))
  end;
  added

let stats t =
  {
    Wire.sessions = Hashtbl.length t.sessions;
    active_requests = t.active;
    executor_in_flight = Executor.in_flight t.executor;
    pool_workers = Executor.workers t.executor;
    plan_cache_size = Cache.length t.plan_cache;
    plan_cache_hits = Cache.hits t.plan_cache;
    plan_cache_misses = Cache.misses t.plan_cache;
    requests_served = t.served;
    rejected = t.rejected.n;
    throttled = t.throttled.n;
    uptime_s = Unix.gettimeofday () -. t.started;
    deduped = t.deduped.n;
    shed = t.shed.n;
    reaped = t.reaped.n;
  }

let quota_allows t client =
  match t.config.quota with
  | None -> true
  | Some (rate, burst) ->
    let bucket =
      match Hashtbl.find_opt t.quotas client with
      | Some b -> b
      | None ->
        let b = Quota.create ~rate ~burst () in
        Hashtbl.replace t.quotas client b;
        b
    in
    Quota.try_take bucket

(* Admission, the server's one overload decision, taken by every
   engine op: the client's quota first, then the in-flight bound. An op
   that finds [max_inflight] requests admitted and not yet answered is
   refused [Overloaded] at once; that count is the queue it would have
   joined, so the retry hint is that many mean services. An admitted
   op holds its slot until its response's last frame is written. *)
let admit t s f =
  if not (quota_allows t s.client) then begin
    bump t.throttled;
    raise (Reply (Throttled, "client quota exhausted"))
  end;
  let n = t.active in
  if n >= t.config.max_inflight then begin
    bump t.shed;
    let mean_s =
      if t.ops = 0 then 0.0
      else float_of_int t.busy_us /. float_of_int t.ops /. 1e6
    in
    raise
      (Reply
         ( Overloaded { retry_after_s = float_of_int n *. mean_s },
           "server at max in-flight requests" ))
  end;
  t.active <- n + 1;
  s.slot <- true;
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      t.busy_us <- t.busy_us + usecs (Unix.gettimeofday () -. t0);
      t.ops <- t.ops + 1)
    f

let stream_result t reply result stats =
  let batch = ref [] and n = ref 0 in
  let flush () =
    if !n > 0 then reply (Wire.Batch (List.rev !batch));
    batch := [];
    n := 0
  in
  Instance.iter
    (fun fact ->
      batch := fact :: !batch;
      incr n;
      if !n = t.config.batch then flush ())
    result;
  flush ();
  reply (Wire.Done { facts = Instance.cardinal result; stats })

let span_info_of_event : Trace.event -> Wire.span_info option = function
  | Trace.Span { name; cat; tid; t; dur; args = _ } ->
    Some { Wire.sp_name = name; sp_cat = cat; sp_tid = tid; sp_t = t; sp_dur = dur }
  | Trace.Instant _ | Trace.Sample _ -> None

(* Produces the whole response into [t.response], each frame encoded
   once. *)
let handle_request t s req =
  Trace.incr requests_c;
  let reply resp = Wire.add_frame t.response (Wire.response_to_string resp) in
  try
    let rec go (req : Wire.request) =
      match req with
      | Hello { client = name; version } ->
        if version <> Wire.protocol_version then
          bad "protocol version %d, server speaks %d" version
            Wire.protocol_version;
        s.client <- name;
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
                ("client", Trace.Str s.client);
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
            match Dedup.acquire dedup ~client:s.client ~key ~digest with
            | `Replay frames ->
              (* The op already ran to completion (possibly for a
                 connection the client lost): answer with the recorded
                 frames, execute nothing. *)
              bump t.deduped;
              List.iter (Buffer.add_string t.response) frames
            | `Mismatch ->
              bad "idempotency key %d re-used for a different request" key
            | `Run token -> (
              (* The record is the response's frames, made as soon as
                 they exist, before any is written: a client that hangs
                 up before its answer gets the replay on its retry. Only
                 successes are recorded, and none past
                 [dedup_max_bytes], which bounds what the window pins:
                 those retries re-execute. *)
              let start = Buffer.length t.response in
              match go inner with
              | () ->
                let len = Buffer.length t.response - start in
                if len > t.config.dedup_max_bytes then Dedup.abort dedup token
                else Dedup.commit dedup token [ Buffer.sub t.response start len ]
              | exception e ->
                Dedup.abort dedup token;
                raise e))))
      | Prepare { instance; query } ->
        admit t s (fun () ->
            let ast = parse_query query in
            let inst = get_inst t instance in
            let entry, cached = prepare_plan t inst ~instance ast in
            let id = plan_id t entry in
            t.served <- t.served + 1;
            reply
              (Prepared { id; cached; atoms = Eval.atom_count entry.pe_plan }))
      | Execute { instance; plan; mode } ->
        admit t s (fun () ->
            let result, mpc_stats = execute t ~instance plan mode in
            t.served <- t.served + 1;
            stream_result t reply result mpc_stats)
      | Ingest { instance; facts } ->
        admit t s (fun () ->
            let added = ingest t ~instance facts in
            t.served <- t.served + 1;
            reply (Ingested { added }))
    in
    go req
  with
  | Reply (code, message) -> reply (Error { code; message })
  | e -> reply (Error { code = Failed; message = Printexc.to_string e })

(* ------------------------------------------------------------------ *)
(* The loop                                                            *)

let deadline_after = function
  | None -> infinity
  | Some s -> Unix.gettimeofday () +. s

let release t s =
  if s.slot then begin
    s.slot <- false;
    t.active <- t.active - 1
  end

let close_session t s =
  release t s;
  Hashtbl.remove t.sessions s.fd;
  try Unix.close s.fd with Unix.Unix_error _ -> ()

(* Writes what the socket takes of [s.out]; once all of it is written,
   the session frees its slot and waits for a request or hangs up. *)
let flush t s =
  match
    while s.out_off < String.length s.out do
      s.out_off <- s.out_off + Wire.write_some s.fd s.out s.out_off
    done
  with
  | () ->
    s.out <- "";
    s.out_off <- 0;
    release t s;
    if s.closing then close_session t s
    else s.deadline <- deadline_after t.config.idle_timeout_s
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
  | exception (Wire.Closed | Unix.Unix_error _) -> close_session t s

(* One write deadline covers the whole response: a peer that drains a
   long stream too slowly is cut off even if each frame alone would
   make it. *)
let respond t s =
  s.out <- Buffer.contents t.response;
  s.out_off <- 0;
  Buffer.reset t.response;
  s.deadline <- deadline_after t.config.write_timeout_s;
  flush t s

(* A frame that cannot be read leaves the stream unframed: answer once
   and hang up rather than guess at a resync point. *)
let hang_up t s code message =
  Wire.add_frame t.response (Wire.response_to_string (Error { code; message }));
  s.closing <- true;
  respond t s

let add_session t fd =
  Unix.set_nonblock fd;
  let s =
    {
      fd;
      reader = Wire.reader ~max_len:t.config.max_frame ();
      client = "anon";
      out = "";
      out_off = 0;
      slot = false;
      closing = false;
      deadline = deadline_after t.config.idle_timeout_s;
    }
  in
  Hashtbl.replace t.sessions fd s;
  if Hashtbl.length t.sessions > t.config.max_sessions then begin
    bump t.rejected;
    hang_up t s Rejected "server at max sessions"
  end

let rec accept_all t listener =
  match Unix.accept ~cloexec:true listener with
  | fd, _ ->
    add_session t fd;
    accept_all t listener
  | exception Unix.Unix_error _ -> (* EAGAIN, or EMFILE: a later turn *) ()

(* Reads toward [s]'s next request; a whole frame joins [ready] with
   the time it completed. The read deadline starts with the frame's
   first bytes, so the idle wait before them never counts against it. *)
let read t s ready =
  let fresh = not (Wire.started s.reader) in
  let rec pull () =
    match Wire.read_some s.reader s.fd with
    | Some payload -> ready := (s, payload, Unix.gettimeofday ()) :: !ready
    | None -> pull ()
  in
  match pull () with
  | () -> ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
    if fresh && Wire.started s.reader then
      s.deadline <- deadline_after t.config.read_timeout_s
  | exception (Wire.Closed | Unix.Unix_error _) -> close_session t s
  | exception Wire.Too_large { len; limit } ->
    hang_up t s Corrupt_frame
      (Printf.sprintf "frame length %d exceeds limit %d" len limit)
  | exception Lamp_jobs.Codec.Corrupt msg ->
    hang_up t s Corrupt_frame ("corrupt frame: " ^ msg)

let run t (s, payload, ready_at) =
  let t0 = Unix.gettimeofday () in
  Trace.observe queue_wait_h (usecs (t0 -. ready_at));
  match Wire.request_of_string payload with
  | exception Lamp_jobs.Codec.Corrupt msg ->
    hang_up t s Corrupt_frame ("corrupt frame: " ^ msg)
  | req ->
    handle_request t s req;
    respond t s;
    Trace.observe request_h (usecs (Unix.gettimeofday () -. t0))

let drain_wake t =
  let b = Bytes.create 64 in
  try while Unix.read t.wake_r b 0 64 > 0 do () done
  with Unix.Unix_error _ -> ()

(* One turn: reap the sessions past their deadline, poll the wake pipe,
   the listeners and every session until something is ready or the
   nearest deadline, then accept, write, and read whole frames. The
   frames completed in this turn then run in order, at most one per
   session, each answered before the next starts. *)
let turn t =
  let now = Unix.gettimeofday () in
  let expired, live =
    List.partition (fun s -> s.deadline <= now)
      (Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [])
  in
  List.iter (fun s -> bump t.reaped; close_session t s) expired;
  let next = List.fold_left (fun d s -> Float.min d s.deadline) infinity live in
  let listeners = Atomic.get t.listeners in
  let nl = 1 + List.length listeners in
  let fds = Array.of_list ((t.wake_r :: listeners) @ List.map (fun s -> s.fd) live) in
  let events = Array.make (Array.length fds) Wire.pollin in
  List.iteri (fun i s -> if s.out <> "" then events.(nl + i) <- Wire.pollout) live;
  let timeout_ms =
    if next = infinity then -1
    else max 0 (int_of_float (Float.ceil ((next -. now) *. 1000.0)))
  in
  if Wire.poll fds events timeout_ms > 0 then begin
    if events.(0) <> 0 then drain_wake t;
    List.iteri (fun i l -> if events.(1 + i) <> 0 then accept_all t l) listeners;
    let ready = ref [] in
    List.iteri
      (fun i s ->
        let e = events.(nl + i) in
        if e land Wire.pollout <> 0 then flush t s
        else if e <> 0 then read t s ready)
      live;
    List.iter (run t) (List.rev !ready)
  end

let serve t =
  while not (Atomic.get t.stopping) do
    turn t
  done;
  List.iter (close_session t) (Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []);
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    (Atomic.exchange t.listeners [])

let create ?(config = default_config) ~executor () =
  if config.max_sessions < 1 then invalid_arg "Server: max_sessions < 1";
  if config.max_inflight < 0 then invalid_arg "Server: max_inflight < 0";
  if config.batch < 1 then invalid_arg "Server: batch < 1";
  if config.max_frame < 1 then invalid_arg "Server: max_frame < 1";
  if config.dedup_max_bytes < 1 then
    invalid_arg "Server: dedup_max_bytes < 1";
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      config;
      executor;
      instances = Atomic.make Smap.empty;
      listeners = Atomic.make [];
      stopping = Atomic.make false;
      wake_r;
      wake_w;
      loop = None;
      sessions = Hashtbl.create 64;
      plans = Hashtbl.create 64;
      next_plan = 1;
      plan_cache = Cache.create ~capacity:config.plan_cache ();
      quotas = Hashtbl.create 16;
      dedup =
        (if config.dedup_window > 0 then
           Some (Dedup.create ~capacity:config.dedup_window)
         else None);
      response = Buffer.create 65536;
      started = Unix.gettimeofday ();
      active = 0;
      served = 0;
      rejected = count "serve.rejected";
      throttled = count "serve.throttled";
      deduped = count "serve.deduped";
      shed = count "serve.shed";
      reaped = count "serve.reaped";
      busy_us = 0;
      ops = 0;
    }
  in
  register_gauges t;
  t.loop <- Some (Thread.create serve t);
  t

let wake t =
  try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
  with Unix.Unix_error _ -> ()

(* Binds and listens on the caller's thread, then hands the listener
   to the loop. *)
let listen t domain addr =
  let fd = Unix.socket ~cloexec:true domain SOCK_STREAM 0 in
  match
    if domain = Unix.PF_INET then Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd addr;
    Unix.listen fd 128;
    Unix.set_nonblock fd;
    if Atomic.get t.stopping then invalid_arg "Server: stopped"
  with
  | () ->
    update t.listeners (List.cons fd);
    wake t;
    fd
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

let listen_unix t ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  ignore (listen t PF_UNIX (ADDR_UNIX path))

let listen_tcp ?(host = "127.0.0.1") t ~port =
  let fd = listen t PF_INET (ADDR_INET (Unix.inet_addr_of_string host, port)) in
  match Unix.getsockname fd with
  | ADDR_INET (_, p) -> p
  | ADDR_UNIX _ -> assert false

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    wake t;
    Option.iter Thread.join t.loop;
    Unix.close t.wake_r;
    Unix.close t.wake_w
  end
