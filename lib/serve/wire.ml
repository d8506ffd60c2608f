module Codec = Lamp_jobs.Codec
module Stats = Lamp_mpc.Stats

(* The only wire format. A hello at any other version is refused. *)
let protocol_version = 3
let max_frame = 256 * 1024 * 1024

type mode =
  | Local
  | Hypercube of { p : int }
  | Repartition of { p : int }
  | Grid of { p : int }

type plan_ref =
  | Id of int
  | Adhoc of string

type request =
  | Hello of { client : string; version : int }
  | Prepare of { instance : string; query : string }
  | Execute of { instance : string; plan : plan_ref; mode : mode }
  | Ingest of { instance : string; facts : Lamp_relational.Fact.t list }
  | Stats
  | Health
  | Metrics
  | Trace_dump of { limit : int }
  | Traced of { trace : int; span : int; req : request }
  | Keyed of { key : int; req : request }

type error_code =
  | Bad_request
  | Rejected
  | Throttled
  | Failed
  | Overloaded of { retry_after_s : float }
  | Corrupt_frame

type server_stats = {
  sessions : int;
  active_requests : int;
  executor_in_flight : int;
  pool_workers : int;
  plan_cache_size : int;
  plan_cache_hits : int;
  plan_cache_misses : int;
  requests_served : int;
  rejected : int;
  throttled : int;
  uptime_s : float;
  deduped : int;
  shed : int;
  reaped : int;
}

type span_info = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_t : float;
  sp_dur : float;
}

type response =
  | Hello_ok of { server : string; version : int }
  | Prepared of { id : int; cached : bool; atoms : int }
  | Batch of Lamp_relational.Fact.t list
  | Done of { facts : int; stats : Lamp_mpc.Stats.t option }
  | Ingested of { added : int }
  | Stats_reply of server_stats
  | Healthy
  | Error of { code : error_code; message : string }
  | Metrics_reply of string
  | Trace_reply of span_info list

(* Codecs. Every variant gets a one-character tag; unknown tags raise
   Corrupt with the offending byte, like the checkpoint codecs. *)

let w_mode b = function
  | Local -> Codec.w_char b 'l'
  | Hypercube { p } ->
    Codec.w_char b 'h';
    Codec.w_int b p
  | Repartition { p } ->
    Codec.w_char b 'r';
    Codec.w_int b p
  | Grid { p } ->
    Codec.w_char b 'g';
    Codec.w_int b p

let r_mode r =
  match Codec.r_char r with
  | 'l' -> Local
  | 'h' -> Hypercube { p = Codec.r_int r }
  | 'r' -> Repartition { p = Codec.r_int r }
  | 'g' -> Grid { p = Codec.r_int r }
  | c -> raise (Codec.Corrupt (Printf.sprintf "bad mode tag %C" c))

let w_plan_ref b = function
  | Id id ->
    Codec.w_char b 'i';
    Codec.w_int b id
  | Adhoc q ->
    Codec.w_char b 'a';
    Codec.w_string b q

let r_plan_ref r =
  match Codec.r_char r with
  | 'i' -> Id (Codec.r_int r)
  | 'a' -> Adhoc (Codec.r_string r)
  | c -> raise (Codec.Corrupt (Printf.sprintf "bad plan-ref tag %C" c))

let rec w_request b = function
  | Hello { client; version } ->
    Codec.w_char b 'h';
    Codec.w_string b client;
    Codec.w_int b version
  | Prepare { instance; query } ->
    Codec.w_char b 'p';
    Codec.w_string b instance;
    Codec.w_string b query
  | Execute { instance; plan; mode } ->
    Codec.w_char b 'x';
    Codec.w_string b instance;
    w_plan_ref b plan;
    w_mode b mode
  | Ingest { instance; facts } ->
    Codec.w_char b 'g';
    Codec.w_string b instance;
    Codec.w_list b Codec.w_fact facts
  | Stats -> Codec.w_char b 's'
  | Health -> Codec.w_char b '?'
  | Metrics -> Codec.w_char b 'm'
  | Trace_dump { limit } ->
    Codec.w_char b 't';
    Codec.w_int b limit
  | Traced { trace; span; req } ->
    Codec.w_char b 'T';
    Codec.w_int b trace;
    Codec.w_int b span;
    w_request b req
  | Keyed { key; req } ->
    Codec.w_char b 'K';
    Codec.w_int b key;
    w_request b req

let rec r_request r =
  match Codec.r_char r with
  | 'h' ->
    let client = Codec.r_string r in
    Hello { client; version = Codec.r_int r }
  | 'p' ->
    let instance = Codec.r_string r in
    Prepare { instance; query = Codec.r_string r }
  | 'x' ->
    let instance = Codec.r_string r in
    let plan = r_plan_ref r in
    Execute { instance; plan; mode = r_mode r }
  | 'g' ->
    let instance = Codec.r_string r in
    Ingest { instance; facts = Codec.r_list r Codec.r_fact }
  | 's' -> Stats
  | '?' -> Health
  | 'm' -> Metrics
  | 't' -> Trace_dump { limit = Codec.r_int r }
  | 'T' ->
    let trace = Codec.r_int r in
    let span = Codec.r_int r in
    (* One trace envelope per request: a nested [Traced] is malformed,
       not merely unusual — reject it like any other bad frame. The
       canonical nesting order is Traced{Keyed{op}}. *)
    (match r_request r with
    | Traced _ -> raise (Codec.Corrupt "nested Traced request")
    | req -> Traced { trace; span; req })
  | 'K' ->
    let key = Codec.r_int r in
    (* An idempotency key marks one re-executable engine op. Envelopes
       and session-level requests inside it are malformed. *)
    (match r_request r with
    | Keyed _ -> raise (Codec.Corrupt "nested Keyed request")
    | Traced _ -> raise (Codec.Corrupt "Traced inside Keyed request")
    | Hello _ -> raise (Codec.Corrupt "Hello inside Keyed request")
    | req -> Keyed { key; req })
  | c -> raise (Codec.Corrupt (Printf.sprintf "bad request tag %C" c))

let w_error_code b = function
  | Bad_request -> Codec.w_char b 'b'
  | Rejected -> Codec.w_char b 'j'
  | Throttled -> Codec.w_char b 't'
  | Failed -> Codec.w_char b 'f'
  | Overloaded { retry_after_s } ->
    Codec.w_char b 'o';
    Codec.w_float b retry_after_s
  | Corrupt_frame -> Codec.w_char b 'c'

let r_error_code r =
  match Codec.r_char r with
  | 'b' -> Bad_request
  | 'j' -> Rejected
  | 't' -> Throttled
  | 'f' -> Failed
  | 'o' -> Overloaded { retry_after_s = Codec.r_float r }
  | 'c' -> Corrupt_frame
  | c -> raise (Codec.Corrupt (Printf.sprintf "bad error tag %C" c))

let w_mpc_stats b (s : Stats.t) =
  Codec.w_int b s.p;
  Codec.w_int b s.initial_max;
  Codec.w_list b Stats.w_round_stats s.rounds;
  Codec.w_list b Stats.w_recovery s.recoveries

let r_mpc_stats r : Stats.t =
  let p = Codec.r_int r in
  let initial_max = Codec.r_int r in
  let rounds = Codec.r_list r Stats.r_round_stats in
  let recoveries = Codec.r_list r Stats.r_recovery in
  { p; initial_max; rounds; recoveries }

let w_server_stats b s =
  Codec.w_int b s.sessions;
  Codec.w_int b s.active_requests;
  Codec.w_int b s.executor_in_flight;
  Codec.w_int b s.pool_workers;
  Codec.w_int b s.plan_cache_size;
  Codec.w_int b s.plan_cache_hits;
  Codec.w_int b s.plan_cache_misses;
  Codec.w_int b s.requests_served;
  Codec.w_int b s.rejected;
  Codec.w_int b s.throttled;
  Codec.w_float b s.uptime_s;
  Codec.w_int b s.deduped;
  Codec.w_int b s.shed;
  Codec.w_int b s.reaped

let r_server_stats r =
  let sessions = Codec.r_int r in
  let active_requests = Codec.r_int r in
  let executor_in_flight = Codec.r_int r in
  let pool_workers = Codec.r_int r in
  let plan_cache_size = Codec.r_int r in
  let plan_cache_hits = Codec.r_int r in
  let plan_cache_misses = Codec.r_int r in
  let requests_served = Codec.r_int r in
  let rejected = Codec.r_int r in
  let throttled = Codec.r_int r in
  let uptime_s = Codec.r_float r in
  let deduped = Codec.r_int r in
  let shed = Codec.r_int r in
  let reaped = Codec.r_int r in
  {
    sessions;
    active_requests;
    executor_in_flight;
    pool_workers;
    plan_cache_size;
    plan_cache_hits;
    plan_cache_misses;
    requests_served;
    rejected;
    throttled;
    uptime_s;
    deduped;
    shed;
    reaped;
  }

let w_span_info b s =
  Codec.w_string b s.sp_name;
  Codec.w_string b s.sp_cat;
  Codec.w_int b s.sp_tid;
  Codec.w_float b s.sp_t;
  Codec.w_float b s.sp_dur

let r_span_info r =
  let sp_name = Codec.r_string r in
  let sp_cat = Codec.r_string r in
  let sp_tid = Codec.r_int r in
  let sp_t = Codec.r_float r in
  let sp_dur = Codec.r_float r in
  { sp_name; sp_cat; sp_tid; sp_t; sp_dur }

let w_response b = function
  | Hello_ok { server; version } ->
    Codec.w_char b 'H';
    Codec.w_string b server;
    Codec.w_int b version
  | Prepared { id; cached; atoms } ->
    Codec.w_char b 'P';
    Codec.w_int b id;
    Codec.w_bool b cached;
    Codec.w_int b atoms
  | Batch facts ->
    Codec.w_char b 'B';
    Codec.w_list b Codec.w_fact facts
  | Done { facts; stats } ->
    Codec.w_char b 'D';
    Codec.w_int b facts;
    Codec.w_option b w_mpc_stats stats
  | Ingested { added } ->
    Codec.w_char b 'G';
    Codec.w_int b added
  | Stats_reply s ->
    Codec.w_char b 'S';
    w_server_stats b s
  | Healthy -> Codec.w_char b 'O'
  | Error { code; message } ->
    Codec.w_char b 'E';
    w_error_code b code;
    Codec.w_string b message
  | Metrics_reply text ->
    Codec.w_char b 'M';
    Codec.w_string b text
  | Trace_reply spans ->
    Codec.w_char b 'T';
    Codec.w_list b w_span_info spans

let r_response r =
  match Codec.r_char r with
  | 'H' ->
    let server = Codec.r_string r in
    Hello_ok { server; version = Codec.r_int r }
  | 'P' ->
    let id = Codec.r_int r in
    let cached = Codec.r_bool r in
    Prepared { id; cached; atoms = Codec.r_int r }
  | 'B' -> Batch (Codec.r_list r Codec.r_fact)
  | 'D' ->
    let facts = Codec.r_int r in
    Done { facts; stats = Codec.r_option r r_mpc_stats }
  | 'G' -> Ingested { added = Codec.r_int r }
  | 'S' -> Stats_reply (r_server_stats r)
  | 'O' -> Healthy
  | 'E' ->
    let code = r_error_code r in
    Error { code; message = Codec.r_string r }
  | 'M' -> Metrics_reply (Codec.r_string r)
  | 'T' -> Trace_reply (Codec.r_list r r_span_info)
  | c -> raise (Codec.Corrupt (Printf.sprintf "bad response tag %C" c))

let encode w v =
  let b = Codec.writer () in
  w b v;
  Codec.contents b

let decode rd s =
  let r = Codec.reader s in
  let v = rd r in
  Codec.r_end r;
  v

let request_to_string = encode w_request
let request_of_string = decode r_request

(* [?version] only confirms the caller's session version: there is
   one response layout. *)
let check_version = function
  | Some v when v <> protocol_version ->
    invalid_arg
      (Printf.sprintf "Wire: protocol version %d, only %d exists" v
         protocol_version)
  | _ -> ()

let response_to_string ?version resp =
  check_version version;
  encode w_response resp

let response_of_string ?version s =
  check_version version;
  decode r_response s

(* Framed I/O. The frame header is 16 bytes: the payload length and a
   checksum of the payload, both 8-byte big-endian. The checksum is a
   63-bit FNV-style polynomial fold; multiplication wraps mod 2^63, and
   16777619 is odd, so any single-byte change at any position changes
   the digest — a chaos-proxy byte flip can never smuggle a
   valid-looking but different message past the decoder. A mismatch is
   indistinguishable from desync, so it is connection-fatal
   ([Codec.Corrupt]); the peer hangs up and a resilient client retries
   on a fresh connection. *)

exception Closed
exception Timed_out
exception Too_large of { len : int; limit : int }

(* The fold is h <- h*P + b per byte. Four steps of it regroup into
   h*P^4 + b0*P^3 + b1*P^2 + b2*P + b3, exact because every product
   wraps mod 2^63 alike, so one multiply on [h]'s dependency chain
   covers four bytes. *)
let p1 = 16777619
let p2 = p1 * p1
let p3 = p2 * p1
let p4 = p3 * p1

let checksum s =
  let n = String.length s in
  let byte i = Char.code (String.unsafe_get s i) in
  let h = ref 0x100001b3 in
  for k = 0 to (n / 4) - 1 do
    let j = 4 * k in
    h :=
      (!h * p4) + (byte j * p3) + (byte (j + 1) * p2) + (byte (j + 2) * p1)
      + byte (j + 3)
  done;
  for j = n land lnot 3 to n - 1 do
    h := (!h * p1) + byte j
  done;
  !h land max_int

(* Blocking calls meet their deadline in the kernel. Before a read
   (write) the socket's SO_RCVTIMEO (SO_SNDTIMEO) is set to the time
   left, and a call that runs out of it fails with EAGAIN (or returns
   what it moved so far). Each call is one read(2) or one write(2), so
   none waits longer than the time left. The timeval is microseconds
   and 0 means no timeout, so the time left is never set below 1 ms. *)
let bound fd opt deadline =
  let left = deadline -. Unix.gettimeofday () in
  if left <= 0.0 then raise Timed_out;
  Unix.setsockopt_float fd opt (Float.max left 0.001)

(* EAGAIN ends a kernel timeout: with a deadline, the next [bound]
   raises [Timed_out] once it has passed. Without one, the timeout is a
   stale one from an earlier deadline on this socket, and is
   cleared. *)
let timed_out fd opt deadline =
  if Option.is_none deadline then Unix.setsockopt_float fd opt 0.0

let pollin = 1
let pollout = 2

external poll : Unix.file_descr array -> int array -> int -> int = "lamp_poll"

(* POSIX raises SIGPIPE on a write after the peer has shut its read
   side, and the default disposition terminates the process — the
   EPIPE handler below would never run. Ignored once, on the first
   write, so a vanished peer surfaces as [Closed] instead. *)
let sigpipe_ignored =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let write_some fd s off =
  Lazy.force sigpipe_ignored;
  match Unix.single_write_substring fd s off (String.length s - off) with
  | n -> n
  | exception Unix.Unix_error ((EPIPE | ECONNRESET), _, _) -> raise Closed
  | exception Unix.Unix_error (EINTR, _, _) -> 0

let rec write_all ?deadline fd s off =
  if off < String.length s then begin
    Option.iter (bound fd Unix.SO_SNDTIMEO) deadline;
    match write_some fd s off with
    | n -> write_all ?deadline fd s (off + n)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      timed_out fd Unix.SO_SNDTIMEO deadline;
      write_all ?deadline fd s off
  end

(* A frame in assembly: [buf] is the 16-byte header until [len] is
   known, then the payload; [got] counts its bytes so far. The length
   cap is checked before the payload is allocated, the checksum before
   it is handed out. *)
type reader = {
  max_len : int;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable sum : int;
  mutable got : int;
}

let reader ?(max_len = max_frame) () =
  { max_len; buf = Bytes.create 16; len = -1; sum = 0; got = 0 }

let started r = r.len >= 0 || r.got > 0

let rec complete r =
  if r.got < Bytes.length r.buf then None
  else if r.len < 0 then begin
    let len = Int64.to_int (Bytes.get_int64_be r.buf 0) in
    if len < 0 then
      raise (Codec.Corrupt (Printf.sprintf "negative frame length %d" len));
    if len > r.max_len then raise (Too_large { len; limit = r.max_len });
    r.sum <- Int64.to_int (Bytes.get_int64_be r.buf 8);
    r.len <- len;
    r.buf <- Bytes.create len;
    r.got <- 0;
    complete r
  end
  else begin
    let payload = Bytes.unsafe_to_string r.buf in
    r.buf <- Bytes.create 16;
    r.len <- -1;
    r.got <- 0;
    if checksum payload <> r.sum then
      raise
        (Codec.Corrupt
           (Printf.sprintf "frame checksum mismatch (%d bytes)"
              (String.length payload)));
    Some payload
  end

let read_some r fd =
  (match Unix.read fd r.buf r.got (Bytes.length r.buf - r.got) with
  | 0 -> raise Closed
  | n -> r.got <- r.got + n
  | exception Unix.Unix_error (ECONNRESET, _, _) -> raise Closed
  | exception Unix.Unix_error (EINTR, _, _) -> ());
  complete r

let read_frame ?max_len ?deadline fd =
  let r = reader ?max_len () in
  let rec go () =
    Option.iter (bound fd Unix.SO_RCVTIMEO) deadline;
    match read_some r fd with
    | Some payload -> payload
    | None -> go ()
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
      timed_out fd Unix.SO_RCVTIMEO deadline;
      go ()
  in
  go ()

let add_frame b payload =
  Buffer.add_int64_be b (Int64.of_int (String.length payload));
  Buffer.add_int64_be b (Int64.of_int (checksum payload));
  Buffer.add_string b payload

(* One buffer per frame, so header and payload reach the socket in a
   single write when it is not full. *)
let write_frame ?deadline fd payload =
  let b = Buffer.create (16 + String.length payload) in
  add_frame b payload;
  write_all ?deadline fd (Buffer.contents b) 0

let read_request ?max_len ?deadline fd =
  request_of_string (read_frame ?max_len ?deadline fd)

let write_request ?deadline fd req =
  write_frame ?deadline fd (request_to_string req)

let read_response ?version ?max_len ?deadline fd =
  check_version version;
  response_of_string (read_frame ?max_len ?deadline fd)

let write_response ?deadline fd resp =
  write_frame ?deadline fd (response_to_string resp)
