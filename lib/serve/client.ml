module Instance = Lamp_relational.Instance

type t = {
  fd : Unix.file_descr;
  mutable closed : bool;
  (* Per-request deadline budget, set at connect time. *)
  timeout_s : float option;
  (* This connection's trace id and the next span id under it; carried
     by the [Traced] envelope on every work request so server-side
     spans link back to the caller. *)
  trace : int;
  mutable next_span : int;
}

exception Server_error of Wire.error_code * string
exception Protocol_error of string
exception Connection_lost of string
exception Timed_out of string

let proto fmt = Format.kasprintf (fun s -> raise (Protocol_error s)) fmt

(* Process-unique trace ids: the pid distinguishes processes, the
   counter distinguishes connections within one. *)
let trace_counter = Atomic.make 1

let fresh_trace () =
  (Unix.getpid () lsl 24) lxor Atomic.fetch_and_add trace_counter 1

(* Once a frame is torn — peer gone mid-stream, deadline passed, bytes
   that fail the checksum — the connection's framing is unknowable, so
   the client value is dead: mark, close, raise the typed error. *)
let dead t e =
  t.closed <- true;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  raise e

let errno_name = Unix.error_message

(* Run one I/O step, mapping every transport-level failure to the
   typed exceptions. [Codec.Corrupt] from a framed read means the
   checksum or the layout disagreed with the peer — corruption in
   flight, not a caller bug — and is connection-fatal too. *)
let io t label f =
  try f () with
  | Wire.Closed -> dead t (Connection_lost (label ^ ": connection closed"))
  | Wire.Timed_out -> dead t (Timed_out (label ^ ": deadline exceeded"))
  | Unix.Unix_error
      ( (( ECONNRESET | EPIPE | ETIMEDOUT | ECONNABORTED | ENOTCONN
         | EHOSTUNREACH | ENETDOWN | ENETUNREACH | ENETRESET ) as errno),
        _,
        _ ) ->
    dead t (Connection_lost (label ^ ": " ^ errno_name errno))
  | Lamp_jobs.Codec.Corrupt msg ->
    dead t (Connection_lost (label ^ ": corrupt frame: " ^ msg))
  | Wire.Too_large { len; limit } ->
    (* A response frame claiming more than the limit means the length
       header itself is corrupt — the stream is unframed, same as a
       checksum mismatch. *)
    dead t
      (Connection_lost
         (Printf.sprintf "%s: corrupt frame: length %d exceeds %d" label len
            limit))

let connect ?timeout_s fd addr =
  match Unix.connect fd addr with
  | () ->
    {
      fd;
      closed = false;
      timeout_s;
      trace = fresh_trace ();
      next_span = 0;
    }
  | exception e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    (match e with
    | Unix.Unix_error
        ( (( ECONNREFUSED | ECONNRESET | ETIMEDOUT | ENOENT | EAGAIN
           | EHOSTUNREACH | ENETUNREACH | ENETDOWN ) as errno),
          _,
          _ ) ->
      (* Transient connect failures (including a not-yet-bound Unix
         socket path) map to the typed error so resilient callers can
         retry the connect like any other loss. *)
      raise (Connection_lost ("connect: " ^ errno_name errno))
    | e -> raise e)

let connect_unix ?timeout_s ~path () =
  connect ?timeout_s
    (Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0)
    (ADDR_UNIX path)

let connect_tcp ?timeout_s ?(host = "127.0.0.1") ~port () =
  connect ?timeout_s
    (Unix.socket ~cloexec:true PF_INET SOCK_STREAM 0)
    (ADDR_INET (Unix.inet_addr_of_string host, port))

let close t =
  if not t.closed then begin
    t.closed <- true;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let closed t = t.closed

let deadline t =
  Option.map (fun s -> Unix.gettimeofday () +. s) t.timeout_s

let check_open t =
  if t.closed then raise (Connection_lost "client is closed")

(* One request/response exchange under a single absolute deadline. *)
let roundtrip t req =
  check_open t;
  let dl = deadline t in
  io t "request" (fun () -> Wire.write_request ?deadline:dl t.fd req);
  match io t "response" (fun () -> Wire.read_response ?deadline:dl t.fd) with
  | Error { code; message } -> raise (Server_error (code, message))
  | resp -> resp

(* Wrap a work request in the trace envelope. Scrape ops ({!metrics},
   {!trace_dump}) stay unwrapped: the scraper should read the trace,
   not add to it. *)
let traced t req =
  let span = t.next_span in
  t.next_span <- span + 1;
  Wire.Traced { trace = t.trace; span; req }

(* The idempotency envelope, inside [Traced]. *)
let keyed ?key req =
  match key with
  | Some key -> Wire.Keyed { key; req }
  | None -> req

let hello ?(client = "anon") t =
  match roundtrip t (Hello { client; version = Wire.protocol_version }) with
  | Hello_ok { server; version } ->
    if version <> Wire.protocol_version then
      proto "server speaks protocol %d, client %d" version
        Wire.protocol_version;
    server
  | _ -> proto "expected Hello_ok"

type prepared = {
  id : int;
  cached : bool;
  atoms : int;
}

let prepare ?key t ~instance ~query =
  match roundtrip t (traced t (keyed ?key (Prepare { instance; query }))) with
  | Prepared { id; cached; atoms } -> { id; cached; atoms }
  | _ -> proto "expected Prepared"

(* Collect Batch* Done. The first response comes through [roundtrip],
   so a leading Error raises there; Errors can also terminate the
   stream mid-way. The whole stream shares one deadline: a server (or
   chaos proxy) trickling batches forever cannot pin the caller. *)
let execute ?key t ~instance ?(mode = Wire.Local) plan =
  check_open t;
  let dl = deadline t in
  io t "request" (fun () ->
      Wire.write_request ?deadline:dl t.fd
        (traced t (keyed ?key (Execute { instance; plan; mode }))));
  let read () =
    io t "response" (fun () -> Wire.read_response ?deadline:dl t.fd)
  in
  let rec collect acc = function
    | Wire.Batch facts -> collect (List.rev_append facts acc) (read ())
    | Wire.Done { facts; stats } ->
      let got = List.length acc in
      if got <> facts then
        proto "result stream announced %d facts, carried %d" facts got;
      (Instance.of_facts acc, stats)
    | Wire.Error { code; message } -> raise (Server_error (code, message))
    | _ -> proto "expected Batch or Done"
  in
  collect [] (read ())

let ingest ?key t ~instance facts =
  match roundtrip t (traced t (keyed ?key (Ingest { instance; facts }))) with
  | Ingested { added } -> added
  | _ -> proto "expected Ingested"

let stats t =
  match roundtrip t (traced t Wire.Stats) with
  | Stats_reply s -> s
  | _ -> proto "expected Stats_reply"

let health t =
  match roundtrip t (traced t Wire.Health) with
  | Healthy -> true
  | _ -> false

let metrics t =
  match roundtrip t Wire.Metrics with
  | Metrics_reply text -> text
  | _ -> proto "expected Metrics_reply"

let trace_dump ?(limit = 256) t =
  match roundtrip t (Wire.Trace_dump { limit }) with
  | Trace_reply spans -> spans
  | _ -> proto "expected Trace_reply"
