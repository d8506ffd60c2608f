(* The serve workload: a `lamp serve` child process on a Unix socket,
   driven by one generator thread that multiplexes two connections with
   select, so the numbers measure the server rather than the scheduling
   of generator threads. It sends ad-hoc keyed Executes (what `lamp
   client exec` sends) of a fixed query mix over a uniform triangle
   instance, with keyed Ingests of fresh facts interleaved on connection
   0: between ingests reads take the hot path (cache hits, pooled
   handle), and every ingest retires the pooled handles and cached plans
   the next reads rebuild.

   Each run is cut into rounds. A round opens with one setup sample (a
   fresh server spawned, warmed up and killed beside the loaded one),
   then alternates a closed-loop slice (both connections back to back:
   ops_per_s) with an open-loop slice (seeded Poisson arrivals at a
   fixed reference rate: latency from each request's due time), so all
   three figures sample the same stretches of host speed. *)

open Lamp
open Util
module Instance = Relational.Instance
module Fact = Relational.Fact
module Value = Relational.Value
module Wire = Serve.Wire
module Client = Serve.Client

type config = {
  m : int;  (** Facts drawn per relation of the uniform triangle, over m values. *)
  lookups : int;  (** Distinct lookup constants (one cached plan each). *)
  ingest_every : int;  (** One ingest per this many ops. *)
  rate : float;  (** Open-loop reference rate, requests per second. *)
  setups : int;  (** Rounds of a run, one timed server spawn each (setup_s is their median). *)
}

(* Fresh facts per ingest. *)
let ingest_size = 2

let instance_name = "main"
let triangle = "H(x,y,z) <- R(x,y), S(y,z), T(z,x)"
let scan rel = Printf.sprintf "H(x,y) <- %s(x,y)" rel

(* ------------------------------------------------------------------ *)
(* Inputs and oracle                                                   *)

type query = {
  text : string;
  shape : string;  (** "triangle" | "lookup" | "scan" *)
  ast : Cq.Ast.t;
  expected : Fact.t list;  (** Oracle answer, in streaming order. *)
}

type op =
  | Read of int  (** index into the query array *)
  | Ingest of int  (** ingest batch number *)

type inputs = {
  base : Instance.t;
  queries : query array;  (** triangle, R scan, then the lookups *)
  cycle : op array;  (** the fixed op mix, ingests as [Ingest (-1)] *)
}

(* Index of the R scan, the one read ingests change. *)
let scan_r = 1

let make_query base text shape =
  let ast = Cq.Parser.query text in
  { text; shape; ast; expected = Instance.facts (Cq.Eval.eval ast base) }

let make_inputs ~seed cfg =
  let rng = Random.State.make [| seed |] in
  let base =
    Mpc.Workload.triangle_skew_free ~rng ~m:cfg.m ~domain:cfg.m
  in
  let rs = Array.of_list (Instance.tuple_list base "R") in
  let lookups =
    List.init cfg.lookups (fun _ ->
        let c = rs.(Random.State.int rng (Array.length rs)).(0) in
        Printf.sprintf "H(y) <- R(%s,y)" (Value.to_string c))
    |> List.sort_uniq compare
  in
  let queries =
    Array.of_list
      (make_query base triangle "triangle"
      :: make_query base (scan "R") "scan"
      :: List.map (fun q -> make_query base q "lookup") lookups)
  in
  (* The mix: per 16 reads one triangle (bound by evaluation), one
     scan streaming ~m facts in several Batch frames (bound by encode
     and write) and 14 lookups (bound by transport), with one ingest
     per [ingest_every] ops. *)
  let nl = Array.length queries - 2 in
  let reads =
    List.init 16 (fun i ->
        match i with
        | 0 -> Read 0
        | 8 -> Read 1
        | _ -> Read (2 + Random.State.int rng nl))
  in
  let cycle =
    List.init cfg.ingest_every (fun i ->
        if i = 0 then Ingest (-1) else List.nth reads (i mod 16))
  in
  { base; queries; cycle = Array.of_list cycle }

(* Ingest batch [k]: [ingest_size] facts over fresh values, in R, S and
   T by turns. They never meet the base domain or each other, so every
   fact is new (the Ingested count is exactly [ingest_size]), the
   triangle and lookup answers never change, and only scans see the
   growth. *)
let ingest_rel k = match k mod 3 with 0 -> "R" | 1 -> "S" | _ -> "T"

let ingest_batch k =
  List.init ingest_size (fun j ->
      let v = 1_000_000_000 + (2 * ((k * ingest_size) + j)) in
      Fact.of_ints (ingest_rel k) [ v; v + 1 ])

(* ------------------------------------------------------------------ *)
(* The server child                                                    *)

(* A load connection. The generator multiplexes the two of them with
   select, so they stay raw file descriptors speaking Serve.Wire. *)
type conn = {
  fd : Unix.file_descr;
  version : int;
  trace : int;
  mutable next_span : int;
  mutable next_key : int;
}

type server = {
  pid : int;
  sock : string;
  out : Unix.file_descr;  (** its standard output, read until it listens *)
  control : Client.t;  (** warm-up, probe, final scans and scrapes *)
}

let live_children : int list ref = ref []

let reap pid =
  let rec wait () =
    match Unix.waitpid [] pid with
    | _ -> ()
    | exception Unix.Unix_error (EINTR, _, _) -> wait ()
    | exception Unix.Unix_error (ECHILD, _, _) -> ()
  in
  wait ();
  live_children := List.filter (( <> ) pid) !live_children

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          reap pid)
        !live_children)

let connect srv ~client =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX srv.sock);
  Wire.write_request fd (Hello { client; version = Wire.protocol_version });
  match Wire.read_response ~version:Wire.protocol_version fd with
  | Hello_ok { version; _ } ->
    { fd; version; trace = (Unix.getpid () lsl 24) lxor Hashtbl.hash client;
      next_span = 0; next_key = 1 }
  | _ -> failwith "serve: expected Hello_ok"

(* The envelope `lamp client` puts on every engine op: a trace span
   around an idempotency key. *)
let envelope c req =
  let span = c.next_span and key = c.next_key in
  c.next_span <- span + 1;
  c.next_key <- key + 1;
  Wire.Traced { trace = c.trace; span; req = Keyed { key; req } }

let execute_req c text =
  envelope c (Execute { instance = instance_name; plan = Adhoc text; mode = Local })

let execute srv ?mode text =
  Client.execute srv.control ~instance:instance_name ?mode (Adhoc text)

(* Start `lamp serve` and return once it listens. It prints "listening
   on PATH" as soon as the socket is bound, so the wait blocks on its
   standard output rather than polling the socket. *)
let spawn ~lamp ~dir ~facts_file ~telemetry ~tag =
  let sock = Filename.concat dir (tag ^ ".sock") in
  let log_path = Filename.concat dir (tag ^ ".log") in
  let log = Unix.openfile log_path [ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644 in
  let args =
    [ lamp; "serve"; "--socket=" ^ sock; "--instance-file=" ^ facts_file;
      "--name=" ^ instance_name; "--backend=seq" ]
    @ if telemetry then [ "--telemetry" ] else []
  in
  let devnull = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let out, out_w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process lamp (Array.of_list args) devnull out_w log in
  List.iter Unix.close [ devnull; out_w; log ];
  live_children := pid :: !live_children;
  let deadline = now () +. 60.0 in
  let said = Buffer.create 128 and chunk = Bytes.create 128 in
  let listening () =
    String.split_on_char '\n' (Buffer.contents said)
    |> List.exists (String.starts_with ~prefix:"listening on")
  in
  let rec wait () =
    if not (listening ()) then begin
      let left = deadline -. now () in
      if left <= 0.0 then failwith "serve: lamp serve never listened";
      match Unix.select [ out ] [] [] left with
      | [], _, _ -> wait ()
      | _ -> (
        match Unix.read out chunk 0 (Bytes.length chunk) with
        | 0 ->
          reap pid;
          Unix.close out;
          failwith ("serve: lamp serve exited before listening: "
                    ^ String.trim (read_file log_path))
        | n ->
          Buffer.add_subbytes said chunk 0 n;
          wait ())
      | exception Unix.Unix_error (EINTR, _, _) -> wait ()
    end
  in
  wait ();
  let control = Client.connect_unix ~path:sock () in
  ignore (Client.hello ~client:(tag ^ "-control") control);
  { pid; sock; out; control }

(* The server drains on SIGTERM; a setup sample's server is only
   killed. *)
let stop ?(signal = Sys.sigterm) s =
  Client.close s.control;
  (try Unix.kill s.pid signal with Unix.Unix_error _ -> ());
  reap s.pid;
  Unix.close s.out

(* ------------------------------------------------------------------ *)
(* Expected state                                                      *)

(* What the run has told the server so far: ingests are sent in batch
   order on connection 0 only, so the server's versions are exactly the
   prefixes base ∪ batch 0 ∪ … ∪ batch (k-1). *)
type state = {
  inputs : inputs;
  cfg : config;
  mutable drawn : int;  (** ingest batches handed out, sent or queued *)
  mutable acked : int;
  mutable current : Instance.t;  (** base ∪ every acknowledged batch *)
}

let new_state inputs cfg =
  { inputs; cfg; drawn = 0; acked = 0; current = inputs.base }

(* A scan of R answers H(x,y) for base R followed by the fresh R facts:
   their values lie above the base domain, so they sort after it, in
   ingest order. After v ingests the R batches are 0, 3, …, so the scan
   holds ceil(v/3) of them; a scan may observe any v between the
   ingests acknowledged when it was sent and those drawn by its answer.
   Checked in one pass, without building the expected instance. *)
let scan_matches (q : query) ~lo ~hi got =
  let same r g =
    Fact.rel g = "H" && Relational.Tuple.equal (Fact.args r) (Fact.args g)
  in
  let rec base exp got =
    match exp, got with
    | [], rest -> Some rest
    | e :: et, g :: gt when Fact.equal e g -> base et gt
    | _ -> None
  in
  let rec batch fs got =
    match fs, got with
    | [], rest -> Some rest
    | f :: ft, g :: gt when same f g -> batch ft gt
    | _ -> None
  in
  let rec batches c got =
    match got with
    | [] -> Some c
    | _ -> (
      match batch (ingest_batch (3 * c)) got with
      | Some rest -> batches (c + 1) rest
      | None -> None)
  in
  let ceil3 v = (v + 2) / 3 in
  match Option.bind (base q.expected got) (batches 0) with
  | Some c -> ceil3 lo <= c && c <= ceil3 hi
  | None -> false

(* ------------------------------------------------------------------ *)
(* The generator                                                       *)

type inflight = {
  op : op;
  due : float;
  sent_at : float;
  acked_at_send : int;
  mutable acc : Fact.t list;  (** reversed batches *)
}

type tally = {
  res : result;
  mutable latencies : float list;  (** open loop, ms from due time *)
  mutable services : float list;  (** ms from send, both loops *)
  mutable late : float list;  (** generator lateness, ms *)
  mutable closed_ops : int;
  mutable closed_time : float;
  mutable open_ops : int;
}

let new_tally res =
  { res; latencies = []; services = []; late = []; closed_ops = 0;
    closed_time = 0.0; open_ops = 0 }

let check_read tally (q : query) ~qi ~lo ~hi got =
  let ok =
    if qi = scan_r then
      scan_matches q ~lo ~hi got
    else List.equal Fact.equal got q.expected
  in
  if not ok then
    mismatch tally.res "read %S: answer (%d facts) differs from the oracle"
      q.text (List.length got)

type mode = Closed | Open of float array  (** due offsets, seconds *)

(* Drive one slice. Closed: both connections back to back for
   [duration]. Open: the requests due at the given offsets; a request
   waits for an idle eligible connection (ingests ride connection 0
   only) and its latency runs from its due time. *)
let run_slice ~conns ~st ~tally ~traced ~cursor mode duration =
  let inflight = Array.make 2 None in
  let free_since = Array.make 2 0.0 in
  let backlog = Queue.create () in
  let next_op () =
    let op = st.inputs.cycle.(!cursor mod Array.length st.inputs.cycle) in
    incr cursor;
    op
  in
  let t_start = now () in
  Array.fill free_since 0 2 t_start;
  let arrivals = match mode with Open a -> a | Closed -> [||] in
  let next_arrival = ref 0 in
  let closed_done = ref 0 in
  let stop_issuing () =
    match mode with
    | Closed -> now () -. t_start >= duration
    | Open _ -> !next_arrival >= Array.length arrivals
  in
  let send i (op, due) =
    let c = conns.(i) in
    let req =
      match op with
      | Read qi -> execute_req c st.inputs.queries.(qi).text
      | Ingest k ->
        envelope c
          (Ingest { instance = instance_name; facts = ingest_batch k })
    in
    let t = now () in
    (match mode with
    | Open _ -> tally.late <- (1000.0 *. (t -. Float.max due free_since.(i))) :: tally.late
    | Closed -> ());
    Wire.write_request c.fd req;
    inflight.(i) <- Some { op; due; sent_at = t; acked_at_send = st.acked; acc = [] }
  in
  let eligible i = function Ingest _ -> i = 0 | Read _ -> true in
  (* Fix the batch number of an ingest when it is drawn, so batches go
     out in order. *)
  let draw () =
    match next_op () with
    | Ingest _ ->
      let k = st.drawn in
      st.drawn <- k + 1;
      Ingest k
    | op -> op
  in
  let dispatch () =
    for i = 0 to 1 do
      if inflight.(i) = None then begin
        let from_backlog =
          if Queue.is_empty backlog then None
          else begin
            let found = ref None in
            let rest = Queue.create () in
            Queue.iter
              (fun ((op, _) as item) ->
                if !found = None && eligible i op then found := Some item
                else Queue.add item rest)
              backlog;
            Queue.clear backlog;
            Queue.transfer rest backlog;
            !found
          end
        in
        match from_backlog, mode with
        | Some item, _ -> send i item
        | None, Closed when not (stop_issuing ()) ->
          let rec pick () =
            let op = draw () in
            if eligible i op then send i (op, now ())
            else begin
              Queue.add (op, now ()) backlog;
              pick ()
            end
          in
          pick ()
        | None, _ -> ()
      end
    done
  in
  let complete i (f : inflight) =
    let t = now () in
    inflight.(i) <- None;
    free_since.(i) <- t;
    tally.res.attempted <- tally.res.attempted + 1;
    tally.services <- (1000.0 *. (t -. f.sent_at)) :: tally.services;
    (match mode with
    | Open _ ->
      tally.latencies <- (1000.0 *. (t -. f.due)) :: tally.latencies;
      tally.open_ops <- tally.open_ops + 1
    | Closed -> incr closed_done);
    if traced then
      Obs.Trace.emit_span ~cat:"bench"
        ~name:(match f.op with
               | Read qi -> "bench.op." ^ st.inputs.queries.(qi).shape
               | Ingest _ -> "bench.op.ingest")
        ~t0:f.sent_at ~dur:(t -. f.sent_at)
        ~args:[ ("conn", Obs.Trace.Int i);
                ("wait_ms", Obs.Trace.Float (1000.0 *. (f.sent_at -. f.due))) ]
        ()
  in
  let on_readable i =
    let c = conns.(i) in
    match inflight.(i) with
    | None -> failwith "serve: response on an idle connection"
    | Some f -> (
      match Wire.read_response ~version:c.version c.fd, f.op with
      | Batch facts, Read _ -> f.acc <- List.rev_append facts f.acc
      | Done { facts; _ }, Read qi ->
        let got = List.rev f.acc in
        complete i f;
        if List.length got <> facts then
          mismatch tally.res "Done announced %d facts, %d streamed" facts
            (List.length got)
        else
          check_read tally st.inputs.queries.(qi) ~qi ~lo:f.acked_at_send
            ~hi:st.drawn got
      | Ingested { added }, Ingest k ->
        complete i f;
        st.acked <- st.acked + 1;
        st.current <- Instance.union st.current (Instance.of_facts (ingest_batch k));
        if added <> ingest_size then
          mismatch tally.res "ingest %d reported %d new facts, sent %d" k added
            ingest_size
      | Error { message; _ }, _ ->
        complete i f;
        mismatch tally.res "error reply: %s" message
      | _ -> failwith "serve: unexpected response kind")
  in
  (* The generator sleeps in select until the next due time or an
     answer, whichever comes first: it shares its CPU with the server
     (see run.py), so it must leave the CPU whenever it has nothing to
     do. *)
  let rec loop () =
    let t = now () in
    (* Admit the arrivals now due. *)
    (match mode with
    | Open offs ->
      while !next_arrival < Array.length offs
            && t_start +. offs.(!next_arrival) <= t do
        Queue.add (draw (), t_start +. offs.(!next_arrival)) backlog;
        incr next_arrival
      done
    | Closed -> ());
    dispatch ();
    let busy = List.filter (fun i -> inflight.(i) <> None) [ 0; 1 ] in
    if busy = [] && stop_issuing () && Queue.is_empty backlog then ()
    else begin
      let fds = List.map (fun i -> conns.(i).fd) busy in
      let timeout =
        match mode with
        | Open offs when !next_arrival < Array.length offs ->
          Float.max 0.0 (t_start +. offs.(!next_arrival) -. now ())
        | _ -> 1.0
      in
      let ready =
        match Unix.select fds [] [] timeout with
        | r, _, _ -> r
        | exception Unix.Unix_error (EINTR, _, _) -> []
      in
      List.iter (fun i -> if List.mem conns.(i).fd ready then on_readable i) busy;
      loop ()
    end
  in
  loop ();
  (match mode with
  | Closed ->
    tally.closed_ops <- tally.closed_ops + !closed_done;
    tally.closed_time <- tally.closed_time +. (now () -. t_start)
  | Open _ -> ())

(* Seeded Poisson arrival offsets at [rate] over [duration] seconds. *)
let poisson ~rng ~rate duration =
  let rec go t acc =
    let t = t -. (log (1.0 -. Random.State.float rng 1.0) /. rate) in
    if t >= duration then Array.of_list (List.rev acc) else go t (t :: acc)
  in
  go 0.0 []

(* [cfg.setups] rounds of (closed, open) slices over [seconds], with
   [between ()] before each round but the first. *)
let run_phases ~conns ~st ~tally ~traced ~seed ?(between = ignore) seconds =
  let rng = Random.State.make [| seed; 17 |] in
  let cursor = ref 0 in
  let rounds = st.cfg.setups in
  let slice = seconds /. float_of_int rounds in
  for r = 1 to rounds do
    if r > 1 then between ();
    run_slice ~conns ~st ~tally ~traced ~cursor Closed (0.4 *. slice);
    run_slice ~conns ~st ~tally ~traced ~cursor
      (Open (poisson ~rng ~rate:st.cfg.rate (0.6 *. slice)))
      (0.6 *. slice)
  done

(* ------------------------------------------------------------------ *)
(* Setup, probes, final check                                          *)

(* Spawn the server and answer one of each query of the mix (instance
   load, first handle build, plan compiles); the time until the last
   warm-up answer is one setup sample. *)
let setup ~lamp ~dir ~facts_file ~telemetry ~tag inputs res =
  let t0 = now () in
  let srv = spawn ~lamp ~dir ~facts_file ~telemetry ~tag in
  Array.iter
    (fun q ->
      res.attempted <- res.attempted + 1;
      let got, _ = execute srv q.text in
      if not (List.equal Fact.equal (Instance.facts got) q.expected) then
        mismatch res "warm-up %S differs from the oracle" q.text)
    inputs.queries;
  (srv, now () -. t0)

(* HyperCube p = 8 on the served triangle, through the server's MPC
   mode: its Stats.t must equal the library call's, and its loads are
   the workload's exact load figures. *)
let hypercube_probe srv inputs res =
  res.attempted <- res.attempted + 1;
  let q = inputs.queries.(0) in
  let got, stats = execute srv ~mode:(Hypercube { p = servers }) q.text in
  let want, want_stats, _ = Mpc.Hypercube.run ~p:servers q.ast inputs.base in
  if not (Instance.equal got want) then
    mismatch res "hypercube probe: answer differs from the library call";
  match stats with
  | Some s when s = want_stats -> s
  | _ ->
    mismatch res "hypercube probe: Stats.t differs from the library call";
    want_stats

(* Every relation scanned back must equal the expected instance. *)
let final_check srv st res =
  List.iter
    (fun rel ->
      res.attempted <- res.attempted + 1;
      let got, _ = execute srv (scan rel) in
      let want = Cq.Eval.eval (Cq.Parser.query (scan rel)) st.current in
      if not (Instance.equal got want) then
        mismatch res "final scan of %s: %d facts, expected %d" rel
          (Instance.cardinal got) (Instance.cardinal want))
    [ "R"; "S"; "T" ]

(* ------------------------------------------------------------------ *)
(* Scrapes (traced run)                                                *)

type scrape = {
  om : (string * (string * string) list * float) list;
  stats : Wire.server_stats;
}

(* A session records a request's time just after sending its last
   frame, so the scrape first lets the load sessions record their last
   requests. *)
let scrape srv =
  Unix.sleepf 0.02;
  let om = Obs.Export.parse_openmetrics (Client.metrics srv.control) in
  { om; stats = Client.stats srv.control }

let om_value s name =
  List.fold_left
    (fun acc (n, labels, v) -> if n = name && labels = [] then acc +. v else acc)
    0.0 s.om

let counter_delta a b name =
  let n = Obs.Export.om_name name ^ "_total" in
  om_value b n -. om_value a n

(* One scrape's histogram as (bound, count of that bucket alone). lamp
   exports the cumulative count at the bound of each non-empty
   power-of-two bucket only, so a bucket's own count is the step from
   the previous exported bound. *)
let histogram_buckets s base =
  List.filter_map
    (fun (n, labels, v) ->
      match List.assoc_opt "le" labels with
      | Some le when n = base ^ "_bucket" && le <> "+Inf" ->
        Some (int_of_string le, int_of_float v)
      | _ -> None)
    s.om
  |> List.sort compare
  |> List.fold_left_map (fun prev (le, cum) -> (cum, (le, cum - prev))) 0
  |> snd

(* The observations between two scrapes, bucket by bucket (the bounds
   are fixed), as a snapshot Obs.Trace.percentile can read. The buckets
   must add up to the count. *)
let histogram_delta res a b name =
  let base = Obs.Export.om_name name in
  let before = histogram_buckets a base in
  let buckets =
    List.filter_map
      (fun (le, n) ->
        let d = n - Option.value ~default:0 (List.assoc_opt le before) in
        if d <> 0 then Some (le, d) else None)
      (histogram_buckets b base)
  in
  let delta suffix = int_of_float (om_value b (base ^ suffix) -. om_value a (base ^ suffix)) in
  let count = delta "_count" and sum = delta "_sum" in
  let in_buckets = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  if in_buckets <> count || List.exists (fun (_, n) -> n < 0) buckets then
    mismatch res "histogram %s: buckets between scrapes add up to %d, count is %d"
      name in_buckets count;
  let max_value = List.fold_left (fun m (le, _) -> max m le) 0 buckets in
  { Obs.Trace.count; sum; max_value; buckets }

(* ------------------------------------------------------------------ *)
(* Replayed layer calls (traced run)                                   *)

(* What the server does for a Local execute: fold the compiled plan,
   then build the answer instance from the head-tuple set. *)
let server_eval plan db =
  let tuples =
    Cq.Plan.fold plan db (fun regs acc -> Cq.Plan.head_tuple plan regs :: acc) []
  in
  match tuples with
  | [] -> Instance.empty
  | _ ->
    Instance.of_tuple_set (Cq.Plan.head_rel plan)
      (Relational.Tuple.Set.of_list (List.rev_map Relational.Intern.untuple tuples))

let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: tl ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 tl
      else go acc (x :: cur) (k + 1) tl
  in
  go [] [] 0 l

(* The frames one op puts on the wire, request first. *)
let op_messages st c op =
  match op with
  | Read qi ->
    let q = st.inputs.queries.(qi) in
    let batches =
      List.map (fun b -> Wire.Batch b)
        (chunks Serve.Server.default_config.batch q.expected)
    in
    ( execute_req c q.text,
      batches @ [ Wire.Done { facts = List.length q.expected; stats = None } ] )
  | Ingest k ->
    ( envelope c (Ingest { instance = instance_name; facts = ingest_batch k }),
      [ Wire.Ingested { added = ingest_size } ] )

let replay ~st ~conns res =
  let inst = st.current in
  let cycle =
    Array.to_list
      (Array.mapi (fun i op -> match op with Ingest _ -> Ingest i | r -> r)
         st.inputs.cycle)
  in
  let nops = float_of_int (List.length cycle) in
  let c = { conns.(0) with next_span = 0; next_key = 1 } in
  let msgs = List.map (op_messages st c) cycle in
  let codec () =
    List.iter
      (fun (req, resps) ->
        ignore (Wire.request_of_string (Wire.request_to_string req));
        List.iter
          (fun r ->
            ignore (Wire.response_of_string ~version:c.version
                      (Wire.response_to_string ~version:c.version r)))
          resps)
      msgs
  in
  let bytes =
    List.fold_left
      (fun acc (req, resps) ->
        acc + 16 + String.length (Wire.request_to_string req)
        + List.fold_left
            (fun a r -> a + 16 + String.length (Wire.response_to_string ~version:c.version r))
            0 resps)
      0 msgs
  in
  metric res "wire.bytes_per_op" "B" (float_of_int bytes /. nops);
  metric res "wire.codec_us" "us"
    (1e6 *. span "bench.replay.wire" (fun () -> timed_median codec) /. nops);
  let tri = st.inputs.queries.(0).ast in
  metric res "rpool.build_ms" "ms"
    (1000.0
    *. span "bench.replay.rpool_build" (fun () ->
           timed_median (fun () ->
               let db = Cq.Plan.Db.of_instance inst in
               let plan = Cq.Plan.make ~counts:(Cq.Plan.Db.count db) tri in
               Cq.Plan.fold plan db (fun _ n -> n + 1) 0)));
  let db = Cq.Plan.Db.of_instance inst in
  let plans =
    Array.map (fun q -> Cq.Plan.make ~counts:(Cq.Plan.Db.count db) q.ast)
      st.inputs.queries
  in
  List.iter
    (fun (shape, qi) ->
      metric res ("cq.eval_us." ^ shape) "us"
        (1e6
        *. span ("bench.replay.cq_" ^ shape) (fun () ->
               timed_median (fun () ->
                   Cq.Plan.fold plans.(qi) db
                     (fun regs acc -> Cq.Plan.head_tuple plans.(qi) regs :: acc)
                     []))))
    [ ("triangle", 0); ("scan", 1); ("lookup", 2) ];
  metric res "ingest.apply_us" "us"
    (1e6
    *. span "bench.replay.ingest" (fun () ->
           timed_median (fun () ->
               Instance.union inst (Instance.of_facts (ingest_batch 0)))));
  (* Allocation of one mix cycle along the replayed path: evaluation
     as the server runs it (or the ingest union) plus the codec. *)
  let g0 = Gc.quick_stat () in
  span "bench.replay.cycle" (fun () ->
      List.iter
        (function
          | Read qi -> ignore (Sys.opaque_identity (server_eval plans.(qi) db))
          | Ingest k ->
            ignore (Sys.opaque_identity
                      (Instance.union inst (Instance.of_facts (ingest_batch k)))))
        cycle;
      codec ());
  let g1 = Gc.quick_stat () in
  metric res "alloc.minor_words_per_op" "words"
    ((g1.minor_words -. g0.minor_words) /. nops)

(* ------------------------------------------------------------------ *)
(* Workload entry point                                                *)

(* The server under load: one setup sample, then its two load
   connections. *)
let start_loaded ~lamp ~dir ~facts_file ~telemetry ~tag inputs res =
  let srv, t = setup ~lamp ~dir ~facts_file ~telemetry ~tag inputs res in
  let conns = Array.init 2 (fun i -> connect srv ~client:(Printf.sprintf "%s-%d" tag i)) in
  (srv, conns, t)

let stop_loaded srv conns =
  Array.iter (fun c -> Unix.close c.fd) conns;
  stop srv

let report_latency res ~prefix tally =
  let lat = tally.latencies in
  diag res (prefix ^ "open_loop.samples") (string_of_int (List.length lat));
  diag res (prefix ^ "closed_loop.ops") (string_of_int tally.closed_ops);
  diag res (prefix ^ "gen.late_ms.p99") (Printf.sprintf "%.3f" (percentile 0.99 tally.late));
  diag res (prefix ^ "gen.late_ms.max")
    (Printf.sprintf "%.3f" (List.fold_left Float.max 0.0 tally.late))

let run ~lamp ~dir ~cfg ~seed ~seconds ~trace ~trace_file res =
  let inputs = make_inputs ~seed cfg in
  let facts_file = Filename.concat dir "facts.txt" in
  let oc = open_out_bin facts_file in
  Instance.iter (fun f -> output_string oc (Fact.to_string f ^ ".\n")) inputs.base;
  close_out oc;
  diag res "instance.base_facts" (string_of_int (Instance.cardinal inputs.base));
  let st = new_state inputs cfg in
  let phase_s = if trace then seconds /. 2.0 else seconds in
  let srv, conns, t_load =
    start_loaded ~lamp ~dir ~facts_file ~telemetry:false ~tag:"load" inputs res
  in
  let steal0 = cpu_jiffies () in
  if not trace then begin
    (* Between rounds, one more setup sample from a server of its own,
       killed once timed. *)
    let setups = ref [ t_load ] in
    let between () =
      let tag = Printf.sprintf "s%d" (List.length !setups) in
      let s, t = setup ~lamp ~dir ~facts_file ~telemetry:false ~tag inputs res in
      stop ~signal:Sys.sigkill s;
      setups := t :: !setups
    in
    let stats = hypercube_probe srv inputs res in
    let tally = new_tally res in
    run_phases ~conns ~st ~tally ~traced:false ~seed ~between phase_s;
    final_check srv st res;
    metric res "setup_s" "s" (median !setups);
    metric res "latency_ms.p50" "ms" (median tally.latencies);
    metric res "latency_ms.tail" "ms" (percentile 0.99 tally.latencies);
    metric res "ops_per_s" "1/s" (float_of_int tally.closed_ops /. tally.closed_time);
    metric res "max_load" "facts" (float_of_int (Mpc.Stats.max_load stats));
    metric res "total_load" "facts" (float_of_int (Mpc.Stats.total_communication stats));
    metric res "peak_rss_mb" "MiB" (peak_rss_mb (string_of_int srv.pid));
    diag res "setup.samples" (string_of_int (List.length !setups));
    report_latency res ~prefix:"" tally;
    diag res "instance.final_facts" (string_of_int (Instance.cardinal st.current));
    diag res "ingests" (string_of_int st.acked);
    stop_loaded srv conns
  end
  else begin
    (* Untraced half, then a --telemetry server for the traced half. *)
    let plain = new_tally res in
    run_phases ~conns ~st ~tally:plain ~traced:false ~seed phase_s;
    final_check srv st res;
    stop_loaded srv conns;
    report_latency res ~prefix:"untraced." plain;
    let srv, conns, _ =
      start_loaded ~lamp ~dir ~facts_file ~telemetry:true ~tag:"traced" inputs res
    in
    let st = new_state inputs cfg in
    let tally = new_tally res in
    Obs.Trace.reset ();
    Obs.Trace.set_enabled true;
    let a = scrape srv in
    span "bench.phases" (fun () ->
        run_phases ~conns ~st ~tally ~traced:true ~seed phase_s);
    let b = scrape srv in
    let ops = float_of_int (tally.closed_ops + tally.open_ops) in
    let req = histogram_delta res a b "serve.request_us" in
    let qw = histogram_delta res a b "serve.queue_wait_us" in
    let per n = if n > 0 then float_of_int n else nan in
    let busy_us = float_of_int req.sum /. per req.count in
    metric res "server.busy_us" "us" busy_us;
    metric res "server.queue_wait_us.mean" "us" (float_of_int qw.sum /. per qw.count);
    metric res "server.queue_wait_us.p99" "us" (Obs.Trace.percentile qw 0.99);
    metric res "transport_us" "us" ((1000.0 *. mean tally.services) -. busy_us);
    let d f = float_of_int (f b.stats - f a.stats) in
    let hits = d (fun s -> s.Wire.plan_cache_hits) in
    let misses = d (fun s -> s.Wire.plan_cache_misses) in
    metric res "cache.hit_ratio" "ratio" (hits /. Float.max 1.0 (hits +. misses));
    metric res "cache.misses" "count" misses;
    let builds = counter_delta a b "cq.index_builds" in
    metric res "rpool.rebuilds" "count" builds;
    metric res "rpool.rebuilds_per_ingest" "count"
      (if st.acked = 0 then 0.0 else builds /. float_of_int st.acked);
    metric res "cq.probes_per_op" "count" (counter_delta a b "cq.probes" /. ops);
    metric res "cq.scans_per_op" "count" (counter_delta a b "cq.scans" /. ops);
    metric res "server.rejected" "count" (d (fun s -> s.Wire.rejected));
    metric res "server.throttled" "count" (d (fun s -> s.Wire.throttled));
    metric res "server.shed" "count" (d (fun s -> s.Wire.shed));
    metric res "server.deduped" "count" (d (fun s -> s.Wire.deduped));
    let p50 t = median t.latencies and rps t = float_of_int t.closed_ops /. t.closed_time in
    metric res "obs.overhead_pct.p50" "%" (100.0 *. ((p50 tally /. p50 plain) -. 1.0));
    metric res "obs.overhead_pct.throughput" "%" (100.0 *. (1.0 -. (rps tally /. rps plain)));
    replay ~st ~conns res;
    final_check srv st res;
    report_latency res ~prefix:"traced." tally;
    diag res "traced.latency_ms.p50" (Printf.sprintf "%.4f" (p50 tally));
    diag res "untraced.latency_ms.p50" (Printf.sprintf "%.4f" (p50 plain));
    diag res "traced.ops_per_s" (Printf.sprintf "%.2f" (rps tally));
    diag res "untraced.ops_per_s" (Printf.sprintf "%.2f" (rps plain));
    diag res "instance.final_facts" (string_of_int (Instance.cardinal st.current));
    Obs.Trace.set_enabled false;
    Obs.Export.write_chrome trace_file;
    diag res "trace_file" trace_file;
    stop_loaded srv conns
  end;
  diag res "host.steal_pct" (Printf.sprintf "%.2f" (steal_pct steal0 (cpu_jiffies ())))
