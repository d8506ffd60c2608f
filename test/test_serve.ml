(* lamp.serve: wire codecs, quotas, plan cache, dedup window, and the
   headline property — a loopback server answers every query with
   results (and MPC statistics) bit-identical to the direct library
   call, on both execution backends. *)

open Lamp_relational
module Codec = Lamp_jobs.Codec
module Executor = Lamp_runtime.Executor
module Pool = Lamp_runtime.Pool
module Eval = Lamp_cq.Eval
module Parser = Lamp_cq.Parser
module Stats = Lamp_mpc.Stats
module Wire = Lamp_serve.Wire
module Quota = Lamp_serve.Quota
module Cache = Lamp_serve.Cache
module Server = Lamp_serve.Server
module Client = Lamp_serve.Client
module Resilient = Lamp_serve.Resilient

let instance = Alcotest.testable Instance.pp Instance.equal
let stats_t = Alcotest.testable Stats.pp (fun (a : Stats.t) b -> a = b)

(* ------------------------------------------------------------------ *)
(* Wire codecs                                                         *)

let sample_stats : Stats.t =
  {
    p = 4;
    initial_max = 7;
    rounds = [ { max_received = 3; total_received = 9 } ];
    recoveries =
      [
        {
          round = 1;
          crashed = 1;
          replayed = 5;
          retransmitted = 2;
          duplicates = 1;
          retries = 0;
          speculated = 1;
        };
      ];
  }

let sample_facts =
  [
    Fact.of_list "R" [ Value.int 1; Value.str "a" ];
    Fact.of_list "S" [];
    Fact.of_list "T" [ Value.str "x\000y" ];
  ]

let sample_requests : Wire.request list =
  [
    Hello { client = "c1"; version = Wire.protocol_version };
    Prepare { instance = "main"; query = "H(x) <- R(x,y)" };
    Execute { instance = "main"; plan = Id 42; mode = Local };
    Execute
      { instance = "m"; plan = Adhoc "H() <- R(x,x)"; mode = Hypercube { p = 8 } };
    Execute { instance = "m"; plan = Id 1; mode = Repartition { p = 3 } };
    Execute { instance = "m"; plan = Id 1; mode = Grid { p = 9 } };
    Ingest { instance = "main"; facts = sample_facts };
    Ingest { instance = "empty"; facts = [] };
    Stats;
    Health;
    Metrics;
    Trace_dump { limit = 128 };
    Traced
      {
        trace = 0x1234;
        span = 7;
        req = Execute { instance = "main"; plan = Id 42; mode = Local };
      };
    Traced { trace = 0; span = 0; req = Health };
    Keyed { key = 17; req = Ingest { instance = "main"; facts = sample_facts } };
    Keyed
      { key = 0; req = Prepare { instance = "m"; query = "H(x) <- R(x,y)" } };
    Traced
      {
        trace = 9;
        span = 1;
        req =
          Keyed
            {
              key = 3;
              req = Execute { instance = "main"; plan = Id 1; mode = Local };
            };
      };
  ]

let sample_server_stats : Wire.server_stats =
  {
    sessions = 3;
    active_requests = 1;
    executor_in_flight = 0;
    pool_workers = 2;
    plan_cache_size = 4;
    plan_cache_hits = 99;
    plan_cache_misses = 1;
    requests_served = 100;
    rejected = 2;
    throttled = 1;
    uptime_s = 12.5;
    deduped = 4;
    shed = 6;
    reaped = 1;
  }

let sample_responses : Wire.response list =
  [
    Hello_ok { server = "lamp"; version = 1 };
    Prepared { id = 7; cached = true; atoms = 3 };
    Batch sample_facts;
    Batch [];
    Done { facts = 12; stats = None };
    Done { facts = 0; stats = Some sample_stats };
    Ingested { added = 5 };
    Stats_reply sample_server_stats;
    Healthy;
    Error { code = Bad_request; message = "nope" };
    Error { code = Rejected; message = "" };
    Error { code = Throttled; message = "slow down" };
    Error { code = Failed; message = "engine exploded" };
    Error { code = Overloaded { retry_after_s = 0.25 }; message = "busy" };
    Error { code = Corrupt_frame; message = "checksum mismatch" };
    Metrics_reply "# TYPE lamp_serve_requests counter\n# EOF\n";
    Trace_reply
      [
        {
          sp_name = "serve.request";
          sp_cat = "serve";
          sp_tid = 0;
          sp_t = 0.25;
          sp_dur = 0.125;
        };
      ];
    Trace_reply [];
  ]

let test_wire_roundtrip () =
  List.iter
    (fun req ->
      Alcotest.(check bool)
        "request round-trips" true
        (Wire.request_of_string (Wire.request_to_string req) = req))
    sample_requests;
  List.iter
    (fun resp ->
      Alcotest.(check bool)
        "response round-trips" true
        (Wire.response_of_string (Wire.response_to_string resp) = resp))
    sample_responses

let test_wire_hostile () =
  (* Every strict prefix of every encoding must raise Corrupt; so must
     a bad leading tag. Decoders never escape with another exception. *)
  let check_prefixes enc decode =
    for len = 0 to String.length enc - 1 do
      match decode (String.sub enc 0 len) with
      | _ -> Alcotest.failf "prefix of length %d decoded" len
      | exception Codec.Corrupt _ -> ()
      | exception e ->
        Alcotest.failf "prefix of length %d escaped as %s" len
          (Printexc.to_string e)
    done
  in
  List.iter
    (fun req ->
      check_prefixes (Wire.request_to_string req) Wire.request_of_string)
    sample_requests;
  List.iter
    (fun resp ->
      check_prefixes (Wire.response_to_string resp) Wire.response_of_string)
    sample_responses;
  (try
     ignore (Wire.request_of_string "\255garbage");
     Alcotest.fail "bad tag must raise"
   with Codec.Corrupt _ -> ());
  (* Trailing bytes are schema drift, not silence. *)
  (try
     ignore
       (Wire.response_of_string (Wire.response_to_string Wire.Healthy ^ "x"));
     Alcotest.fail "trailing bytes must raise"
   with Codec.Corrupt _ -> ());
  (* The trace envelope must not nest. *)
  (try
     ignore
       (Wire.request_of_string
          (Wire.request_to_string
             (Traced
                {
                  trace = 1;
                  span = 2;
                  req = Traced { trace = 3; span = 4; req = Health };
                })));
     Alcotest.fail "nested Traced must raise"
   with Codec.Corrupt _ -> ());
  (* Neither may the idempotency envelope: the canonical nesting is
     Traced{Keyed{op}}, every other composition is rejected. *)
  let reject name req =
    try
      ignore (Wire.request_of_string (Wire.request_to_string req));
      Alcotest.failf "%s must raise" name
    with Codec.Corrupt _ -> ()
  in
  reject "nested Keyed" (Keyed { key = 1; req = Keyed { key = 2; req = Stats } });
  reject "Traced inside Keyed"
    (Keyed { key = 1; req = Traced { trace = 1; span = 0; req = Stats } });
  reject "Hello inside Keyed"
    (Keyed { key = 1; req = Hello { client = "x"; version = 3 } })

(* The encodings are pinned: a digest of every sample message but
   [Stats_reply], whose counters no request or answer depends on. A
   codec change that alters any request, result, load-statistics or
   error frame fails here. *)
let test_wire_golden () =
  let digest encs =
    Wire.checksum
      (String.concat ""
         (List.map (fun s -> string_of_int (String.length s) ^ ":" ^ s) encs))
  in
  Alcotest.(check int)
    "request bytes" 4203550165754066022
    (digest (List.map Wire.request_to_string sample_requests));
  Alcotest.(check int)
    "response bytes" 672323341457227177
    (digest
       (List.filter_map
          (function
            | Wire.Stats_reply _ -> None
            | r -> Some (Wire.response_to_string r))
          sample_responses));
  (* There is one layout: a caller naming any other version is a bug. *)
  List.iter
    (fun version ->
      match Wire.response_to_string ~version Healthy with
      | _ -> Alcotest.failf "version %d has no layout" version
      | exception Invalid_argument _ -> ())
    [ 1; 2; 4 ]

(* [Wire.checksum] folds four bytes per step; the reference here is the
   byte-at-a-time fold h <- h*16777619 + b it must equal, on every tail
   length and on a frame-sized string. *)
let test_wire_checksum () =
  let reference s =
    let h = ref 0x100001b3 in
    String.iter (fun c -> h := (!h * 16777619) + Char.code c) s;
    !h land max_int
  in
  let big = String.init 70_000 (fun i -> Char.chr ((i * 131 + 7) land 255)) in
  for n = 0 to 67 do
    let s = String.sub big (n * 17) n in
    Alcotest.(check int) (Printf.sprintf "length %d" n) (reference s)
      (Wire.checksum s)
  done;
  Alcotest.(check int) "70 KB" (reference big) (Wire.checksum big)

(* ------------------------------------------------------------------ *)
(* Checksummed framing                                                 *)

let with_socketpair f =
  let a, b = Unix.socketpair ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_frame_roundtrip () =
  with_socketpair (fun a b ->
      let payload = String.init 3000 (fun i -> Char.chr (i mod 256)) in
      Wire.write_frame a payload;
      Alcotest.(check string) "payload round-trips" payload (Wire.read_frame b);
      Wire.write_frame a "";
      Alcotest.(check string) "empty frame round-trips" "" (Wire.read_frame b))

let test_frame_checksum () =
  (* Flip one byte of the payload in flight: the checksum catches it
     and the reader raises Corrupt instead of decoding garbage. *)
  with_socketpair (fun a b ->
      let payload = "hello, hostile network" in
      Wire.write_frame a payload;
      (* Re-read what was sent, corrupt the last byte, re-send. *)
      let frame = Bytes.create (16 + String.length payload) in
      let n = Unix.read b frame 0 (Bytes.length frame) in
      Alcotest.(check int) "whole frame read" (Bytes.length frame) n;
      let j = Bytes.length frame - 1 in
      Bytes.set frame j (Char.chr (Char.code (Bytes.get frame j) lxor 0x20));
      ignore (Unix.write a frame 0 (Bytes.length frame));
      match Wire.read_frame b with
      | _ -> Alcotest.fail "corrupted frame must not decode"
      | exception Codec.Corrupt _ -> ())

let test_frame_too_large () =
  with_socketpair (fun a b ->
      Wire.write_frame a (String.make 100 'x');
      (* The length check fires before any payload allocation. *)
      match Wire.read_frame ~max_len:64 b with
      | _ -> Alcotest.fail "oversized frame must be refused"
      | exception Wire.Too_large { len; limit } ->
        Alcotest.(check int) "reported length" 100 len;
        Alcotest.(check int) "reported limit" 64 limit)

let test_frame_deadline () =
  with_socketpair (fun _a b ->
      let t0 = Unix.gettimeofday () in
      match Wire.read_frame ~deadline:(t0 +. 0.05) b with
      | _ -> Alcotest.fail "nothing was sent"
      | exception Wire.Timed_out ->
        Alcotest.(check bool) "deadline honoured promptly" true
          (Unix.gettimeofday () -. t0 < 2.0))

let test_frame_closed () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Wire.read_frame b with
      | _ -> Alcotest.fail "peer is gone"
      | exception Wire.Closed -> ())

(* ------------------------------------------------------------------ *)
(* Quota                                                               *)

let test_quota_bucket () =
  let now = ref 0.0 in
  let q = Quota.create ~clock:(fun () -> !now) ~rate:1.0 ~burst:2.0 () in
  Alcotest.(check bool) "burst 1" true (Quota.try_take q);
  Alcotest.(check bool) "burst 2" true (Quota.try_take q);
  Alcotest.(check bool) "bucket empty" false (Quota.try_take q);
  now := 0.5;
  Alcotest.(check bool) "half a token is not one" false (Quota.try_take q);
  now := 1.5;
  Alcotest.(check bool) "refilled at rate" true (Quota.try_take q);
  now := 100.0;
  Alcotest.(check (float 0.001)) "refill caps at burst" 2.0 (Quota.tokens q);
  now := 99.0;
  Alcotest.(check bool) "clock going backwards never debits" true
    (Quota.tokens q >= 2.0)

let test_quota_clock_jumps () =
  let now = ref 0.0 in
  let q = Quota.create ~clock:(fun () -> !now) ~rate:1.0 ~burst:4.0 () in
  Alcotest.(check bool) "take" true (Quota.try_take q);
  Alcotest.(check bool) "take" true (Quota.try_take q);
  (* A huge backwards step (ntp slew, VM restore) grants nothing and
     freezes nothing: refills resume from the new mark immediately. *)
  now := -1.0e6;
  Alcotest.(check (float 0.001)) "backwards jump refills nothing" 2.0
    (Quota.tokens q);
  now := -1.0e6 +. 1.0;
  Alcotest.(check (float 0.001)) "refill resumes after resync" 3.0
    (Quota.tokens q);
  (* A huge forward jump clamps at burst — no free burst beyond it,
     no accumulation into a later debit. *)
  now := 1.0e15;
  Alcotest.(check (float 0.001)) "forward jump clamps at burst" 4.0
    (Quota.tokens q);
  for _ = 1 to 4 do
    Alcotest.(check bool) "burst spends" true (Quota.try_take q)
  done;
  Alcotest.(check bool) "nothing beyond burst" false (Quota.try_take q);
  (* Even an infinite clock cannot overflow the bucket, and a nan
     clock neither poisons the mark nor grants tokens. *)
  now := infinity;
  Alcotest.(check (float 0.001)) "infinite clock clamps" 4.0 (Quota.tokens q);
  now := nan;
  let t = Quota.tokens q in
  Alcotest.(check bool) "nan clock yields a finite count" true
    (Float.is_finite t && t <= 4.0)

(* ------------------------------------------------------------------ *)
(* Dedup window                                                        *)

module Dedup = Lamp_serve.Dedup

(* The window keeps opaque strings; the server records its encoded frames. *)
let payload = Wire.response_to_string

let test_dedup_replay_and_abort () =
  let d = Dedup.create ~capacity:4 in
  (* First acquire claims the execution; commit records it; the retry
     replays without running. *)
  (match Dedup.acquire d ~client:"c" ~key:1 ~digest:11 with
  | `Run tok -> Dedup.commit d tok [ payload (Ingested { added = 2 }) ]
  | `Replay _ | `Mismatch -> Alcotest.fail "fresh key must run");
  (match Dedup.acquire d ~client:"c" ~key:1 ~digest:11 with
  | `Replay ps ->
    Alcotest.(check (list string)) "replayed payload"
      [ payload (Ingested { added = 2 }) ] ps
  | `Run _ | `Mismatch -> Alcotest.fail "committed key must replay");
  Alcotest.(check int) "replay counted" 1 (Dedup.hits d);
  (* Same key, different client: a distinct entry. *)
  (match Dedup.acquire d ~client:"other" ~key:1 ~digest:11 with
  | `Run tok -> Dedup.abort d tok
  | `Replay _ | `Mismatch ->
    Alcotest.fail "client names partition the window");
  (* An aborted execution leaves no record: the retry re-executes. *)
  (match Dedup.acquire d ~client:"other" ~key:1 ~digest:11 with
  | `Run tok -> Dedup.commit d tok [ payload Healthy ]
  | `Replay _ | `Mismatch -> Alcotest.fail "aborted key must re-run");
  Alcotest.(check int) "two finished entries held" 2 (Dedup.length d)

let test_dedup_digest_mismatch () =
  let d = Dedup.create ~capacity:4 in
  (match Dedup.acquire d ~client:"c" ~key:1 ~digest:100 with
  | `Run tok -> Dedup.commit d tok [ payload (Ingested { added = 5 }) ]
  | `Replay _ | `Mismatch -> Alcotest.fail "fresh key must run");
  (* The same key claimed for different request bytes — a restarted
     client reusing its counter — must never see the recorded answer. *)
  (match Dedup.acquire d ~client:"c" ~key:1 ~digest:200 with
  | `Mismatch -> ()
  | `Replay _ -> Alcotest.fail "foreign request must not replay"
  | `Run _ -> Alcotest.fail "colliding key must not claim the entry");
  (* The mismatch neither evicted nor corrupted the entry: the real
     retry still replays. *)
  (match Dedup.acquire d ~client:"c" ~key:1 ~digest:100 with
  | `Replay ps ->
    Alcotest.(check (list string)) "original record survives a mismatch"
      [ payload (Ingested { added = 5 }) ] ps
  | `Run _ | `Mismatch ->
    Alcotest.fail "original record must survive a mismatch");
  (* A pending entry rejects a different digest without blocking. *)
  match Dedup.acquire d ~client:"c" ~key:2 ~digest:100 with
  | `Run tok -> (
    (match Dedup.acquire d ~client:"c" ~key:2 ~digest:300 with
    | `Mismatch -> ()
    | `Replay _ | `Run _ -> Alcotest.fail "pending mismatch must reject");
    Dedup.abort d tok)
  | `Replay _ | `Mismatch -> Alcotest.fail "fresh key must run"

let test_dedup_eviction () =
  let d = Dedup.create ~capacity:2 in
  let finish key =
    match Dedup.acquire d ~client:"c" ~key ~digest:key with
    | `Run tok -> Dedup.commit d tok [ payload Healthy ]
    | `Replay _ | `Mismatch -> Alcotest.fail "fresh key must run"
  in
  finish 1;
  finish 2;
  finish 3;
  Alcotest.(check int) "window bounded" 2 (Dedup.length d);
  (* Key 1 was evicted (oldest finished): a retry re-executes — the
     window is a bounded at-most-once guarantee, not an infinite log. *)
  match Dedup.acquire d ~client:"c" ~key:1 ~digest:1 with
  | `Run tok -> Dedup.abort d tok
  | `Replay _ | `Mismatch -> Alcotest.fail "evicted key must run again"

(* ------------------------------------------------------------------ *)
(* Plan cache (LRU)                                                    *)

let test_cache_lru () =
  let c = Cache.create ~capacity:2 () in
  let build v () = v in
  Alcotest.(check (pair int bool)) "miss builds" (1, false)
    (Cache.find_or_add c "a" (build 1));
  Alcotest.(check (pair int bool)) "hit returns cached" (1, true)
    (Cache.find_or_add c "a" (build 99));
  ignore (Cache.find_or_add c "b" (build 2));
  (* Touch "a" so "b" is the LRU entry, then overflow. *)
  ignore (Cache.find c "a");
  ignore (Cache.find_or_add c "c" (build 3));
  Alcotest.(check bool) "LRU entry evicted" true (Cache.find c "b" = None);
  Alcotest.(check bool) "recent entry survives" true (Cache.find c "a" = Some 1);
  Alcotest.(check int) "bounded" 2 (Cache.length c);
  Alcotest.(check int) "evictions counted" 1 (Cache.evictions c);
  let dropped = Cache.remove_if c (fun k -> k = "a") in
  Alcotest.(check int) "remove_if reports drops" 1 dropped;
  Alcotest.(check bool) "invalidated" true (Cache.find c "a" = None);
  Alcotest.(check bool) "hits and misses tracked" true
    (Cache.hits c > 0 && Cache.misses c > 0)

(* ------------------------------------------------------------------ *)
(* Loopback server: equivalence with the library                       *)

(* A seeded instance rich enough for every query family: binary R/S/T
   for the join/triangle queries, E for the single-edge-relation ones,
   and loops R(x,x) so the fig-1 boolean queries are satisfiable. *)
let seed_data =
  let facts = ref [] in
  let add f = facts := f :: !facts in
  for i = 0 to 19 do
    add (Fact.of_list "R" [ Value.int i; Value.int ((i + 1) mod 20) ]);
    add (Fact.of_list "S" [ Value.int i; Value.int ((i + 3) mod 20) ]);
    add (Fact.of_list "T" [ Value.int ((i * 7) mod 20); Value.int i ]);
    add (Fact.of_list "E" [ Value.int i; Value.int ((i + 1) mod 20) ]);
    add (Fact.of_list "E" [ Value.int i; Value.int ((i * 3) mod 20) ]);
    add (Fact.of_list "T" [ Value.int i ]);
    add (Fact.of_list "S" [ Value.int i ])
  done;
  add (Fact.of_list "R" [ Value.int 5; Value.int 5 ]);
  add (Fact.of_list "R" [ Value.int 12; Value.int 12 ]);
  Instance.of_facts !facts

(* fig 1 (Example 4.11) and the e1–e5 query families, as wire text. *)
let fig1_queries =
  [
    ("fig1 q1", "H() <- S(x), R(x,x), T(x)");
    ("fig1 q2", "H() <- R(x,x), T(x)");
    ("fig1 q3", "H() <- S(x), R(x,y), T(y)");
    ("fig1 q4", "H() <- R(x,y), T(y)");
  ]

let engine_queries =
  [
    ("join", "H(x,y,z) <- R(x,y), S(y,z)");
    ("triangle", "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
    ("two-path", "H(x,z) <- E(x,y), E(y,z)");
    ( "distinct triangles",
      "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, x != z" );
    ("open triangle", "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)");
  ]

let sock_counter = ref 0

let with_server ?config backend f =
  let executor, cleanup =
    match backend with
    | `Seq -> (Executor.sequential, ignore)
    | `Pool n ->
      let p = Pool.create ~domains:n () in
      (Executor.pool p, fun () -> Pool.shutdown p)
  in
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lamp_serve_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let server = Server.create ?config ~executor () in
  Server.add_instance server ~name:"main" seed_data;
  Server.listen_unix server ~path;
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      cleanup ();
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () -> f server ~executor ~path)

let with_client path f =
  let c = Client.connect_unix ~path () in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let encode_instance i =
  let w = Codec.writer () in
  Codec.w_instance w i;
  Codec.contents w

let check_bit_identical name expected got =
  Alcotest.check instance name expected got;
  Alcotest.(check bool)
    (name ^ ": canonical encodings agree") true
    (String.equal (encode_instance expected) (encode_instance got))

let run_equivalence backend () =
  with_server backend (fun server ~executor ~path ->
      ignore server;
      with_client path (fun c ->
          ignore (Client.hello ~client:"equiv" c);
          (* Local mode against Cq.Eval, ad-hoc and prepared. *)
          List.iter
            (fun (name, qtext) ->
              let expected = Eval.eval (Parser.query qtext) seed_data in
              let got, stats =
                Client.execute c ~instance:"main" (Adhoc qtext)
              in
              check_bit_identical (name ^ " adhoc") expected got;
              Alcotest.(check bool) (name ^ ": local has no MPC stats") true
                (stats = None);
              let prepared = Client.prepare c ~instance:"main" ~query:qtext in
              Alcotest.(check bool)
                (name ^ ": adhoc warmed the plan cache") true prepared.cached;
              let got_id, _ =
                Client.execute c ~instance:"main" (Id prepared.id)
              in
              check_bit_identical (name ^ " by plan id") expected got_id)
            (fig1_queries @ engine_queries);
          (* MPC modes: result and Stats.t equal the library call. *)
          let hypercube_q = "H(x,y,z) <- R(x,y), S(y,z), T(z,x)" in
          let expected, estats, _shares =
            Lamp_mpc.Hypercube.run ~executor ~p:4
              (Parser.query hypercube_q) seed_data
          in
          let got, gstats =
            Client.execute c ~instance:"main" ~mode:(Hypercube { p = 4 })
              (Adhoc hypercube_q)
          in
          check_bit_identical "hypercube result" expected got;
          Alcotest.(check (option stats_t))
            "hypercube stats" (Some estats) gstats;
          let expected, estats =
            Lamp_mpc.Repartition_join.run ~executor ~p:3 seed_data
          in
          let got, gstats =
            Client.execute c ~instance:"main" ~mode:(Repartition { p = 3 })
              (Adhoc "H() <- R(x,y)")
          in
          check_bit_identical "repartition result" expected got;
          Alcotest.(check (option stats_t))
            "repartition stats" (Some estats) gstats;
          let expected, estats =
            Lamp_mpc.Grid_join.run ~executor ~p:4 seed_data
          in
          let got, gstats =
            Client.execute c ~instance:"main" ~mode:(Grid { p = 4 })
              (Adhoc "H() <- R(x,y)")
          in
          check_bit_identical "grid result" expected got;
          Alcotest.(check (option stats_t)) "grid stats" (Some estats) gstats))

let test_equivalence_seq = run_equivalence `Seq
let test_equivalence_pool = run_equivalence (`Pool 2)

let test_prepare_cache_and_ids () =
  with_server `Seq (fun server ~executor:_ ~path ->
      with_client path (fun c ->
          let q = "H(x,z) <- E(x,y), E(y,z)" in
          let p1 = Client.prepare c ~instance:"main" ~query:q in
          Alcotest.(check bool) "first prepare compiles" false p1.cached;
          let p2 = Client.prepare c ~instance:"main" ~query:q in
          Alcotest.(check bool) "second prepare hits" true p2.cached;
          Alcotest.(check int) "same plan id" p1.id p2.id;
          Alcotest.(check int) "two join steps" 2 p1.atoms;
          (* Another connection shares the compiled plan. *)
          with_client path (fun c2 ->
              let p3 = Client.prepare c2 ~instance:"main" ~query:q in
              Alcotest.(check bool) "cache is cross-session" true p3.cached;
              Alcotest.(check int) "same id cross-session" p1.id p3.id);
          let s = Server.stats server in
          Alcotest.(check bool) "stats expose cache traffic" true
            (s.plan_cache_hits >= 2 && s.plan_cache_misses >= 1)))

let test_ingest_invalidation () =
  with_server `Seq (fun _server ~executor:_ ~path ->
      with_client path (fun c ->
          let q = "H(x,y,z) <- R(x,y), S(y,z)" in
          let before, _ = Client.execute c ~instance:"main" (Adhoc q) in
          let fresh =
            [
              Fact.of_list "R" [ Value.int 100; Value.int 101 ];
              Fact.of_list "S" [ Value.int 101; Value.int 102 ];
            ]
          in
          let added = Client.ingest c ~instance:"main" fresh in
          Alcotest.(check int) "both facts were new" 2 added;
          Alcotest.(check int) "re-ingest adds nothing" 0
            (Client.ingest c ~instance:"main" fresh);
          let updated = Instance.union seed_data (Instance.of_facts fresh) in
          let expected = Eval.eval (Parser.query q) updated in
          let got, _ = Client.execute c ~instance:"main" (Adhoc q) in
          check_bit_identical "post-ingest result" expected got;
          Alcotest.(check bool) "ingest reached the result" true
            (Instance.cardinal got > Instance.cardinal before)))

let test_plan_ids_from_prepare () =
  with_server `Seq (fun _server ~executor:_ ~path ->
      with_client path (fun c ->
          for i = 1 to 40 do
            ignore
              (Client.execute c ~instance:"main"
                 (Adhoc (Printf.sprintf "H(y) <- R(%d,y)" i)))
          done;
          (* Ad-hoc compiles take no ids: the first Prepare gets 1 and
             no second id exists yet. *)
          let p = Client.prepare c ~instance:"main" ~query:"H(x) <- T(x)" in
          Alcotest.(check int) "first Prepare answers id 1" 1 p.id;
          (match Client.execute c ~instance:"main" (Id 2) with
          | _ -> Alcotest.fail "id 2 was never handed out"
          | exception Client.Server_error (Bad_request, _) -> ());
          (* Preparing a query an ad-hoc execute compiled names that
             cache entry: it gets the next id, and keeps it. *)
          let q = "H(y) <- R(3,y)" in
          let a = Client.prepare c ~instance:"main" ~query:q in
          Alcotest.(check bool) "ad-hoc compile is reused" true a.cached;
          Alcotest.(check int) "next id" 2 a.id;
          Alcotest.(check int) "same id again" 2
            (Client.prepare c ~instance:"main" ~query:q).id))

(* An ingest appends the facts it adds to the live engine handle: the
   column index a lookup built is extended, never rebuilt, and every
   answer still equals the library on the union. *)
let test_ingest_extends_handle () =
  let builds = Lamp_obs.Trace.counter "cq.index_builds" in
  let extends = Lamp_obs.Trace.counter "cq.index_extends" in
  let lookup = "H(y) <- R(3,y)" in
  let queries = [ lookup; "H(x,y) <- R(x,y)"; "H(x) <- U(x)" ] in
  let fresh =
    [
      Fact.of_list "R" [ Value.int 3; Value.int 40 ];
      Fact.of_list "R" [ Value.int 3; Value.int 41 ];
      Fact.of_list "R" [ Value.int 3; Value.int 4 ];
      Fact.of_list "U" [ Value.int 1 ];
    ]
  in
  let union = Instance.union seed_data (Instance.of_facts fresh) in
  let expected =
    List.map (fun q -> (q, Eval.eval (Parser.query q) union)) queries
  in
  Lamp_obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Lamp_obs.Trace.set_enabled false;
      Lamp_obs.Trace.reset ())
    (fun () ->
      with_server `Seq (fun server ~executor:_ ~path ->
          with_client path (fun c ->
              (* Builds the handle and R's column-0 index. *)
              ignore (Client.execute c ~instance:"main" (Adhoc lookup));
              let b0 = Lamp_obs.Trace.value builds in
              let e0 = Lamp_obs.Trace.value extends in
              Alcotest.(check int) "R(3,4) was already there" 3
                (Client.ingest c ~instance:"main" fresh);
              let got =
                List.map
                  (fun q -> fst (Client.execute c ~instance:"main" (Adhoc q)))
                  queries
              in
              Alcotest.(check int) "no index rebuilt" b0
                (Lamp_obs.Trace.value builds);
              Alcotest.(check bool) "index extended" true
                (Lamp_obs.Trace.value extends > e0);
              List.iter2
                (fun (q, want) got -> check_bit_identical q want got)
                expected got;
              Alcotest.(check int) "re-ingest adds nothing" 0
                (Client.ingest c ~instance:"main" fresh);
              let hits = (Server.stats server).plan_cache_hits in
              ignore (Client.execute c ~instance:"main" (Adhoc lookup));
              Alcotest.(check int) "an empty ingest keeps the plans" (hits + 1)
                (Server.stats server).plan_cache_hits)))

let test_admission_reject () =
  let config = { Server.default_config with max_inflight = 0 } in
  with_server ~config `Seq (fun _server ~executor:_ ~path ->
      with_client path (fun c ->
          (* Health and stats bypass admission; engine work does not. *)
          Alcotest.(check bool) "health is always on" true (Client.health c);
          Alcotest.(check int) "stats is always on" 0 (Client.stats c).shed;
          (* A full server answers Overloaded; Rejected is kept for the
             max_sessions refusal. *)
          match Client.execute c ~instance:"main" (Adhoc "H() <- R(x,y)") with
          | _ -> Alcotest.fail "full server must fast-reject"
          | exception Client.Server_error (Overloaded _, _) -> ()))

let test_quota_throttle () =
  let config = { Server.default_config with quota = Some (0.001, 2.0) } in
  with_server ~config `Seq (fun _server ~executor:_ ~path ->
      with_client path (fun c ->
          ignore (Client.hello ~client:"greedy" c);
          let q = "H() <- R(x,y)" in
          ignore (Client.execute c ~instance:"main" (Adhoc q));
          ignore (Client.execute c ~instance:"main" (Adhoc q));
          (match Client.execute c ~instance:"main" (Adhoc q) with
          | _ -> Alcotest.fail "burst exhausted, must throttle"
          | exception Client.Server_error (Throttled, _) -> ());
          (* Another client identity has its own bucket. *)
          with_client path (fun c2 ->
              ignore (Client.hello ~client:"modest" c2);
              ignore (Client.execute c2 ~instance:"main" (Adhoc q)))))

let test_errors_and_health () =
  with_server `Seq (fun _server ~executor:_ ~path ->
      with_client path (fun c ->
          (match Client.execute c ~instance:"nope" (Adhoc "H() <- R(x,y)") with
          | _ -> Alcotest.fail "unknown instance"
          | exception Client.Server_error (Bad_request, _) -> ());
          (match Client.execute c ~instance:"main" (Adhoc "H( <- R(x") with
          | _ -> Alcotest.fail "parse error"
          | exception Client.Server_error (Bad_request, _) -> ());
          (match Client.execute c ~instance:"main" (Id 424242) with
          | _ -> Alcotest.fail "unknown plan id"
          | exception Client.Server_error (Bad_request, _) -> ());
          (* The session survives every error above. *)
          Alcotest.(check bool) "still healthy" true (Client.health c)))

(* ------------------------------------------------------------------ *)
(* Hostile-network hardening                                           *)

let test_keyed_ingest_replays () =
  with_server `Seq (fun server ~executor:_ ~path ->
      with_client path (fun c ->
          ignore (Client.hello ~client:"keyed" c);
          let fresh =
            [
              Fact.of_list "R" [ Value.int 500; Value.int 501 ];
              Fact.of_list "S" [ Value.int 501; Value.int 502 ];
            ]
          in
          let added = Client.ingest ~key:42 c ~instance:"main" fresh in
          Alcotest.(check int) "first keyed ingest applies" 2 added;
          (* The retry path: same client, same key. The server replays
             the recorded response — [added] repeats the original count
             instead of the 0 a re-execution would report. *)
          let again = Client.ingest ~key:42 c ~instance:"main" fresh in
          Alcotest.(check int) "replay repeats the original answer" 2 again;
          let s = Server.stats server in
          Alcotest.(check int) "dedup hit surfaced in stats" 1 s.deduped;
          (* A fresh key really re-executes (and finds nothing new). *)
          Alcotest.(check int) "fresh key re-executes" 0
            (Client.ingest ~key:43 c ~instance:"main" fresh);
          (* Replays survive a reconnect: the window is keyed by the
             hello client name, not the socket. *)
          with_client path (fun c2 ->
              ignore (Client.hello ~client:"keyed" c2);
              Alcotest.(check int) "replay across connections" 2
                (Client.ingest ~key:42 c2 ~instance:"main" fresh);
              (* A key reused for a *different* request — a restarted
                 client whose counter started over — is refused, never
                 answered with the recorded response of the other op. *)
              let other =
                [ Fact.of_list "R" [ Value.int 700; Value.int 701 ] ]
              in
              (match Client.ingest ~key:42 c2 ~instance:"main" other with
              | _ -> Alcotest.fail "key reuse must be refused"
              | exception Client.Server_error (Bad_request, _) -> ());
              (* The refusal applied nothing and kept the session. *)
              Alcotest.(check int) "refused ingest did not apply" 1
                (Client.ingest ~key:44 c2 ~instance:"main" other))))

let test_dedup_byte_cap () =
  (* Recorded dedup entries are size-capped: a keyed execute whose
     result stream encodes past [dedup_max_bytes] completes but is not
     remembered, so its retry re-executes (yielding the same answer —
     execute is read-only) instead of pinning the result set in the
     window. Small ops still replay. *)
  let config = { Server.default_config with dedup_max_bytes = 64 } in
  with_server ~config `Seq (fun server ~executor:_ ~path ->
      with_client path (fun c ->
          ignore (Client.hello ~client:"capped" c);
          let q = "H(x,y) <- E(x,y)" in
          let first, _ = Client.execute ~key:1 c ~instance:"main" (Adhoc q) in
          Alcotest.(check bool) "result is past the cap" true
            (Instance.cardinal first > 0);
          let again, _ = Client.execute ~key:1 c ~instance:"main" (Adhoc q) in
          check_bit_identical "re-execution matches" first again;
          let s = Server.stats server in
          Alcotest.(check int) "oversized entry was not recorded" 0 s.deduped;
          (* A compact keyed op under the same cap still replays. *)
          let fresh = [ Fact.of_list "R" [ Value.int 800; Value.int 801 ] ] in
          Alcotest.(check int) "small ingest applies" 1
            (Client.ingest ~key:2 c ~instance:"main" fresh);
          Alcotest.(check int) "small ingest replays" 1
            (Client.ingest ~key:2 c ~instance:"main" fresh);
          Alcotest.(check int) "replay surfaced in stats" 1
            (Server.stats server).deduped))

(* Says hello as [client] on a fresh raw connection, sends [req], and
   returns every response payload up to the one closing the answer. *)
let raw_exchange path ~client req =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (ADDR_UNIX path);
      Wire.write_request fd (Hello { client; version = Wire.protocol_version });
      ignore (Wire.read_frame fd);
      Wire.write_request fd req;
      let rec collect acc =
        let payload = Wire.read_frame fd in
        match Wire.response_of_string payload with
        | Batch _ -> collect (payload :: acc)
        | _ -> List.rev (payload :: acc)
      in
      collect [])

let test_keyed_replay_bytes () =
  (* A replay writes the payloads the first execution sent, frame for
     frame: with [batch = 2] the answer spans many [Batch] frames. *)
  let config = { Server.default_config with batch = 2 } in
  with_server ~config `Seq (fun server ~executor:_ ~path ->
      let scan = Wire.Adhoc "H(x,y) <- R(x,y)" in
      let exec : Wire.request =
        Execute { instance = "main"; plan = scan; mode = Local }
      in
      let req : Wire.request = Keyed { key = 5; req = exec } in
      let first = raw_exchange path ~client:"replayer" req in
      let again = raw_exchange path ~client:"replayer" req in
      Alcotest.(check bool) "several Batch frames" true (List.length first > 3);
      Alcotest.(check (list string)) "replayed payloads" first again;
      Alcotest.(check int) "answered from the window" 1
        (Server.stats server).deduped)

(* A hand-rolled wire-speaking server: answers hello at [version], then
   drops the connection on the first ingest it ever sees and serves
   every later one — the shape of "the request may have applied, the
   answer is gone". [f] gets the socket path and a reader for the
   idempotency key of every ingest seen, oldest first. *)
let with_fake_server ~version f =
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lamp_fake_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let srv = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind srv (ADDR_UNIX path);
  Unix.listen srv 4;
  let stop = Atomic.make false in
  let seen = Mutex.create () in
  let ingest_keys = ref [] in
  let dropped_once = Atomic.make false in
  let rec strip key : Wire.request -> int option * Wire.request = function
    | Traced { req; _ } -> strip key req
    | Keyed { key; req } -> strip (Some key) req
    | r -> (key, r)
  in
  let serve_conn fd =
    let rec loop () =
      match Wire.read_request fd with
      | Hello _ ->
        Wire.write_response fd (Hello_ok { server = "fake"; version });
        loop ()
      | req -> (
        match strip None req with
        | key, Ingest _ ->
          Mutex.protect seen (fun () -> ingest_keys := key :: !ingest_keys);
          if Atomic.compare_and_set dropped_once false true then
            (* Drop mid-op: the client cannot know whether it applied. *)
            Unix.close fd
          else begin
            Wire.write_response fd (Ingested { added = 1 });
            loop ()
          end
        | _ ->
          Wire.write_response fd Healthy;
          loop ())
    in
    try loop () with
    | Wire.Closed | Unix.Unix_error _ | Lamp_jobs.Codec.Corrupt _ -> (
      try Unix.close fd with Unix.Unix_error _ -> ())
  in
  let acceptor =
    Thread.create
      (fun () ->
        let rec go () =
          if not (Atomic.get stop) then begin
            (match Unix.select [ srv ] [] [] 0.05 with
            | [], _, _ -> ()
            | _ -> (
              match Unix.accept srv with
              | fd, _ -> ignore (Thread.create serve_conn fd)
              | exception Unix.Unix_error _ -> ())
            | exception Unix.Unix_error _ -> ());
            go ()
          end
        in
        go ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      (try Unix.close srv with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      f path (fun () -> Mutex.protect seen (fun () -> List.rev !ingest_keys)))

let test_resilient_retries_dropped_ingest () =
  with_fake_server ~version:Wire.protocol_version (fun path keys ->
      let fresh = [ Fact.of_list "R" [ Value.int 1; Value.int 2 ] ] in
      let r =
        Resilient.create
          ~config:{ Resilient.default_config with max_attempts = 4 }
          ~client:"dropped" (fun () ->
            Client.connect_unix ~timeout_s:2.0 ~path ())
      in
      Fun.protect
        ~finally:(fun () -> Resilient.close r)
        (fun () ->
          (* The key makes the re-execution safe: the wrapper retries
             the dropped ingest on a fresh connection, where it
             succeeds. *)
          Alcotest.(check int) "retry completes the op" 1
            (Resilient.ingest r ~instance:"main" fresh);
          Alcotest.(check int) "one retry" 1 (Resilient.retries r);
          match keys () with
          | [ Some k1; Some k2 ] ->
            Alcotest.(check int) "the retry re-sends the same key" k1 k2
          | ks -> Alcotest.failf "%d ingests seen, want 2 keyed" (List.length ks)))

let test_hello_refuses_other_versions () =
  with_server `Seq (fun _server ~executor:_ ~path ->
      let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (ADDR_UNIX path);
          let call req =
            Wire.write_request fd req;
            Wire.read_response fd
          in
          (* Every other version is refused, and the session stays up. *)
          List.iter
            (fun version ->
              (match call (Hello { client = "other"; version }) with
              | Error { code = Bad_request; _ } -> ()
              | _ -> Alcotest.failf "hello at version %d must be refused" version);
              Alcotest.(check bool)
                (Printf.sprintf "session serves after version %d" version)
                true
                (call Health = Healthy))
            [ 0; 2; 4 ];
          match call (Hello { client = "current"; version = 3 }) with
          | Hello_ok { version; _ } ->
            Alcotest.(check int) "version 3 is accepted" 3 version
          | _ -> Alcotest.fail "hello at version 3 must succeed"));
  (* And the client refuses a server at another version. *)
  with_fake_server ~version:2 (fun path _ ->
      with_client path (fun c ->
          match Client.hello c with
          | _ -> Alcotest.fail "a server at version 2 must be refused"
          | exception Client.Protocol_error _ -> ()))

let test_overload_sheds () =
  (* With no in-flight slot, every engine op is refused at admission
     with a typed retry hint, while the control plane keeps
     answering. *)
  let config = { Server.default_config with max_inflight = 0 } in
  with_server ~config `Seq (fun _server ~executor:_ ~path ->
      with_client path (fun c ->
          ignore (Client.hello ~client:"storm" c);
          let q = "H() <- R(x,y)" in
          let fresh = [ Fact.of_list "R" [ Value.int 900; Value.int 901 ] ] in
          let refused = ref 0 in
          let overloaded name op =
            match op () with
            | () -> Alcotest.failf "%s must be refused" name
            | exception
                Client.Server_error (Overloaded { retry_after_s }, _) ->
              Alcotest.(check bool) (name ^ ": finite hint >= 0") true
                (Float.is_finite retry_after_s && retry_after_s >= 0.0);
              incr refused
          in
          for _ = 1 to 4 do
            overloaded "execute" (fun () ->
                ignore (Client.execute c ~instance:"main" (Adhoc q)))
          done;
          overloaded "prepare" (fun () ->
              ignore (Client.prepare c ~instance:"main" ~query:q));
          overloaded "ingest" (fun () ->
              ignore (Client.ingest c ~instance:"main" fresh));
          Alcotest.(check bool) "health still answers" true (Client.health c);
          let s = Client.stats c in
          Alcotest.(check int) "shed counts every refused op" !refused s.shed;
          Alcotest.(check int) "no session was rejected" 0 s.rejected))

(* A fact set whose scan answer (about 130 bytes a fact) outgrows the
   socket buffers. *)
let big_data n =
  Instance.of_facts
    (List.init n (fun i ->
         Fact.of_list "B" [ Value.int i; Value.str (String.make 120 'x') ]))

let big_scan = "H(x,y) <- B(x,y)"

(* Opens a raw connection and sends [req] without reading the answer. *)
let raw_send path (req : Wire.request) =
  let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.connect fd (ADDR_UNIX path);
  Wire.write_request fd req;
  fd

let rec read_answer fd =
  match Wire.read_response fd with
  | Batch _ -> read_answer fd
  | last -> last

(* Polls [cond] every 5 ms for up to 10 s. *)
let await what cond =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "timed out: %s" what;
    Thread.delay 0.005
  done

(* A keyed op is recorded when its response is produced, not once it
   is written: a client that sends a keyed ingest and hangs up before
   the answer, then retries on a fresh connection, gets the original
   count replayed. The ingest applied exactly once either way. *)
let test_keyed_hangup_replays () =
  with_server `Seq (fun server ~executor:_ ~path ->
      let facts = List.init 20_000 (fun i -> Fact.of_list "Q" [ Value.int i ]) in
      let keyed : Wire.request =
        Keyed { key = 7; req = Ingest { instance = "main"; facts } }
      in
      let fd = raw_send path (Hello { client = "quitter"; version = 3 }) in
      ignore (Wire.read_response fd);
      Wire.write_request fd keyed;
      Unix.close fd;
      await "the ingest ran and its session ended" (fun () ->
          let s = Server.stats server in
          s.requests_served = 1 && s.sessions = 0);
      with_client path (fun c ->
          ignore (Client.hello ~client:"quitter" c);
          Alcotest.(check int) "the retry replays the original count" 20_000
            (Client.ingest ~key:7 c ~instance:"main" facts);
          Alcotest.(check int) "answered from the window" 1
            (Server.stats server).deduped))

let proc_threads () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
    List.find_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "Threads"; n ] -> int_of_string_opt (String.trim n)
        | _ -> None)
      (String.split_on_char '\n' status)

(* One loop answers every session: 200 concurrent sessions, each with
   a Health and an Execute in flight, are all answered while the
   process runs no more threads than before they connected. *)
let test_sessions_cost_no_threads () =
  if proc_threads () = None then
    print_endline "skipped: no /proc/self/status to count threads in"
  else
    with_server `Seq (fun server ~executor:_ ~path ->
        let before = Option.get (proc_threads ()) in
        let q = "H(x,z) <- E(x,y), E(y,z)" in
        let expected = Eval.eval (Parser.query q) seed_data in
        let fds = List.init 200 (fun _ -> raw_send path Health) in
        Fun.protect
          ~finally:(fun () -> List.iter Unix.close fds)
          (fun () ->
            List.iter
              (fun fd ->
                Wire.write_request fd
                  (Execute { instance = "main"; plan = Adhoc q; mode = Local }))
              fds;
            await "every session is connected" (fun () ->
                (Server.stats server).sessions >= 200);
            let during = Option.get (proc_threads ()) in
            List.iter
              (fun fd ->
                Alcotest.(check bool) "health answered" true
                  (Wire.read_response fd = Healthy);
                let rec collect acc =
                  match Wire.read_response fd with
                  | Batch facts -> collect (List.rev_append facts acc)
                  | Done _ -> Instance.of_facts acc
                  | _ -> Alcotest.fail "unexpected reply"
                in
                check_bit_identical "execute answered" expected (collect []))
              fds;
            Alcotest.(check bool)
              (Printf.sprintf "threads %d with 200 sessions, %d before" during
                 before)
              true (during <= before)))

let test_inflight_bound () =
  (* A blocker whose answer outgrows the socket buffers and who reads
     none of it holds the one in-flight slot, so the next engine op is
     refused by construction, not by a timing race. *)
  let config = { Server.default_config with max_inflight = 1 } in
  with_server ~config `Seq (fun server ~executor:_ ~path ->
      Server.add_instance server ~name:"big" (big_data 8_000);
      let blocker =
        raw_send path
          (Execute { instance = "big"; plan = Adhoc big_scan; mode = Local })
      in
      Fun.protect
        ~finally:(fun () -> Unix.close blocker)
        (fun () ->
          await "the blocker is admitted" (fun () ->
              (Server.stats server).active_requests = 1);
          with_client path (fun c ->
              let q = "H(x,y,z) <- R(x,y), S(y,z)" in
              (match Client.execute c ~instance:"main" (Adhoc q) with
              | _ -> Alcotest.fail "the in-flight bound must refuse"
              | exception Client.Server_error (Overloaded _, _) -> ());
              Alcotest.(check int) "one op shed" 1 (Server.stats server).shed;
              (match read_answer blocker with
              | Done { facts; _ } ->
                Alcotest.(check int) "the blocker gets its whole answer"
                  8_000 facts
              | _ -> Alcotest.fail "the blocker's answer must complete");
              await "the slot is released" (fun () ->
                  (Server.stats server).active_requests = 0);
              let got, _ = Client.execute c ~instance:"main" (Adhoc q) in
              check_bit_identical "answered once the slot is free"
                (Eval.eval (Parser.query q) seed_data)
                got)))

let test_max_sessions_rejects () =
  let config = { Server.default_config with max_sessions = 2 } in
  with_server ~config `Seq (fun server ~executor:_ ~path ->
      with_client path (fun c1 ->
          with_client path (fun c2 ->
              (* A round trip each, so both sessions are counted before
                 the third connects. *)
              ignore (Client.hello ~client:"one" c1);
              ignore (Client.hello ~client:"two" c2);
              let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
              Fun.protect
                ~finally:(fun () -> Unix.close fd)
                (fun () ->
                  Unix.connect fd (ADDR_UNIX path);
                  match Wire.read_response fd with
                  | Error { code = Rejected; _ } -> ()
                  | _ -> Alcotest.fail "a third session must be rejected");
              Alcotest.(check int) "the refusal is counted" 1
                (Server.stats server).rejected;
              let q = "H(x,y) <- R(x,y)" in
              List.iter
                (fun c ->
                  let got, _ = Client.execute c ~instance:"main" (Adhoc q) in
                  check_bit_identical "admitted sessions keep working"
                    (Eval.eval (Parser.query q) seed_data)
                    got)
                [ c1; c2 ];
              Alcotest.(check int) "nothing shed" 0 (Server.stats server).shed)))

let test_server_frame_limit () =
  (* A request frame past the server's limit is refused before
     allocation, with a typed reply, then the connection is dropped —
     the framing past an oversized announcement is unknowable. *)
  let config = { Server.default_config with max_frame = 256 } in
  with_server ~config `Seq (fun _server ~executor:_ ~path ->
      with_client path (fun c ->
          let big =
            List.init 64 (fun i ->
                Fact.of_list "R" [ Value.int i; Value.str (String.make 64 'x') ])
          in
          (match Client.ingest c ~instance:"main" big with
          | _ -> Alcotest.fail "oversized frame must be refused"
          | exception Client.Server_error (Corrupt_frame, _) -> ());
          (* The server hung up after the refusal. *)
          match Client.health c with
          | _ -> Alcotest.fail "connection must be gone"
          | exception (Client.Connection_lost _ | Client.Timed_out _) -> ()))

let test_client_typed_errors () =
  (* A peer that accepts and immediately hangs up: the exchange raises
     Connection_lost (never a raw Unix_error) and the client value is
     dead afterwards. *)
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lamp_serve_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let srv = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Unix.bind srv (ADDR_UNIX path);
  Unix.listen srv 4;
  let mode = ref `Hangup in
  let stop = Atomic.make false in
  let muted = ref [] in
  (* Poll with select so the acceptor can be stopped: a blocked
     accept(2) is not woken by closing the listener from another
     thread. *)
  let acceptor =
    Thread.create
      (fun () ->
        let rec go () =
          if not (Atomic.get stop) then begin
            (match Unix.select [ srv ] [] [] 0.05 with
            | [], _, _ -> ()
            | _ -> (
              match Unix.accept srv with
              | fd, _ -> (
                match !mode with
                | `Hangup -> Unix.close fd
                | `Mute -> muted := fd :: !muted)
              | exception Unix.Unix_error _ -> ())
            | exception Unix.Unix_error _ -> ());
            go ()
          end
        in
        go ())
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join acceptor;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !muted;
      (try Unix.close srv with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      let c = Client.connect_unix ~path () in
      (match Client.health c with
      | _ -> Alcotest.fail "peer hung up"
      | exception Client.Connection_lost _ -> ());
      Alcotest.(check bool) "fatal error closes the client" true
        (Client.closed c);
      (match Client.health c with
      | _ -> Alcotest.fail "closed client must refuse"
      | exception Client.Connection_lost _ -> ());
      (* A peer that accepts and never answers: the per-request
         deadline fires as Timed_out. *)
      mode := `Mute;
      let c = Client.connect_unix ~timeout_s:0.1 ~path () in
      let t0 = Unix.gettimeofday () in
      (match Client.health c with
      | _ -> Alcotest.fail "mute peer cannot answer"
      | exception Client.Timed_out _ -> ());
      Alcotest.(check bool) "deadline honoured promptly" true
        (Unix.gettimeofday () -. t0 < 2.0);
      Alcotest.(check bool) "timeout closes the client" true (Client.closed c);
      (* Nobody listening at all: a typed connect failure. *)
      match Client.connect_unix ~path:(path ^ ".nowhere") () with
      | _ -> Alcotest.fail "nothing listens there"
      | exception Client.Connection_lost _ -> ())

let test_idle_timeout () =
  let config = { Server.default_config with idle_timeout_s = Some 0.1 } in
  with_server ~config `Seq (fun server ~executor:_ ~path ->
      with_client path (fun c ->
          ignore (Client.hello ~client:"sleepy" c);
          (* Go idle past the timeout: the server hangs up. *)
          await "the idle session is gone" (fun () ->
              (Server.stats server).sessions = 0);
          (match Client.health c with
          | _ -> Alcotest.fail "an idle session must be hung up on"
          | exception (Client.Connection_lost _ | Client.Timed_out _) -> ());
          Alcotest.(check bool) "reap surfaced in stats" true
            ((Server.stats server).reaped >= 1)))

let test_write_deadline () =
  let timeout = 0.25 in
  let config =
    { Server.default_config with write_timeout_s = Some timeout; batch = 16 }
  in
  with_server ~config `Seq (fun server ~executor:_ ~path ->
      Server.add_instance server ~name:"big" (big_data 4_000);
      (* 16 facts of 20 kB: one Batch frame larger than the socket
         buffer. *)
      Server.add_instance server ~name:"huge"
        (Instance.of_facts
           (List.init 16 (fun i ->
                Fact.of_list "B"
                  [ Value.int i; Value.str (String.make 20_000 'y') ])));
      let scan instance : Wire.request =
        Execute { instance; plan = Adhoc big_scan; mode = Local }
      in
      (* A reader that takes each frame well within the deadline but
         the whole answer (250 frames) far past it. *)
      let fd = raw_send path (scan "big") in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let rec drain frames =
            match Wire.read_response fd with
            | Batch _ ->
              Thread.delay (timeout /. 10.0);
              drain (frames + 1)
            | Done _ ->
              Alcotest.failf "a %d-frame answer outran the deadline" frames
            | _ -> Alcotest.fail "unexpected reply"
            | exception Wire.Closed -> frames
          in
          Alcotest.(check bool) "cut off mid-answer" true (drain 0 < 250));
      await "the slow reader is reaped" (fun () ->
          (Server.stats server).reaped >= 1);
      (* A reader that takes nothing while the one large frame is
         written: the write does not block past the deadline inside the
         kernel either. *)
      let reaped = (Server.stats server).reaped in
      let fd = raw_send path (scan "huge") in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          await "the stalled reader is reaped" (fun () ->
              (Server.stats server).reaped > reaped)))

module Net = Lamp_faults.Net

(* A listener that never accepts: the kernel completes each connect
   from its backlog, and nobody ever reads or answers. *)
let with_mute_listener f =
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lamp_serve_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  let srv = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close srv with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind srv (ADDR_UNIX path);
      Unix.listen srv 4;
      f path)

(* select(2) cannot watch a descriptor at or above FD_SETSIZE (1024).
   With 1,100 descriptors held open, every socket opened afterwards is
   numbered above 1023 (descriptors are allocated lowest-free): the
   listener, the session and the client. They must still serve, and a
   deadline must still fire as Client.Timed_out. *)
let test_high_descriptors () =
  let null = Unix.openfile "/dev/null" [ O_RDONLY; O_CLOEXEC ] 0 in
  let held = ref [ null ] in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) !held)
    (fun () ->
      match
        for _ = 1 to 1_100 do
          held := Unix.dup ~cloexec:true null :: !held
        done
      with
      | exception Unix.Unix_error (EMFILE, _, _) ->
        print_endline
          "skipped: the descriptor limit is below 1,100 (EMFILE), so no \
           socket can be numbered above 1023"
      | () ->
        with_server `Seq (fun _ ~executor:_ ~path ->
            with_client path (fun c ->
                let qtext = "H(x,z) <- E(x,y), E(y,z)" in
                let got, _ = Client.execute c ~instance:"main" (Adhoc qtext) in
                check_bit_identical "execute above descriptor 1023"
                  (Eval.eval (Parser.query qtext) seed_data)
                  got));
        with_mute_listener (fun path ->
            let c = Client.connect_unix ~timeout_s:0.1 ~path () in
            match Client.health c with
            | _ -> Alcotest.fail "a mute peer cannot answer"
            | exception Client.Timed_out _ -> ()))

(* An accepted TCP socket inherits its listener's SO_RCVTIMEO, with
   which the acceptors wake to look for [stop]. A session and a proxy
   relay idle past it keep serving: the inherited timeout is not a
   deadline. *)
let test_tcp_idle_past_accept_timeout () =
  let executor = Executor.sequential in
  let server = Server.create ~executor () in
  Server.add_instance server ~name:"main" seed_data;
  let port = Server.listen_tcp server ~port:0 in
  let proxy =
    Net.Proxy.start ~plan:Net.none
      ~listen:(ADDR_INET (Unix.inet_addr_loopback, 0))
      ~upstream:(ADDR_INET (Unix.inet_addr_loopback, port))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Net.Proxy.stop proxy;
      Server.stop server)
    (fun () ->
      let proxy_port =
        match Net.Proxy.addr proxy with
        | ADDR_INET (_, p) -> p
        | ADDR_UNIX _ -> assert false
      in
      List.iter
        (fun port ->
          let c = Client.connect_tcp ~port () in
          Fun.protect
            ~finally:(fun () -> Client.close c)
            (fun () ->
              Alcotest.(check bool) "healthy" true (Client.health c);
              Thread.delay 0.5;
              Alcotest.(check bool) "healthy after idling" true
                (Client.health c)))
        [ port; proxy_port ])

(* A request larger than the socket buffers, to a peer that never
   reads: the write deadline ends the blocked write(2) itself. *)
let test_ingest_write_deadline () =
  with_mute_listener (fun path ->
      let c = Client.connect_unix ~timeout_s:0.5 ~path () in
      (* 20,000 facts of about 100 bytes: a 2 MB frame. *)
      let facts =
        List.init 20_000 (fun i ->
            Fact.of_list "B" [ Value.int i; Value.str (String.make 96 'z') ])
      in
      let t0 = Unix.gettimeofday () in
      (match Client.ingest c ~instance:"main" facts with
      | _ -> Alcotest.fail "a peer that never reads cannot take 2 MB"
      | exception Client.Timed_out _ -> ());
      Alcotest.(check bool) "timed out within 2 s" true
        (Unix.gettimeofday () -. t0 < 2.0))

let test_chaos_proxy_resilient () =
  (* The headline robustness property, in miniature: a client talking
     through a hostile proxy — resets, truncations, stalls, corrupted
     bytes, refused connects — still produces answers bit-identical to
     the direct library call, with keyed ingests applied exactly once. *)
  let config =
    { Server.default_config with read_timeout_s = Some 5.0 }
  in
  with_server ~config `Seq (fun server ~executor:_ ~path ->
      ignore server;
      incr sock_counter;
      let proxy_path =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "lamp_chaos_%d_%d.sock" (Unix.getpid ())
             !sock_counter)
      in
      let plan =
        Net.make ~seed:7
          {
            Net.chaos with
            refuse = 0.1;
            reset = 0.15;
            truncate = 0.1;
            flip = 0.15;
            stall = 0.0;
            trickle = 0.0;
          }
      in
      let proxy =
        Net.Proxy.start ~plan
          ~listen:(ADDR_UNIX proxy_path)
          ~upstream:(ADDR_UNIX path) ()
      in
      Fun.protect
        ~finally:(fun () ->
          Net.Proxy.stop proxy;
          try Unix.unlink proxy_path with Unix.Unix_error _ -> ())
        (fun () ->
          let r =
            Resilient.create
              ~config:
                {
                  Resilient.default_config with
                  max_attempts = 12;
                  budget_s = Some 30.0;
                }
              ~client:"chaos" (fun () ->
                Client.connect_unix ~timeout_s:2.0 ~path:proxy_path ())
          in
          Fun.protect
            ~finally:(fun () -> Resilient.close r)
            (fun () ->
              List.iter
                (fun (name, qtext) ->
                  let expected = Eval.eval (Parser.query qtext) seed_data in
                  let got, _ = Resilient.execute r ~instance:"main" (Adhoc qtext) in
                  check_bit_identical ("chaos " ^ name) expected got)
                (fig1_queries @ engine_queries);
              (* Keyed ingest through the same chaos: exactly once. *)
              let fresh =
                [
                  Fact.of_list "R" [ Value.int 900; Value.int 901 ];
                  Fact.of_list "S" [ Value.int 901; Value.int 902 ];
                ]
              in
              let added = Resilient.ingest r ~instance:"main" fresh in
              Alcotest.(check int) "keyed ingest applied exactly once" 2 added;
              (* The proxy really did interfere. *)
              Alcotest.(check bool) "faults were injected" true
                (List.exists (fun (_, n) -> n > 0) (Net.Proxy.injected proxy)))))

let test_live_scrape () =
  Lamp_obs.Trace.set_mode (Ring 4096);
  Lamp_obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Lamp_obs.Trace.set_enabled false;
      Lamp_obs.Trace.set_mode Full;
      Lamp_obs.Trace.reset ())
    (fun () ->
      with_server `Seq (fun _server ~executor:_ ~path ->
          with_client path (fun c ->
              ignore (Client.hello ~client:"scraper" c);
              let q = "H(x,z) <- E(x,y), E(y,z)" in
              for _ = 1 to 5 do
                ignore (Client.execute c ~instance:"main" (Adhoc q))
              done;
              let text = Client.metrics c in
              Alcotest.(check bool) "exposition is terminated" true
                (String.length text >= 6
                && String.sub text (String.length text - 6) 6 = "# EOF\n");
              let samples = Lamp_obs.Export.parse_openmetrics text in
              let value name =
                List.find_map
                  (fun (n, _, v) -> if n = name then Some v else None)
                  samples
              in
              (match value "lamp_serve_requests_total" with
              | Some v ->
                Alcotest.(check bool) "request counter matches load" true
                  (v >= 6.0)
              | None -> Alcotest.fail "lamp_serve_requests_total missing");
              (match value "lamp_serve_sessions" with
              | Some v ->
                Alcotest.(check bool) "sessions gauge sees the scraper" true
                  (v >= 1.0)
              | None -> Alcotest.fail "lamp_serve_sessions gauge missing");
              (match value "lamp_serve_uptime_s" with
              | Some v -> Alcotest.(check bool) "uptime gauge" true (v >= 0.0)
              | None -> Alcotest.fail "lamp_serve_uptime_s gauge missing");
              (* Zero-valued counters must be exposed on a scrape. *)
              (match value "lamp_serve_rejected_total" with
              | Some v -> Alcotest.(check (float 0.0)) "zeros emitted" 0.0 v
              | None -> Alcotest.fail "zero counter hidden from scrape");
              (* The server recorded spans for the traced work; the
                 trace op ships them back. *)
              let spans = Client.trace_dump ~limit:64 c in
              Alcotest.(check bool) "serve spans visible" true
                (List.exists
                   (fun (s : Wire.span_info) -> s.sp_name = "serve.request")
                   spans))))

let test_stop_ends_sessions () =
  let executor = Executor.sequential in
  let server = Server.create ~executor () in
  Server.add_instance server ~name:"main" seed_data;
  incr sock_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lamp_serve_%d_%d.sock" (Unix.getpid ()) !sock_counter)
  in
  Server.listen_unix server ~path;
  with_client path (fun c ->
      ignore (Client.execute c ~instance:"main" (Adhoc "H() <- R(x,y)"));
      (* Stop while the client is still connected: its session is shut
         down, not waited for. *)
      Server.stop server;
      Alcotest.(check int) "no session survives" 0
        (Server.stats server).sessions;
      match Client.health c with
      | _ -> Alcotest.fail "the session must be gone"
      | exception (Client.Connection_lost _ | Client.Timed_out _) -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ())

let test_concurrent_clients_match () =
  with_server (`Pool 2) (fun _server ~executor:_ ~path ->
      let q = "H(x,z) <- E(x,y), E(y,z)" in
      let expected = Eval.eval (Parser.query q) seed_data in
      let failures = Atomic.make 0 in
      let ts =
        List.init 16 (fun i ->
            Thread.create
              (fun () ->
                try
                  with_client path (fun c ->
                      ignore (Client.hello ~client:(string_of_int i) c);
                      for _ = 1 to 5 do
                        let got, _ =
                          Client.execute c ~instance:"main" (Adhoc q)
                        in
                        if not (Instance.equal expected got) then
                          Atomic.incr failures
                      done)
                with _ -> Atomic.incr failures)
              ())
      in
      List.iter Thread.join ts;
      Alcotest.(check int) "every concurrent result matched" 0
        (Atomic.get failures))

let () =
  Alcotest.run "lamp.serve"
    [
      ( "wire",
        [
          Alcotest.test_case "round-trips" `Quick test_wire_roundtrip;
          Alcotest.test_case "hostile input" `Quick test_wire_hostile;
          Alcotest.test_case "v3 golden bytes" `Quick test_wire_golden;
          Alcotest.test_case "checksum" `Quick test_wire_checksum;
        ] );
      ( "framing",
        [
          Alcotest.test_case "round-trips" `Quick test_frame_roundtrip;
          Alcotest.test_case "checksum catches corruption" `Quick
            test_frame_checksum;
          Alcotest.test_case "length limit precedes allocation" `Quick
            test_frame_too_large;
          Alcotest.test_case "read deadline" `Quick test_frame_deadline;
          Alcotest.test_case "peer gone" `Quick test_frame_closed;
        ] );
      ( "quota",
        [
          Alcotest.test_case "token bucket" `Quick test_quota_bucket;
          Alcotest.test_case "clock jumps" `Quick test_quota_clock_jumps;
        ] );
      ( "dedup",
        [
          Alcotest.test_case "replay and abort" `Quick
            test_dedup_replay_and_abort;
          Alcotest.test_case "digest mismatch rejects" `Quick
            test_dedup_digest_mismatch;
          Alcotest.test_case "bounded window evicts" `Quick test_dedup_eviction;
        ] );
      ( "cache",
        [ Alcotest.test_case "LRU semantics" `Quick test_cache_lru ] );
      ( "server",
        [
          Alcotest.test_case "library equivalence (seq)" `Quick
            test_equivalence_seq;
          Alcotest.test_case "library equivalence (pool)" `Quick
            test_equivalence_pool;
          Alcotest.test_case "prepared plans are shared" `Quick
            test_prepare_cache_and_ids;
          Alcotest.test_case "ingest invalidates" `Quick
            test_ingest_invalidation;
          Alcotest.test_case "only Prepare assigns plan ids" `Quick
            test_plan_ids_from_prepare;
          Alcotest.test_case "ingest extends the engine handle" `Quick
            test_ingest_extends_handle;
          Alcotest.test_case "admission fast-reject" `Quick
            test_admission_reject;
          Alcotest.test_case "per-client quotas" `Quick test_quota_throttle;
          Alcotest.test_case "errors keep the session" `Quick
            test_errors_and_health;
          Alcotest.test_case "hello rejects other versions" `Quick
            test_hello_refuses_other_versions;
          Alcotest.test_case "live metrics and trace scrape" `Quick
            test_live_scrape;
          Alcotest.test_case "stop ends every session" `Quick
            test_stop_ends_sessions;
          Alcotest.test_case "concurrent clients agree" `Quick
            test_concurrent_clients_match;
          Alcotest.test_case "sessions cost no threads" `Quick
            test_sessions_cost_no_threads;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "keyed ingest exactly once" `Quick
            test_keyed_ingest_replays;
          Alcotest.test_case "dedup records are size-capped" `Quick
            test_dedup_byte_cap;
          Alcotest.test_case "keyed replay is byte-identical" `Quick
            test_keyed_replay_bytes;
          Alcotest.test_case "keyed ingest survives a hangup" `Quick
            test_keyed_hangup_replays;
          Alcotest.test_case "dropped keyed ingest is retried once" `Quick
            test_resilient_retries_dropped_ingest;
          Alcotest.test_case "overload sheds with retry hint" `Quick
            test_overload_sheds;
          Alcotest.test_case "in-flight bound sheds by construction" `Quick
            test_inflight_bound;
          Alcotest.test_case "max sessions rejects and counts" `Quick
            test_max_sessions_rejects;
          Alcotest.test_case "frame limit is typed and fatal" `Quick
            test_server_frame_limit;
          Alcotest.test_case "client failures are typed" `Quick
            test_client_typed_errors;
          Alcotest.test_case "stalled sessions are reaped" `Quick
            test_idle_timeout;
          Alcotest.test_case "write deadline covers the whole response"
            `Quick test_write_deadline;
          Alcotest.test_case "chaos proxy end-to-end" `Quick
            test_chaos_proxy_resilient;
          Alcotest.test_case "sockets above descriptor 1023" `Quick
            test_high_descriptors;
          Alcotest.test_case "a blocked ingest write times out" `Quick
            test_ingest_write_deadline;
          Alcotest.test_case "TCP sessions idle past the accept timeout" `Quick
            test_tcp_idle_past_accept_timeout;
        ] );
    ]
