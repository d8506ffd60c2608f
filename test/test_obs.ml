open Lamp_relational
open Lamp_runtime
module Trace = Lamp_obs.Trace
module Export = Lamp_obs.Export

let instance = Alcotest.testable Instance.pp Instance.equal

(* Every test starts from a quiet collector and leaves it disabled, so
   test order never matters. *)
let clean f () =
  Trace.set_enabled false;
  Trace.reset ();
  Fun.protect ~finally:(fun () -> Trace.set_enabled false) f

let span_names () =
  List.filter_map
    (function Trace.Span { name; _ } -> Some name | _ -> None)
    (Trace.events ())

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)

let test_span_disabled_is_silent () =
  let r = Trace.span "quiet" (fun () -> 41 + 1) in
  Alcotest.(check int) "result through" 42 r;
  Alcotest.(check (list string)) "no events" [] (span_names ())

let test_span_nesting () =
  Trace.set_enabled true;
  let r =
    Trace.span "outer" (fun () ->
        Trace.span "inner" (fun () -> Unix.sleepf 0.002) |> ignore;
        Trace.span "inner" (fun () -> ()) |> ignore;
        7)
  in
  Alcotest.(check int) "result through" 7 r;
  (* Completion order: both inners close before the outer. *)
  Alcotest.(check (list string))
    "nesting recorded" [ "inner"; "inner"; "outer" ] (span_names ());
  let find name =
    List.find_map
      (function
        | Trace.Span { name = n; t; dur; _ } when n = name -> Some (t, dur)
        | _ -> None)
      (Trace.events ())
  in
  match (find "outer", find "inner") with
  | Some (t_out, d_out), Some (t_in, d_in) ->
    Alcotest.(check bool) "outer starts first" true (t_out <= t_in);
    Alcotest.(check bool) "outer covers inner" true (d_out >= d_in);
    Alcotest.(check bool) "inner slept" true (d_in >= 0.002)
  | _ -> Alcotest.fail "spans missing"

let test_span_records_on_raise () =
  Trace.set_enabled true;
  Alcotest.check_raises "exception propagates" (Failure "boom") (fun () ->
      Trace.span "doomed" (fun () -> failwith "boom"));
  Alcotest.(check (list string)) "span still recorded" [ "doomed" ] (span_names ())

(* ------------------------------------------------------------------ *)
(* Counters and histograms under the pool backend                      *)

let test_counter_disabled_is_noop () =
  let c = Trace.counter "test.off" in
  Trace.incr c;
  Trace.add c 10;
  Alcotest.(check int) "stays zero while disabled" 0 (Trace.value c)

let test_counter_pool_aggregation () =
  Trace.set_enabled true;
  let c = Trace.counter "test.pool" in
  let h = Trace.histogram "test.pool_hist" in
  let pool = Pool.create ~domains:4 () in
  let ex = Executor.pool pool in
  Executor.parallel_for ex ~n:64 (fun ~worker:_ k ->
      for _ = 1 to 1000 do
        Trace.incr c
      done;
      Trace.observe h k);
  Pool.shutdown pool;
  Alcotest.(check int) "no increment lost across domains" 64_000 (Trace.value c);
  let s = Trace.histogram_snapshot h in
  Alcotest.(check int) "observations" 64 s.Trace.count;
  Alcotest.(check int) "sum 0..63" (63 * 64 / 2) s.Trace.sum;
  Alcotest.(check int) "max" 63 s.Trace.max_value

let test_histogram_buckets () =
  Trace.set_enabled true;
  let h = Trace.histogram "test.buckets" in
  List.iter (Trace.observe h) [ 0; 1; 2; 3; 8 ];
  let s = Trace.histogram_snapshot h in
  Alcotest.(check int) "count" 5 s.Trace.count;
  Alcotest.(check int) "sum" 14 s.Trace.sum;
  Alcotest.(check int) "max" 8 s.Trace.max_value;
  (* Power-of-two buckets, inclusive upper bounds: 0 -> [0], 1 -> [1],
     {2,3} -> [3], 8 -> [15]. *)
  Alcotest.(check (list (pair int int)))
    "buckets" [ (0, 1); (1, 1); (3, 2); (15, 1) ] s.Trace.buckets

let test_percentiles () =
  Trace.set_enabled true;
  let snap values =
    let h = Trace.histogram "test.percentiles" in
    List.iter (Trace.observe h) values;
    Trace.histogram_snapshot h
  in
  (* Empty histogram: every quantile is 0. *)
  let empty = snap [] in
  Alcotest.(check (float 0.0)) "empty p50" 0.0 (Trace.percentile empty 0.5);
  (* A single value: all quantiles land on (an estimate of) it; q = 1
     is exact by the max_value clamp. *)
  Trace.reset ();
  let one = snap [ 100 ] in
  Alcotest.(check (float 0.0)) "single value, q=1" 100.0
    (Trace.percentile one 1.0);
  let p50 = Trace.percentile one 0.5 in
  Alcotest.(check bool) "single value, q=0.5 within bucket" true
    (p50 >= 64.0 && p50 <= 100.0);
  (* Monotonicity across quantiles, upper clamp at max_value. *)
  Trace.reset ();
  let s = snap (List.init 1000 (fun i -> i)) in
  let p50 = Trace.percentile s 0.50 in
  let p95 = Trace.percentile s 0.95 in
  let p99 = Trace.percentile s 0.99 in
  Alcotest.(check bool) "p50 <= p95 <= p99" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "p99 <= max" true
    (p99 <= float_of_int s.Trace.max_value);
  Alcotest.(check (float 0.0)) "q=1 is the max" 999.0 (Trace.percentile s 1.0);
  (* Power-of-two resolution: the estimate stays within a factor of 2
     of the true quantile (true p50 of 0..999 is ~500). *)
  Alcotest.(check bool) "p50 within a bucket of truth" true
    (p50 >= 250.0 && p50 <= 1000.0);
  (* Out-of-range quantiles clamp instead of raising. *)
  Alcotest.(check (float 0.0)) "q>1 clamps" 999.0 (Trace.percentile s 1.5)

let test_reset_clears () =
  Trace.set_enabled true;
  let c = Trace.counter "test.reset" in
  Trace.incr c;
  Trace.instant "blip";
  Trace.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Trace.value c);
  Alcotest.(check int) "events cleared" 0 (List.length (Trace.events ()));
  (* The handle stays live after a reset. *)
  Trace.incr c;
  Alcotest.(check int) "handle survives reset" 1 (Trace.value c)

(* ------------------------------------------------------------------ *)
(* Determinism: tracing may never change results or statistics         *)

let tri_workload () =
  let rng = Random.State.make [| 42 |] in
  Lamp_mpc.Workload.triangle_skew_free ~rng ~m:300 ~domain:200

let run_hc executor =
  let r, s, _ =
    Lamp_mpc.Hypercube.run ~executor ~p:8 Lamp_cq.Examples.q2_triangle
      (tri_workload ())
  in
  (r, s)

let check_trace_invariance run =
  let r_off, s_off = run () in
  Trace.set_enabled true;
  let r_on, s_on = run () in
  Trace.set_enabled false;
  Alcotest.check instance "results identical with tracing on" r_off r_on;
  Alcotest.(check bool) "stats bit-identical with tracing on" true (s_off = s_on);
  Alcotest.(check bool) "trace captured events" true (Trace.events () <> [])

let test_determinism_seq () =
  check_trace_invariance (fun () -> run_hc Executor.sequential)

let test_determinism_pool () =
  check_trace_invariance (fun () ->
      let pool = Pool.create ~domains:4 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () -> run_hc (Executor.pool pool)))

let test_determinism_datalog () =
  let rng = Random.State.make [| 7 |] in
  let graph = Generate.random_graph ~rng ~nodes:60 ~edges:150 () in
  let tc = Lamp_datalog.Canned.transitive_closure in
  let run () = Lamp_datalog.Eval.run tc graph in
  let off = run () in
  Trace.set_enabled true;
  let on = run () in
  Trace.set_enabled false;
  Alcotest.check instance "datalog result identical with tracing on" off on;
  Alcotest.(check bool)
    "stratum spans and iteration events present" true
    (List.mem "datalog.stratum" (span_names ())
    && List.exists
         (function
           | Trace.Instant { name = "datalog.iteration"; _ } -> true
           | _ -> false)
         (Trace.events ()))

(* ------------------------------------------------------------------ *)
(* Runtime spans: one per MPC round, carrying the executor's counters   *)

let runtime_spans () =
  List.filter_map
    (function
      | Trace.Span { cat = "runtime"; name; args; _ } -> Some (name, args)
      | _ -> None)
    (Trace.events ())

let test_round_span () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let executor = Executor.pool pool in
      ignore (run_hc executor);
      Alcotest.(check int) "no runtime span with tracing off" 0
        (List.length (runtime_spans ()));
      Trace.set_enabled true;
      let before = Executor.counters executor in
      ignore (run_hc executor);
      let after = Executor.counters executor in
      Trace.set_enabled false;
      match runtime_spans () with
      | [ (name, args) ] ->
        Alcotest.(check string) "one round" "round 1/p=8" name;
        Alcotest.(check bool) "tasks = executor delta" true
          (List.assoc_opt "tasks" args
          = Some (Trace.Int (after.tasks - before.tasks)));
        Alcotest.(check bool) "steals = executor delta" true
          (List.assoc_opt "steals" args
          = Some (Trace.Int (after.steals - before.steals)))
      | spans ->
        Alcotest.failf "expected one runtime span, got %d" (List.length spans))

let test_emit_span_multidomain () =
  Trace.set_enabled true;
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Executor.parallel_for (Executor.pool pool) ~n:32 (fun ~worker:_ k ->
          Trace.emit_span ~cat:"runtime" ~name:(Printf.sprintf "t%d" k)
            ~t0:(Trace.now ()) ~dur:0.001 ()));
  Alcotest.(check (list string)) "spans from every task kept"
    (List.sort compare (List.init 32 (Printf.sprintf "t%d")))
    (List.sort compare (span_names ()))

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let contains s sub =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_export_jsonl () =
  Trace.set_enabled true;
  ignore (run_hc Executor.sequential);
  Trace.set_enabled false;
  let path = Filename.temp_file "lamp_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.write_jsonl path;
      let lines =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check bool) "non-empty" true (lines <> []);
      List.iter
        (fun l ->
          Alcotest.(check bool) "line is a JSON object" true
            (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}');
          Alcotest.(check bool) "has type field" true (contains l "\"type\"");
          Alcotest.(check bool) "has name field" true (contains l "\"name\""))
        lines;
      Alcotest.(check bool) "mpc events present" true
        (List.exists (fun l -> contains l "mpc.server") lines);
      Alcotest.(check bool) "counter lines present" true
        (List.exists (fun l -> contains l "\"type\":\"counter\"") lines))

let test_export_chrome () =
  Trace.set_enabled true;
  ignore (run_hc Executor.sequential);
  Trace.set_enabled false;
  let path = Filename.temp_file "lamp_obs" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Export.write_chrome path;
      let s = read_file path in
      Alcotest.(check bool) "trace_event envelope" true
        (String.starts_with ~prefix:"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" s);
      Alcotest.(check bool) "complete spans" true (contains s "\"ph\":\"X\"");
      Alcotest.(check bool) "instants" true (contains s "\"ph\":\"i\"");
      Alcotest.(check bool) "counter tracks" true (contains s "\"ph\":\"C\"");
      Alcotest.(check bool) "closed envelope" true
        (String.length s >= 3 && String.sub s (String.length s - 3) 3 = "]}\n"))

(* ------------------------------------------------------------------ *)
(* Live metrics registry (lamp.obs v2)                                 *)

module Live = Lamp_obs.Metrics
module Sketch = Lamp_obs.Sketch

let test_registry_all_flag () =
  let c = Trace.counter "test.zero_counter" in
  let _h = Trace.histogram "test.zero_hist" in
  ignore c;
  Alcotest.(check bool)
    "zero counter hidden by default" false
    (List.mem_assoc "test.zero_counter" (Trace.counters ()));
  Alcotest.(check (option int))
    "~all:true exposes it as 0" (Some 0)
    (List.assoc_opt "test.zero_counter" (Trace.counters ~all:true ()));
  Alcotest.(check bool)
    "empty histogram hidden by default" false
    (List.mem_assoc "test.zero_hist" (Trace.histograms ()));
  Alcotest.(check bool)
    "~all:true exposes the empty histogram" true
    (List.mem_assoc "test.zero_hist" (Trace.histograms ~all:true ()))

let test_gauges () =
  (* Callback gauges are not gated on tracing: a scrape must see
     current state even on a quiet server. *)
  Live.register_callback "test.cb" (fun () -> 2.5);
  Live.register_callback "test.cb_raise" (fun () -> failwith "scrape me not");
  Fun.protect
    ~finally:(fun () ->
      Live.unregister_callback "test.cb";
      Live.unregister_callback "test.cb_raise")
    (fun () ->
      let gs = Live.gauges () in
      Alcotest.(check (option (float 0.0)))
        "callback evaluated at scrape" (Some 2.5)
        (List.assoc_opt "test.cb" gs);
      Alcotest.(check bool)
        "raising callback reads as nan, scrape survives" true
        (match List.assoc_opt "test.cb_raise" gs with
        | Some v -> Float.is_nan v
        | None -> false));
  Alcotest.(check bool)
    "unregistered callback gone" false
    (List.mem_assoc "test.cb" (Live.gauges ()))

(* A scrape racing live observers: every mid-flight capture must be
   sane (monotone, never negative), and once the observers land the
   aggregates must be exact — nothing lost, nothing double-counted. *)
let test_concurrent_scrape () =
  Trace.set_enabled true;
  let c = Trace.counter "test.live_c" in
  let h = Trace.histogram "test.live_h" in
  let per = 20_000 and workers = 3 in
  let ds =
    List.init workers (fun _ ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Trace.incr c;
              Trace.observe h (i land 255)
            done))
  in
  let monotone = ref true and prev_c = ref 0 and prev_n = ref 0 in
  for _ = 1 to 200 do
    (* The captures a scrape makes. *)
    (match List.assoc_opt "test.live_c" (Trace.counters ~all:true ()) with
    | Some v ->
      if v < !prev_c then monotone := false;
      prev_c := v
    | None -> ());
    match List.assoc_opt "test.live_h" (Trace.histograms ~all:true ()) with
    | Some hs ->
      if hs.Trace.count < !prev_n || hs.Trace.sum < 0 then monotone := false;
      prev_n := hs.Trace.count
    | None -> ()
  done;
  List.iter Domain.join ds;
  Alcotest.(check bool) "mid-flight captures monotone" true !monotone;
  Alcotest.(check int)
    "no increment lost to the scraper" (workers * per) (Trace.value c);
  let s = Trace.histogram_snapshot h in
  Alcotest.(check int) "all observations landed" (workers * per) s.Trace.count;
  Alcotest.(check int)
    "buckets account for every observation" (workers * per)
    (List.fold_left (fun acc (_, n) -> acc + n) 0 s.Trace.buckets)

(* ------------------------------------------------------------------ *)
(* Sketches                                                            *)

let zipf_stream ~seed ~n ~domain ~s =
  let rng = Random.State.make [| seed |] in
  let draw = Generate.zipf_sampler ~rng ~n:domain ~s in
  Array.init n (fun _ -> draw ())

let exact_counts stream =
  let tbl = Hashtbl.create 512 in
  Array.iter
    (fun id ->
      Hashtbl.replace tbl id
        (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id)))
    stream;
  tbl

let test_cm_zipf_bound () =
  let stream = zipf_stream ~seed:99 ~n:30_000 ~domain:2000 ~s:1.2 in
  let exact = exact_counts stream in
  let cm = Sketch.Cm.create () in
  Array.iter (Sketch.Cm.add cm) stream;
  let bound = Sketch.Cm.error_bound cm in
  Alcotest.(check int) "total is the stream length" 30_000
    (Sketch.Cm.total cm);
  let over = ref 0 and under = ref false and keys = ref 0 in
  Hashtbl.iter
    (fun id c ->
      incr keys;
      let est = Sketch.Cm.estimate cm id in
      if est < c then under := true;
      if est - c > bound then incr over)
    exact;
  Alcotest.(check bool) "one-sided: never undercounts" false !under;
  Alcotest.(check bool)
    "error within eps*m on >= 99% of keys" true
    (float_of_int !over <= 0.01 *. float_of_int !keys);
  (* The heavy hitters — where the report looks — estimate exactly or
     nearly so. *)
  let top =
    Hashtbl.fold (fun id c acc -> (c, id) :: acc) exact []
    |> List.sort (fun a b -> compare b a)
    |> List.filteri (fun i _ -> i < 10)
  in
  Alcotest.(check bool)
    "true top-10 within the bound" true
    (List.for_all (fun (c, id) -> Sketch.Cm.estimate cm id - c <= bound) top)

let test_topk_and_reservoir () =
  let stream = zipf_stream ~seed:99 ~n:30_000 ~domain:2000 ~s:1.2 in
  let exact = exact_counts stream in
  let topk = Sketch.Topk.create ~capacity:32 () in
  let res = Sketch.Reservoir.create ~capacity:64 () in
  Array.iter
    (fun id ->
      Sketch.Topk.offer topk id;
      Sketch.Reservoir.offer res id)
    stream;
  let truth id = Option.value ~default:0 (Hashtbl.find_opt exact id) in
  let reported = Sketch.Topk.top topk 10 in
  let true_top5 =
    Hashtbl.fold (fun id c acc -> (c, id) :: acc) exact []
    |> List.sort (fun a b -> compare b a)
    |> List.filteri (fun i _ -> i < 5)
    |> List.map snd
  in
  Alcotest.(check bool)
    "space-saving catches the true top-5" true
    (List.for_all
       (fun id -> List.exists (fun (i, _, _) -> i = id) reported)
       true_top5);
  Alcotest.(check bool)
    "est - err <= truth <= est on every entry" true
    (List.for_all
       (fun (id, est, err) ->
         let c = truth id in
         est - err <= c && c <= est)
       reported);
  Alcotest.(check int) "reservoir saw the stream" 30_000
    (Sketch.Reservoir.seen res);
  Alcotest.(check int) "reservoir holds its capacity" 64
    (List.length (Sketch.Reservoir.contents res));
  let res2 = Sketch.Reservoir.create ~capacity:64 () in
  Array.iter (Sketch.Reservoir.offer res2) stream;
  Alcotest.(check (list int))
    "same stream, same sample" (Sketch.Reservoir.contents res)
    (Sketch.Reservoir.contents res2)

(* The per-round skew report rides the MPC rounds: absent while the
   master switch is off, recorded per round while on — and the measured
   Stats.t is bit-identical either way. *)
let test_skew_reports_gated () =
  Sketch.reset ();
  let rng = Random.State.make [| 3 |] in
  let inst =
    Lamp_mpc.Workload.relations_from_pairs ~rels:[ "R"; "S" ]
      (Lamp_mpc.Workload.zipf_pairs ~rng ~m:400 ~domain:100 ~s:1.2)
  in
  let run () = Lamp_mpc.Repartition_join.run ~materialize:false ~p:4 inst in
  let _, s_off = run () in
  Alcotest.(check int) "no report while disabled" 0 (Sketch.report_count ());
  Sketch.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Sketch.set_enabled false;
      Sketch.reset ())
    (fun () ->
      let _, s_on = run () in
      Alcotest.(check int) "one round, one report" 1 (Sketch.report_count ());
      (match Sketch.latest () with
      | None -> Alcotest.fail "report missing"
      | Some r ->
        Alcotest.(check int) "p recorded" 4 r.Sketch.p;
        Alcotest.(check int) "round numbered from 1" 1 r.Sketch.round;
        Alcotest.(check bool) "top keys present" true (r.Sketch.top <> []);
        Alcotest.(check int)
          "max_received is the measured max load"
          (Lamp_mpc.Stats.max_load s_on)
          r.Sketch.max_received);
      Alcotest.(check bool)
        "stats bit-identical with sketches on" true (s_off = s_on))

let test_openmetrics_roundtrip () =
  Trace.set_enabled true;
  Trace.add (Trace.counter (Live.render_labels "test.om" [ ("op", "scan") ])) 7;
  let h = Trace.histogram "test.om_hist" in
  List.iter (Trace.observe h) [ 1; 2; 3; 300 ];
  Live.register_callback "test.om_gauge" (fun () -> 5.0);
  let text =
    Fun.protect
      ~finally:(fun () -> Live.unregister_callback "test.om_gauge")
      Export.openmetrics
  in
  Alcotest.(check bool)
    "exposition ends with # EOF" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n");
  let samples = Export.parse_openmetrics text in
  let value ?(labels = []) name =
    List.find_map
      (fun (n, ls, v) ->
        if n = name && List.for_all (fun kv -> List.mem kv ls) labels then
          Some v
        else None)
      samples
  in
  Alcotest.(check (option (float 0.0)))
    "labeled counter scraped back" (Some 7.0)
    (value ~labels:[ ("op", "scan") ] "lamp_test_om_total");
  Alcotest.(check (option (float 0.0)))
    "histogram count" (Some 4.0)
    (value "lamp_test_om_hist_count");
  Alcotest.(check (option (float 0.0)))
    "+Inf bucket equals count" (Some 4.0)
    (value ~labels:[ ("le", "+Inf") ] "lamp_test_om_hist_bucket");
  Alcotest.(check (option (float 0.0)))
    "histogram sum" (Some 306.0)
    (value "lamp_test_om_hist_sum");
  Alcotest.(check (option (float 0.0)))
    "gauge scraped back" (Some 5.0)
    (value "lamp_test_om_gauge")

(* Two scrapes of one histogram. Only non-empty buckets are exported,
   so the newer scrape has bounds (2, 8) the older lacks: the window
   holds three observations in (1, 2] and one in (4, 8]. A bucket whose
   bound is not a number is dropped, not raised on. *)
let test_window_quantiles () =
  let older =
    Export.parse_openmetrics
      "lamp_t_us_bucket{le=\"1\"} 5\n\
       lamp_t_us_bucket{le=\"abc\"} 2\n\
       lamp_t_us_bucket{le=\"4\"} 7\n\
       lamp_t_us_bucket{le=\"+Inf\"} 7\n\
       lamp_t_us_count 7\n"
  in
  let newer =
    Export.parse_openmetrics
      "lamp_t_us_bucket{le=\"1\"} 5\n\
       lamp_t_us_bucket{le=\"2\"} 8\n\
       lamp_t_us_bucket{le=\"abc\"} 2\n\
       lamp_t_us_bucket{le=\"4\"} 10\n\
       lamp_t_us_bucket{le=\"8\"} 11\n\
       lamp_t_us_bucket{le=\"+Inf\"} 11\n\
       lamp_t_us_count 11\n"
  in
  let window = Export.window_buckets ~newer ~older "lamp_t_us" in
  Alcotest.(check (list (pair (float 0.0) (float 0.0))))
    "window buckets"
    [ (1.0, 0.0); (2.0, 3.0); (4.0, 3.0); (8.0, 4.0); (infinity, 4.0) ]
    window;
  (* Per-bucket counts are never negative and add up to the window's
     _count delta. *)
  let per_bucket =
    snd
      (List.fold_left_map (fun prev (_, cum) -> (cum, cum -. prev)) 0.0 window)
  in
  Alcotest.(check bool) "no negative bucket" true
    (List.for_all (fun n -> n >= 0.0) per_bucket);
  Alcotest.(check (float 0.0)) "buckets add up to the count delta" 4.0
    (List.fold_left ( +. ) 0.0 per_bucket);
  let q = Export.window_quantile ~newer ~older "lamp_t_us" in
  Alcotest.(check (float 1e-9)) "p50 inside (1, 2]" (1.0 +. (2.0 /. 3.0)) (q 0.5);
  Alcotest.(check (float 1e-9)) "p99 inside (4, 8]" 7.84 (q 0.99);
  Alcotest.(check bool) "empty window" true
    (Float.is_nan (Export.window_quantile ~newer ~older:newer "lamp_t_us" 0.5))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "disabled is silent" `Quick
            (clean test_span_disabled_is_silent);
          Alcotest.test_case "nesting and overlap" `Quick (clean test_span_nesting);
          Alcotest.test_case "records on raise" `Quick
            (clean test_span_records_on_raise);
        ] );
      ( "counters",
        [
          Alcotest.test_case "disabled is no-op" `Quick
            (clean test_counter_disabled_is_noop);
          Alcotest.test_case "pool aggregation" `Quick
            (clean test_counter_pool_aggregation);
          Alcotest.test_case "histogram buckets" `Quick
            (clean test_histogram_buckets);
          Alcotest.test_case "percentiles" `Quick (clean test_percentiles);
          Alcotest.test_case "reset" `Quick (clean test_reset_clears);
        ] );
      ( "runtime-spans",
        [
          Alcotest.test_case "traced round span" `Quick (clean test_round_span);
          Alcotest.test_case "emit_span across domains" `Quick
            (clean test_emit_span_multidomain);
        ] );
      ( "determinism",
        [
          Alcotest.test_case "hypercube seq" `Quick (clean test_determinism_seq);
          Alcotest.test_case "hypercube pool" `Quick (clean test_determinism_pool);
          Alcotest.test_case "datalog" `Quick (clean test_determinism_datalog);
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl" `Quick (clean test_export_jsonl);
          Alcotest.test_case "chrome" `Quick (clean test_export_chrome);
        ] );
      ( "metrics-live",
        [
          Alcotest.test_case "registry ~all flag" `Quick
            (clean test_registry_all_flag);
          Alcotest.test_case "gauges and callbacks" `Quick (clean test_gauges);
          Alcotest.test_case "concurrent scrape" `Quick
            (clean test_concurrent_scrape);
        ] );
      ( "sketch",
        [
          Alcotest.test_case "count-min zipf bound" `Quick
            (clean test_cm_zipf_bound);
          Alcotest.test_case "top-k and reservoir" `Quick
            (clean test_topk_and_reservoir);
          Alcotest.test_case "skew reports gated" `Quick
            (clean test_skew_reports_gated);
          Alcotest.test_case "openmetrics round-trip" `Quick
            (clean test_openmetrics_roundtrip);
          Alcotest.test_case "openmetrics window quantiles" `Quick
            (clean test_window_quantiles);
        ] );
    ]
