(* The lamp benchmark: one seeded workload per invocation.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--size full|tiny] [--lamp PATH]

   With --trace 0 the last line of standard output is a JSON object
   holding every end-to-end metric; with --trace 1 it holds every
   per-layer metric instead, measured in a separate traced run. Any
   wrong answer prints a MISMATCH line, counts as a failed operation
   and makes the exit code 1. perfbench/README.md has the map from
   layers to metrics to workloads. *)

open Util

let end_to_end =
  [ ("setup_s", "s"); ("latency_ms.p50", "ms"); ("latency_ms.tail", "ms");
    ("ops_per_s", "1/s"); ("max_load", "facts"); ("total_load", "facts");
    ("peak_rss_mb", "MiB") ]

let serve_layers =
  [ ("server.busy_us", "us"); ("server.queue_wait_us.mean", "us");
    ("server.queue_wait_us.p99", "us"); ("transport_us", "us");
    ("wire.bytes_per_op", "B"); ("wire.codec_us", "us");
    ("cache.hit_ratio", "ratio"); ("cache.misses", "count");
    ("rpool.rebuilds", "count"); ("rpool.rebuilds_per_ingest", "count");
    ("rpool.build_ms", "ms"); ("cq.eval_us.triangle", "us");
    ("cq.eval_us.scan", "us"); ("cq.eval_us.lookup", "us");
    ("cq.probes_per_op", "count"); ("cq.scans_per_op", "count");
    ("ingest.apply_us", "us"); ("alloc.minor_words_per_op", "words");
    ("server.rejected", "count"); ("server.throttled", "count");
    ("server.shed", "count"); ("server.deduped", "count") ]

let mpc_layers =
  [ ("cluster.communicate_ms", "ms"); ("cluster.merge_ms", "ms");
    ("cluster.compute_ms", "ms"); ("mpc.rounds", "count");
    ("kst.heavy_configs", "count"); ("wcoj.probes", "count");
    ("wcoj.intersections", "count"); ("wcoj.gallop_steps", "count");
    ("codec.snapshot_ms", "ms"); ("store.checkpoints", "count");
    ("store.bytes", "B"); ("store.save_ms", "ms"); ("store.load_ms", "ms");
    ("job.self_ms", "ms"); ("gc.minor_words", "words");
    ("gc.promoted_words", "words"); ("gc.major_collections", "count") ]

let obs_layer = [ ("obs.overhead_pct.p50", "%"); ("obs.overhead_pct.throughput", "%") ]

let per_layer = serve_layers @ mpc_layers @ obs_layer

type workload =
  | Serve of Serve_bench.config
  | Mpc of Mpc_bench.config

(* Sizes are chosen so a 60 s serve run completes 1,000-9,999
   open-loop requests (p99 has ten samples beyond it) and an MPC run
   over 100 batches (p90 has ten or more beyond it). [setups] is the
   number of rounds a run is cut into, each starting with one setup
   sample, so the setup_s median samples the whole run. *)
let workloads ~tiny =
  if tiny then
    [ ("serve-write",
       Serve { m = 200; lookups = 8; ingest_every = 10; rate = 100.0; setups = 2 });
      ("mpc-batch", Mpc { m = 300; setups = 2 }) ]
  else
    [ ("serve-write",
       Serve { m = 2000; lookups = 32; ingest_every = 100; rate = 250.0; setups = 15 });
      ("mpc-batch", Mpc { m = 3000; setups = 12 }) ]

let usage =
  "main.exe --workload W --seed N --seconds S --trace 0|1 [--size full|tiny] \
   [--lamp PATH]"

(* Keep exactly the metrics the mode reports, in their declared order
   and units. A layer the workload never runs reads 0 (it does no work
   there); a metric of the workload's own family that was not measured
   is an error. *)
let select ~specs ~own r =
  let measured = r.metrics in
  let pick (name, unit) =
    match List.find_opt (fun (n, _, _) -> n = name) measured with
    | Some (_, v, u) ->
      if u <> unit then mismatch r "metric %s measured in %s, declared %s" name u unit;
      (name, v, unit)
    | None ->
      if List.mem_assoc name own then mismatch r "metric %s was not measured" name;
      (name, 0.0, unit)
  in
  r.metrics <- List.rev_map pick specs

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0
  and trace = ref (-1) and size = ref "full"
  and lamp = ref "_build/default/bin/main.exe" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--size", Arg.Set_string size, "full|tiny");
      ("--lamp", Arg.Set_string lamp, "PATH to the lamp CLI") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let table = workloads ~tiny:(!size = "tiny") in
  let wl =
    match List.assoc_opt !workload table with
    | Some w when !seed >= 0 && !seconds > 0.0 && (!trace = 0 || !trace = 1)
                  && (!size = "full" || !size = "tiny") -> w
    | _ ->
      prerr_endline usage;
      exit 2
  in
  if not (Sys.file_exists !lamp) then begin
    Printf.eprintf "lamp CLI not found at %s\n" !lamp;
    exit 2
  end;
  let traced = !trace = 1 in
  let root = ".perfbench" in
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  rm_rf dir;
  mkdir_p dir;
  mkdir_p (Filename.concat root "traces");
  let trace_file =
    Filename.concat root
      (Printf.sprintf "traces/%s-seed%d.json" !workload !seed)
  in
  (* A stopped run still stops its server child and removes its files
     (both at exit). *)
  at_exit (fun () -> rm_rf dir);
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  let r = result () in
  (try
     match wl with
     | Serve cfg ->
       Serve_bench.run ~lamp:!lamp ~dir ~cfg ~seed:!seed ~seconds:!seconds
         ~trace:traced ~trace_file r
     | Mpc cfg ->
       Mpc_bench.run ~dir ~cfg ~seed:!seed ~seconds:!seconds ~trace:traced
         ~trace_file r
   with e -> mismatch r "run aborted: %s" (Printexc.to_string e));
  let specs, own =
    match traced, wl with
    | false, _ -> (end_to_end, end_to_end)
    | true, Serve _ -> (per_layer, serve_layers @ obs_layer)
    | true, Mpc _ -> (per_layer, mpc_layers @ obs_layer)
  in
  select ~specs ~own r;
  print_result ~workload:!workload r;
  exit (if r.failed = 0 then 0 else 1)
