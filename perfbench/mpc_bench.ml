(* The MPC workload: batches of supervised multi-round jobs run back to
   back in this process, each job checkpointed after every round on an
   on-disk Jobs.Store (fsync on, the program's durability contract).

   One batch runs the paper's two multi-round schedules in turn:

   kst  Mpc.Kst.run on the y-skew hub triangle: two Cluster rounds
        (routing, merge, WCOJ compute) make most of the job, with 2
        checkpoints.
   gym  Mpc.Yannakakis.gym on a 4-relation chain: nine rounds and nine
        checkpoints, no Cluster at all, so codec and store writes are
        about half of the job.

   A batch is timed from the first call to the second job's
   checkpointed result. A run is cut into rounds, each opening with one
   setup sample: a fresh store directory and one warm-up batch. *)

open Lamp
open Util
module Instance = Relational.Instance

type config = {
  m : int;  (** Facts drawn per relation of either input. *)
  setups : int;  (** Rounds of a run, one timed store open + warm-up batch each. *)
}

type part = {
  name : string;  (** The job name on the store. *)
  run_job : Jobs.Supervisor.t -> Instance.t * Mpc.Stats.t * int;
      (** Result, load statistics, KST heavy configurations (0 for GYM). *)
  oracle : Instance.t;
}

let chain_query =
  "H(x0,x4) <- R1(x0,x1), R2(x1,x2), R3(x2,x3), R4(x3,x4)"

let make_parts ~seed cfg res =
  let rng = Random.State.make [| seed |] in
  let tri =
    Mpc.Workload.triangle_y_skew ~rng ~m:cfg.m ~domain:cfg.m ~heavy_fraction:0.2
  in
  let chain =
    Mpc.Workload.acyclic_chain ~rng ~m:cfg.m ~domain:(cfg.m / 2)
      ~rels:[ "R1"; "R2"; "R3"; "R4" ]
  in
  let tri_q = Cq.Examples.q2_triangle and chain_q = Cq.Parser.query chain_query in
  let tri_oracle = Cq.Eval.eval tri_q tri and chain_oracle = Cq.Eval.eval chain_q chain in
  List.iter
    (fun (name, i, o) ->
      diag res (name ^ ".input_facts") (string_of_int (Instance.cardinal i));
      diag res (name ^ ".output_facts") (string_of_int (Instance.cardinal o)))
    [ ("kst", tri, tri_oracle); ("gym", chain, chain_oracle) ];
  [ { name = "kst";
      run_job = (fun job -> Mpc.Kst.run ~job ~p:servers tri_q tri);
      oracle = tri_oracle };
    { name = "gym";
      run_job =
        (fun job ->
          let out, stats = Mpc.Yannakakis.gym ~job ~p:servers chain_q chain in
          (out, stats, 0));
      oracle = chain_oracle } ]

type tally = {
  res : result;
  mutable latencies : float list;  (** ms per batch *)
  mutable busy : float;  (** seconds inside batches *)
  mutable first : Mpc.Stats.t list option;  (** per part, first batch *)
  mutable last : (part * Jobs.Supervisor.t) list;
  mutable heavy : int;
}

let new_tally res =
  { res; latencies = []; busy = 0.0; first = None; last = []; heavy = 0 }

(* A batch is timed from the first call to the last checkpointed
   result; the answer and Stats.t checks run after the clock stops.
   Returns its seconds. *)
let one_batch parts store tally ~wrap =
  let t0 = now () in
  let runs =
    wrap (fun () ->
        List.map
          (fun part ->
            let job = Jobs.Supervisor.create ~store part.name in
            (part, job, part.run_job job))
          parts)
  in
  let dt = now () -. t0 in
  let res = tally.res in
  res.attempted <- res.attempted + 1;
  tally.last <- List.map (fun (part, job, _) -> (part, job)) runs;
  List.iter
    (fun (part, _, (out, _, heavy)) ->
      tally.heavy <- max tally.heavy heavy;
      if not (Instance.equal out part.oracle) then
        mismatch res "batch %d, %s: output (%d facts) differs from the local oracle (%d)"
          res.attempted part.name (Instance.cardinal out)
          (Instance.cardinal part.oracle))
    runs;
  let stats = List.map (fun (_, _, (_, s, _)) -> s) runs in
  (match tally.first with
  | None -> tally.first <- Some stats
  | Some s when s = stats -> ()
  | Some _ -> mismatch res "batch %d: Stats.t differs from the first batch's" res.attempted);
  dt

(* Measured batches, back to back until [t_end]. *)
let batches_until parts store tally ?(wrap = fun f -> f ()) t_end =
  while now () < t_end do
    let dt = one_batch parts store tally ~wrap in
    tally.latencies <- (1000.0 *. dt) :: tally.latencies;
    tally.busy <- tally.busy +. dt
  done

(* One setup sample: open a fresh store directory and run one warm-up
   batch in it. Every batch, warm-up or measured, must match the first
   one's statistics. *)
let setup_sample ~dir parts tally k =
  let path = Filename.concat dir (Printf.sprintf "store%d" k) in
  let t0 = now () in
  let store = Jobs.Store.on_disk path in
  ignore (one_batch parts store tally ~wrap:(fun f -> f ()));
  (path, store, now () -. t0)

(* [cfg.setups] rounds over [seconds]. The first round's setup sample
   opens the store the measured batches use; with [samples], each later
   round opens with one more in a store directory of its own, removed
   once timed. Returns the store and the setup times. *)
let run_rounds ~dir ~cfg parts tally ~samples seconds =
  let _, store, t_first = setup_sample ~dir parts tally 0 in
  let t0 = now () in
  let setups = ref [ t_first ] in
  for r = 1 to cfg.setups do
    if samples && r > 1 then begin
      let path, _, t = setup_sample ~dir parts tally r in
      rm_rf path;
      setups := t :: !setups
    end;
    batches_until parts store tally
      (t0 +. (seconds *. float_of_int r /. float_of_int cfg.setups))
  done;
  (store, !setups)

let counter name = Obs.Trace.value (Obs.Trace.counter name)

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let run ~dir ~cfg ~seed ~seconds ~trace ~trace_file res =
  let parts = make_parts ~seed cfg res in
  diag res "store.fs" (fs_type dir);
  let steal0 = cpu_jiffies () in
  let tally = new_tally res in
  let phase_s = if trace then seconds /. 2.0 else seconds in
  let store, setups = run_rounds ~dir ~cfg parts tally ~samples:(not trace) phase_s in
  let stats = Option.get tally.first in
  let rate t = float_of_int (List.length t.latencies) /. t.busy in
  diag res "batches" (string_of_int (List.length tally.latencies));
  if not trace then begin
    metric res "setup_s" "s" (median setups);
    diag res "setup.samples" (string_of_int (List.length setups));
    metric res "latency_ms.p50" "ms" (median tally.latencies);
    metric res "latency_ms.tail" "ms" (percentile 0.90 tally.latencies);
    metric res "ops_per_s" "1/s" (rate tally);
    metric res "max_load" "facts"
      (float_of_int (List.fold_left (fun m s -> max m (Mpc.Stats.max_load s)) 0 stats));
    metric res "total_load" "facts"
      (float_of_int (sum Mpc.Stats.total_communication stats));
    metric res "peak_rss_mb" "MiB" (peak_rss_mb "self")
  end
  else begin
    let traced = { (new_tally res) with first = tally.first } in
    Obs.Trace.reset ();
    Obs.Trace.set_enabled true;
    let gc = ref (0.0, 0.0, 0) in
    let wrap f =
      let g0 = Gc.quick_stat () in
      let v = span "bench.batch" f in
      let g1 = Gc.quick_stat () in
      let mw, pw, mc = !gc in
      gc :=
        ( mw +. g1.minor_words -. g0.minor_words,
          pw +. g1.promoted_words -. g0.promoted_words,
          mc + g1.major_collections - g0.major_collections );
      v
    in
    let counters0 =
      List.map counter [ "cq.wcoj_probes"; "cq.wcoj_intersections"; "cq.wcoj_gallop_steps" ]
    in
    batches_until parts store traced ~wrap (now () +. phase_s);
    let n = float_of_int (List.length traced.latencies) in
    let per_batch name = span_total name *. 1000.0 /. n in
    let communicate = per_batch "mpc.communicate"
    and merge = per_batch "mpc.merge"
    and compute = per_batch "mpc.compute"
    and snapshot = per_batch "job.checkpoint"
    and batch_ms = per_batch "bench.batch" in
    metric res "cluster.communicate_ms" "ms" communicate;
    metric res "cluster.merge_ms" "ms" merge;
    metric res "cluster.compute_ms" "ms" compute;
    metric res "codec.snapshot_ms" "ms" snapshot;
    metric res "mpc.rounds" "count" (float_of_int (sum Mpc.Stats.rounds stats));
    metric res "kst.heavy_configs" "count" (float_of_int traced.heavy);
    List.iter2
      (fun (name, cname) c0 ->
        metric res name "count" (float_of_int (counter cname - c0) /. n))
      [ ("wcoj.probes", "cq.wcoj_probes");
        ("wcoj.intersections", "cq.wcoj_intersections");
        ("wcoj.gallop_steps", "cq.wcoj_gallop_steps") ]
      counters0;
    let mw, pw, mc = !gc in
    metric res "gc.minor_words" "words" (mw /. n);
    metric res "gc.promoted_words" "words" (pw /. n);
    metric res "gc.major_collections" "count" (float_of_int mc /. n);
    let jobs = traced.last in
    let checkpoints = sum (fun (_, (j : Jobs.Supervisor.t)) -> j.checkpoints) jobs in
    metric res "store.checkpoints" "count" (float_of_int checkpoints);
    metric res "store.bytes" "B"
      (float_of_int (sum (fun (_, (j : Jobs.Supervisor.t)) -> j.checkpoint_bytes) jobs));
    (* Each job's real last payload, saved and loaded again in the same
       directory under another job name. A batch's save time is
       estimated as each job's checkpoints times its own save time. *)
    let replay (part, (job : Jobs.Supervisor.t)) =
      let round, payload = Option.get (Jobs.Store.load store ~job:part.name) in
      let name = part.name ^ ".replay" in
      let save =
        span "bench.replay.store_save" (fun () ->
            timed_median (fun () -> Jobs.Store.save store ~job:name ~round payload))
      in
      let load =
        span "bench.replay.store_load" (fun () ->
            timed_median (fun () -> Jobs.Store.load store ~job:name))
      in
      (float_of_int job.checkpoints *. save, load)
    in
    let replays = List.map replay jobs in
    let save_total = sumf fst replays in
    metric res "store.save_ms" "ms" (1000.0 *. save_total /. float_of_int checkpoints);
    metric res "store.load_ms" "ms"
      (1000.0 *. sumf snd replays /. float_of_int (List.length replays));
    metric res "job.self_ms" "ms"
      (batch_ms -. communicate -. merge -. compute -. snapshot -. (1000.0 *. save_total));
    metric res "obs.overhead_pct.p50" "%"
      (100.0 *. ((median traced.latencies /. median tally.latencies) -. 1.0));
    metric res "obs.overhead_pct.throughput" "%"
      (100.0 *. (1.0 -. (rate traced /. rate tally)));
    diag res "traced.latency_ms.p50" (Printf.sprintf "%.4f" (median traced.latencies));
    diag res "untraced.latency_ms.p50" (Printf.sprintf "%.4f" (median tally.latencies));
    diag res "traced.batches" (Printf.sprintf "%.0f" n);
    Obs.Trace.set_enabled false;
    Obs.Export.write_chrome trace_file;
    diag res "trace_file" trace_file
  end;
  diag res "host.steal_pct" (Printf.sprintf "%.2f" (steal_pct steal0 (cpu_jiffies ())))
