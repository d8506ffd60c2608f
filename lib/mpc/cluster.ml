open Lamp_relational
module Executor = Lamp_runtime.Executor
module Trace = Lamp_obs.Trace
module Sketch = Lamp_obs.Sketch
module Plan = Lamp_faults.Plan

type t = {
  p : int;
  executor : Executor.t;
  faults : Plan.t;
  mutable locals : Instance.t array;
  mutable round_stats : Stats.round_stats list;
  mutable recoveries : Stats.recovery list;
  initial_max : int;
  initial_total : int; (* m of the paper's bounds, for per-round ε *)
}

type round = {
  communicate : int -> Instance.t -> (int * Fact.t) list;
  compute : int -> received:Instance.t -> previous:Instance.t -> Instance.t;
}

let check_p p = if p < 1 then invalid_arg "Cluster: p must be >= 1"

(* Backup copies that outran a straggler, across every round run. *)
let speculation_counter = Trace.counter "runtime.speculations"

(* Round-robin partitioning: every server receives ⌈m/p⌉ or ⌊m/p⌋ facts,
   the model's "1/p-th of the data" assumption. *)
let create ?(executor = Executor.sequential) ?(faults = Plan.none) ~p instance =
  check_p p;
  let dealt = Array.make p [] in
  List.iteri (fun k f -> dealt.(k mod p) <- f :: dealt.(k mod p)) (Instance.facts instance);
  let locals = Array.map Instance.of_facts dealt in
  let sum f =
    Array.fold_left (fun acc i -> f acc (Instance.cardinal i)) 0 locals
  in
  {
    p;
    executor;
    faults;
    locals;
    round_stats = [];
    recoveries = [];
    initial_max = sum max;
    initial_total = sum ( + );
  }

let p t = t.p
let locals t = Array.copy t.locals
let local t i = t.locals.(i)

let union_all t =
  Array.fold_left Instance.union Instance.empty t.locals

(* ------------------------------------------------------------------ *)
(* Trace emission (all read-only on the round's data; nothing below
   may touch [locals], [received] contents or [round_stats])           *)

let load_hist = Trace.histogram "mpc.load"

(* Top-k most frequent values across the round's deliveries: the
   concrete join keys a skewed round hammers. *)
let heavy_keys ~k received =
  let counts : (Value.t, int ref) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun inst ->
      Instance.iter
        (fun f ->
          Array.iter
            (fun v ->
              match Hashtbl.find_opt counts v with
              | Some r -> incr r
              | None -> Hashtbl.add counts v (ref 1))
            (Fact.args f))
        inst)
    received;
  let all = Hashtbl.fold (fun v r acc -> (v, !r) :: acc) counts [] in
  let sorted =
    List.sort
      (fun (v1, c1) (v2, c2) ->
        match compare c2 c1 with 0 -> Value.compare v1 v2 | c -> c)
      all
  in
  List.filteri (fun i _ -> i < k) sorted

(* Per-round, per-server delivery events plus round-level aggregates:
   the fact-granular record behind the §3 load claims — who shipped
   what to whom, and which keys made a server heavy. *)
let emit_round_trace t ~round_no ~sent ~shipped ~received ~max_received
    ~total_received =
  for i = 0 to t.p - 1 do
    let recv = Instance.cardinal received.(i) in
    Trace.observe load_hist recv;
    Trace.instant ~cat:"mpc"
      ~args:
        [
          ("round", Trace.Int round_no);
          ("server", Trace.Int i);
          ("sent", Trace.Int sent.(i));
          ("shipped", Trace.Int shipped.(i));
          ("received", Trace.Int recv);
        ]
      "mpc.server"
  done;
  let m = t.initial_total in
  Trace.sample ~cat:"mpc" "mpc.max_load" (float_of_int max_received);
  Trace.sample ~cat:"mpc" "mpc.total_received" (float_of_int total_received);
  if m > 0 then begin
    Trace.sample ~cat:"mpc" "mpc.replication_rate"
      (float_of_int total_received /. float_of_int m);
    if max_received > 0 && t.p > 1 then
      Trace.sample ~cat:"mpc" "mpc.epsilon"
        (1.0
        -. log (float_of_int m /. float_of_int max_received)
           /. log (float_of_int t.p))
  end;
  match heavy_keys ~k:5 received with
  | [] -> ()
  | keys ->
    Trace.instant ~cat:"mpc"
      ~args:
        (("round", Trace.Int round_no)
        :: List.concat
             (List.mapi
                (fun i (v, c) ->
                  [
                    (Printf.sprintf "key%d" i, Trace.Str (Value.to_string v));
                    (Printf.sprintf "count%d" i, Trace.Int c);
                  ])
                keys))
      "mpc.heavy_keys"

(* One-pass sketch statistics over the round's deliveries: Count-Min
   degree estimates and SpaceSaving heavy hitters over the interned id
   of every join-key value, plus per-relation delivery counts and a
   reservoir of sampled keys. Runs on the coordinating thread after the
   merge (deterministic iteration order, so identical on both
   backends), reads only what the round produced, and is gated on
   {!Sketch.is_enabled} — one atomic load when off. The resulting
   {!Sketch.report} is what the future online re-planner (ROADMAP
   "adaptive skew handling") consumes; today it feeds the metrics
   scrape and [lamp top]. *)
let sketch_round t ~round_no ~received ~max_received ~total_received =
  let cm = Sketch.Cm.create ~epsilon:0.005 ~delta:0.01 () in
  let topk = Sketch.Topk.create ~capacity:64 () in
  let sample = Sketch.Reservoir.create ~capacity:256 () in
  let rels : (string, int ref) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun inst ->
      Instance.iter
        (fun f ->
          (match Hashtbl.find_opt rels (Fact.rel f) with
          | Some r -> incr r
          | None -> Hashtbl.add rels (Fact.rel f) (ref 1));
          Array.iter
            (fun v ->
              let id = Intern.id v in
              Sketch.Cm.add cm id;
              Sketch.Topk.offer topk id;
              Sketch.Reservoir.offer sample id)
            (Fact.args f))
        inst)
    received;
  let m = t.initial_total in
  let threshold = Skew.default_threshold ~m ~p:t.p in
  (* Report CM estimates for the ids SpaceSaving surfaced — the
     classic pairing: SpaceSaving guarantees the heavy ids are present,
     CM bounds the counts (truth <= estimate <= truth + eps*total). *)
  let top =
    List.map
      (fun (id, _ss_count, _err) ->
        (Value.to_string (Intern.value id), Sketch.Cm.estimate cm id))
      (Sketch.Topk.top topk 5)
  in
  let est_top = List.fold_left (fun acc (_, c) -> max acc c) 0 top in
  let per_server =
    if t.p = 0 then 0 else (total_received + t.p - 1) / t.p
  in
  Sketch.record
    {
      Sketch.label = Sketch.context ();
      round = round_no;
      p = t.p;
      m;
      threshold;
      top;
      rels =
        Hashtbl.fold (fun rel r acc -> (rel, !r) :: acc) rels []
        |> List.sort compare;
      est_max_load = max per_server est_top;
      max_received;
      total_received;
      error_bound = Sketch.Cm.error_bound cm;
    }

(* ------------------------------------------------------------------ *)

let bad_destination ~p ~src ~dst fact =
  Invalid_argument
    (Fmt.str
       "Cluster.run_round: server %d sent %a to destination %d, out of range \
        for p = %d"
       src Fact.pp fact dst p)

(* One round = three executor phases, each deterministic per index:

   1. communicate — one task per source server; messages land in the
      executing worker's private outbox (one bucket per destination),
      so no lock is shared across sources. Destination ranges are
      validated here, per source, and the error is deferred so the
      offending source reported is always the smallest one, whatever
      worker raced ahead.
   2. merge — one task per destination server; bucket w of every
      worker outbox is appended into the destination's inbox instance.
      Instances are persistent sets, so inbox contents — and with them
      [Stats.t] — are independent of which worker handled which source.
   3. compute — one task per server over its merged inbox.

   The sequential backend runs the same three phases inline, hence
   bit-identical statistics between backends. Tracing, when on, only
   reads what the phases produced — the invariant is that a traced run
   and an untraced one yield bit-identical [Stats.t] and locals; the
   round's wall clock and the executor's task and steal counts go to a
   [runtime] span.

   The cluster's fault plan may crash-stop servers for the round,
   drop/duplicate/delay/reorder messages, stall tasks and make them
   transiently fail. Recovery restores the fault-free outcome within
   the same round:

   - [checkpoint] snapshots every server's local at the round start
     (instances are persistent, so a shallow array copy suffices) —
     the durable state a replacement server restarts from.
   - A crashed server sends nothing in the main wave; the recovery wave
     replays its communicate phase from the checkpoint. Its inbox is
     redelivered to the replacement, and its compute runs from the
     checkpointed previous state.
   - Dropped and delayed messages are retransmitted in the recovery
     wave; duplicated copies are absorbed by the merge's set union.
   - Transient task faults raise {!Plan.Transient} at the top of the
     task body (before any mutation) and are absorbed by
     {!Executor.with_retry}; plans inject fewer failures than the
     retry budget, so tasks always eventually succeed.

   Every message of the fault-free run therefore reaches the final
   merged inbox at least once and nothing else does, so [received] — and with it
   [Stats.rounds], the computed locals and the final output — is
   bit-identical to the fault-free run. All repair traffic is accounted
   separately in [Stats.recoveries]. Fault decisions are pure functions
   of (seed, coordinates), so the pool backend draws exactly the same
   faults as the sequential one; under [Plan.none] every decision is a
   constant (no crash, every message delivered, no stall or failure)
   and the recovery wave is empty. *)
let run_round t round =
  let plan = t.faults in
  let tracing = Trace.is_enabled () in
  let round_no = List.length t.round_stats + 1 in
  let before = Executor.counters t.executor in
  let t0 = if tracing then Trace.now () else 0.0 in
  let nw = Executor.workers t.executor in
  let checkpoint = Array.copy t.locals in
  let crashed =
    Array.init t.p (fun s -> Plan.crashes plan ~round:round_no ~server:s)
  in
  let n_crashed =
    Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 crashed
  in
  if tracing then
    Array.iteri
      (fun s c ->
        if c then
          Trace.instant ~cat:"fault"
            ~args:[ ("round", Trace.Int round_no); ("server", Trace.Int s) ]
            "fault.crash")
      crashed;
  let outboxes =
    Array.init nw (fun _ -> Array.make t.p ([] : Fact.t list))
  in
  let bad_dest = Array.make t.p None in
  (* Per-source message casualties of the main wave, repaired below.
     Indexed by source, so concurrent communicate tasks never share a
     slot. *)
  let lost = Array.make t.p ([] : (int * Fact.t) list) in
  let dup_shipped = Array.make t.p 0 in
  let sent = if tracing then Array.make t.p 0 else [||] in
  let retry ~phase ~task body =
    Executor.with_retry ~max_attempts:Plan.max_attempts
      ~retryable:Plan.is_transient (fun ~attempt ->
        Plan.inject plan ~round:round_no ~phase ~task ~attempt;
        let v = Plan.straggler plan ~round:round_no ~phase ~task in
        if v.stall > 0.0 then begin
          if tracing then
            Trace.sample ~cat:"fault" "fault.straggle_delay_ms"
              (v.stall *. 1000.0);
          (* A backup copy of the (pure) body that outran its straggling
             primary is the same body run after the shorter wait. *)
          if v.backup then begin
            Trace.incr speculation_counter;
            if tracing then
              Trace.instant ~cat:"fault"
                ~args:
                  [
                    ("round", Trace.Int round_no);
                    ("phase", Trace.Str (Plan.phase_name phase));
                    ("task", Trace.Int task);
                    ("saved_ms", Trace.Float ((v.stall -. v.wait) *. 1000.0));
                  ]
                "fault.speculate"
          end;
          Unix.sleepf v.wait
        end;
        body ())
  in
  Trace.span ~cat:"mpc"
    ~args:[ ("round", Trace.Int round_no); ("p", Trace.Int t.p) ]
    "mpc.communicate" (fun () ->
      Executor.parallel_for t.executor ~n:t.p (fun ~worker src ->
          if not crashed.(src) then
            retry ~phase:Plan.Communicate ~task:src (fun () ->
                let buckets = outboxes.(worker) in
                let msgs =
                  Plan.permute plan ~round:round_no ~lane:src
                    (round.communicate src t.locals.(src))
                in
                if tracing then sent.(src) <- List.length msgs;
                let casualties = ref [] in
                let dups = ref 0 in
                List.iteri
                  (fun index (dst, fact) ->
                    if dst < 0 || dst >= t.p then begin
                      if bad_dest.(src) = None then
                        bad_dest.(src) <- Some (dst, fact)
                    end
                    else
                      match Plan.fate plan ~round:round_no ~src ~index with
                      | Plan.Deliver -> buckets.(dst) <- fact :: buckets.(dst)
                      | Plan.Duplicate ->
                        buckets.(dst) <- fact :: fact :: buckets.(dst);
                        incr dups
                      | Plan.Drop | Plan.Delay ->
                        casualties := (dst, fact) :: !casualties)
                  msgs;
                lost.(src) <- !casualties;
                dup_shipped.(src) <- !dups)));
  Array.iteri
    (fun src bad ->
      match bad with
      | Some (dst, fact) -> raise (bad_destination ~p:t.p ~src ~dst fact)
      | None -> ())
    bad_dest;
  (* Recovery wave, part 1: before the merge barrier completes, crashed
     servers' sends are replayed from their checkpoints and the main
     wave's dropped/delayed messages are retransmitted. Runs on the
     coordinating domain — repair is rare and determinism is free. *)
  let recovery_inbox = Array.make t.p ([] : Fact.t list) in
  let replayed = ref 0 in
  let retransmitted = ref 0 in
  Array.iteri
    (fun src is_crashed ->
      if is_crashed then begin
        let msgs = round.communicate src checkpoint.(src) in
        if tracing then sent.(src) <- List.length msgs;
        List.iter
          (fun (dst, fact) ->
            if dst < 0 || dst >= t.p then
              raise (bad_destination ~p:t.p ~src ~dst fact)
            else begin
              recovery_inbox.(dst) <- fact :: recovery_inbox.(dst);
              incr replayed
            end)
          msgs
      end)
    crashed;
  Array.iter
    (List.iter (fun (dst, fact) ->
         recovery_inbox.(dst) <- fact :: recovery_inbox.(dst);
         incr retransmitted))
    lost;
  let received =
    Trace.span ~cat:"mpc"
      ~args:[ ("round", Trace.Int round_no) ]
      "mpc.merge" (fun () ->
        Executor.map_array t.executor ~n:t.p (fun dst ->
            retry ~phase:Plan.Merge ~task:dst (fun () ->
                let facts = ref recovery_inbox.(dst) in
                for w = nw - 1 downto 0 do
                  facts := List.rev_append outboxes.(w).(dst) !facts
                done;
                Instance.of_facts !facts)))
  in
  (* Recovery wave, part 2: a crashed destination lost its inbox with
     it; the merged inbox is redelivered to the replacement server. *)
  Array.iteri
    (fun dst c -> if c then replayed := !replayed + Instance.cardinal received.(dst))
    crashed;
  let max_received =
    Array.fold_left (fun acc i -> max acc (Instance.cardinal i)) 0 received
  in
  let total_received =
    Array.fold_left (fun acc i -> acc + Instance.cardinal i) 0 received
  in
  t.round_stats <-
    { Stats.max_received; total_received } :: t.round_stats;
  if Sketch.is_enabled () then
    sketch_round t ~round_no ~received ~max_received ~total_received;
  let retries = ref 0 in
  (* Like retries, speculations are counted analytically from the
     same pure verdicts [retry] acts on: the compute phase (which may
     also speculate) has not run yet. *)
  let speculations = ref 0 in
  let speculates phase task =
    (Plan.straggler plan ~round:round_no ~phase ~task).backup
  in
  for s = 0 to t.p - 1 do
    let failures phase =
      Plan.transient_failures plan ~round:round_no ~phase ~task:s
    in
    if not crashed.(s) then begin
      retries := !retries + failures Plan.Communicate;
      if speculates Plan.Communicate s then incr speculations
    end;
    retries := !retries + failures Plan.Merge + failures Plan.Compute;
    if speculates Plan.Merge s then incr speculations;
    if speculates Plan.Compute s then incr speculations
  done;
  let duplicates = Array.fold_left ( + ) 0 dup_shipped in
  let speculations = !speculations in
  if
    n_crashed > 0 || !replayed > 0 || !retransmitted > 0 || duplicates > 0
    || !retries > 0 || speculations > 0
  then begin
    t.recoveries <-
      {
        Stats.round = round_no;
        crashed = n_crashed;
        replayed = !replayed;
        retransmitted = !retransmitted;
        duplicates;
        retries = !retries;
        speculated = speculations;
      }
      :: t.recoveries;
    Trace.instant ~cat:"fault"
      ~args:
        [
          ("round", Trace.Int round_no);
          ("crashed", Trace.Int n_crashed);
          ("replayed", Trace.Int !replayed);
          ("retransmitted", Trace.Int !retransmitted);
          ("duplicates", Trace.Int duplicates);
          ("retries", Trace.Int !retries);
          ("speculated", Trace.Int speculations);
        ]
      "mpc.recovery"
  end;
  if tracing then begin
    (* Messages shipped to each destination, duplicates included —
       [received] counts distinct facts after the inbox set union. *)
    let shipped = Array.make t.p 0 in
    Array.iter
      (fun buckets ->
        Array.iteri
          (fun dst msgs -> shipped.(dst) <- shipped.(dst) + List.length msgs)
          buckets)
      outboxes;
    Array.iteri
      (fun dst msgs -> shipped.(dst) <- shipped.(dst) + List.length msgs)
      recovery_inbox;
    emit_round_trace t ~round_no ~sent ~shipped ~received ~max_received
      ~total_received
  end;
  t.locals <-
    Trace.span ~cat:"mpc"
      ~args:[ ("round", Trace.Int round_no) ]
      "mpc.compute" (fun () ->
        Executor.map_array t.executor ~n:t.p (fun i ->
            retry ~phase:Plan.Compute ~task:i (fun () ->
                (* A crashed server's in-memory state died with it; the
                   replacement restarts from the checkpoint (equal to
                   the round-start local by construction). *)
                let previous =
                  if crashed.(i) then checkpoint.(i) else t.locals.(i)
                in
                round.compute i ~received:received.(i) ~previous)));
  if tracing then begin
    let after = Executor.counters t.executor in
    Trace.emit_span ~cat:"runtime"
      ~args:
        [
          ("tasks", Trace.Int (after.tasks - before.tasks));
          ("steals", Trace.Int (after.steals - before.steals));
        ]
      ~name:(Fmt.str "round %d/p=%d" round_no t.p)
      ~t0 ~dur:(Trace.now () -. t0) ()
  end

let stats t =
  {
    Stats.p = t.p;
    initial_max = t.initial_max;
    rounds = List.rev t.round_stats;
    recoveries = List.rev t.recoveries;
  }

(* ------------------------------------------------------------------ *)
(* Job-level checkpointing: the whole cluster — topology, per-server
   locals and the statistics accumulated so far — serializes through
   the Jobs codec, so a resumed run stitches its Stats.t onto the
   checkpointed prefix and the final statistics are indistinguishable
   from an uninterrupted run's. *)

module Codec = Lamp_jobs.Codec

let snapshot t =
  let w = Codec.writer () in
  Codec.w_int w t.p;
  Codec.w_int w t.initial_max;
  Codec.w_int w t.initial_total;
  Codec.w_array w Codec.w_instance t.locals;
  Codec.w_list w Stats.w_round_stats t.round_stats;
  Codec.w_list w Stats.w_recovery t.recoveries;
  Codec.contents w

let restore ?(executor = Executor.sequential) ?(faults = Plan.none) raw =
  let r = Codec.reader raw in
  let p = Codec.r_int r in
  check_p p;
  let initial_max = Codec.r_int r in
  let initial_total = Codec.r_int r in
  let locals = Codec.r_array r Codec.r_instance in
  if Array.length locals <> p then
    raise (Codec.Corrupt "Cluster.restore: locals/p mismatch");
  let round_stats = Codec.r_list r Stats.r_round_stats in
  let recoveries = Codec.r_list r Stats.r_recovery in
  Codec.r_end r;
  {
    p;
    executor;
    faults;
    locals;
    round_stats;
    recoveries;
    initial_max;
    initial_total;
  }

(* Survivor rebalancing after a permanent crash-stop of server [dead]:
   the survivors keep their locals (servers above [dead] shift down one
   slot) and the dead server's checkpointed local is rehashed onto them
   by [Fact.hash]. Only correct when every remaining round rehashes
   from scratch — coordination-free in the CALM sense. *)
let shrink t ~dead =
  let p' = t.p - 1 in
  let survivors =
    Array.init p' (fun i -> if i < dead then t.locals.(i) else t.locals.(i + 1))
  in
  let orphans = Array.make p' [] in
  Instance.iter
    (fun f ->
      let d = Fact.hash f mod p' in
      orphans.(d) <- f :: orphans.(d))
    t.locals.(dead);
  Array.iteri
    (fun i fs ->
      if fs <> [] then
        survivors.(i) <- Instance.union survivors.(i) (Instance.of_facts fs))
    orphans;
  { t with p = p'; locals = survivors }

(* The one job driver. [plan] is called once per topology, and every
   step runs the rounds planned for the cluster's current p, so after a
   rebalance the job runs the survivors' rounds. Without a job the
   steps run inline; with one, the fingerprint is the name and the
   fault plan (a resume under another plan raises), and the plan's kill
   and perma entries are merged into the control block. *)
let run_job ?executor ?(faults = Plan.none) ?job ~name ~on_crash ~p instance
    plan =
  let module Supervisor = Lamp_jobs.Supervisor in
  let plans = Hashtbl.create 2 in
  let plan_for p =
    match Hashtbl.find_opt plans p with
    | Some planned -> planned
    | None ->
      let planned = plan ~p in
      Hashtbl.add plans p planned;
      planned
  in
  let cluster = ref (create ?executor ~faults ~p instance) in
  let step k =
    let rounds, _ = plan_for !cluster.p in
    let n = Array.length rounds in
    if k >= n then `Done
    else begin
      run_round !cluster rounds.(k);
      if k = n - 1 then `Done else `Continue
    end
  in
  (* A permanent crash-stop before [round]: shrink onto the survivors
     and continue, or restart from round 0 on a fresh p−1 cluster when
     the rounds rendezvous on a p-dependent placement. Either way the
     dead server's facts are charged as replay traffic. *)
  let rebalance ~round ~dead =
    let c = !cluster in
    let survivors, outcome =
      match on_crash with
      | `Shrink -> (shrink c ~dead, `Continue)
      | `Restart -> (create ?executor ~faults ~p:(c.p - 1) instance, `Restart)
    in
    survivors.recoveries <-
      {
        Stats.round;
        crashed = 1;
        replayed = Instance.cardinal c.locals.(dead);
        retransmitted = 0;
        duplicates = 0;
        retries = 0;
        speculated = 0;
      }
      :: survivors.recoveries;
    cluster := survivors;
    outcome
  in
  let script =
    {
      Supervisor.step;
      snapshot = (fun () -> snapshot !cluster);
      restore = (fun ~round:_ raw -> cluster := restore ?executor ~faults raw);
      rebalance;
    }
  in
  (* The one perma= entry fires on the cluster created here, so its
     server is checked against this p before any round runs. *)
  (match (Plan.spec faults).perma with
  | Some _ when p = 1 ->
    invalid_arg (Fmt.str "%s: perma= on p = 1 leaves no survivor" name)
  | Some (_, dead) when dead >= p ->
    invalid_arg (Fmt.str "%s: perma= server %d is outside [0, %d)" name dead p)
  | _ -> ());
  (match job with
  | None ->
    if Plan.kill_after faults <> None || (Plan.spec faults).perma <> None then
      invalid_arg
        (Fmt.str "%s: kill= and perma= in the fault plan need a job \
                  (--checkpoint=DIR)" name);
    Supervisor.run_inline script
  | Some (ctl : Supervisor.t) ->
    ctl.fingerprint <- Fmt.str "%s@%a" name Plan.pp faults;
    if ctl.kill_after_round = None then
      ctl.kill_after_round <- Plan.kill_after faults;
    Supervisor.run ctl
      ~perma:(fun ~round -> Plan.perma_crash faults ~round)
      script);
  (!cluster, snd (plan_for !cluster.p))

(* Common communication phases. *)

let route_by f = fun _src local ->
  Instance.fold
    (fun fact acc ->
      List.fold_left (fun acc dst -> (dst, fact) :: acc) acc (f fact))
    local []

(* Common computation phases. *)

let keep_received = fun _ ~received ~previous:_ -> received

let eval_query ?strategy q =
 fun _ ~received ~previous:_ -> Lamp_cq.Eval.eval ?strategy q received
