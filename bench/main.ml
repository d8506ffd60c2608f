(* Benchmark and reproduction harness.

   One experiment per figure / quantitative claim of the paper (see
   DESIGN.md's per-experiment index and EXPERIMENTS.md for recorded
   results):

     dune exec bench/main.exe                 run every experiment
     dune exec bench/main.exe -- fig1 e3      run selected experiments
     dune exec bench/main.exe -- --timings    trace engine rounds per
                                              experiment, then run
                                              Bechamel timings

   The MPC simulator's execution backend is selectable:

     --backend=seq|pool    sequential (default) or the lamp.runtime
                           domain pool — load statistics are identical
                           either way, only wall-clock changes
     --domains=N           pool size (default: recommended domain count)

   Fault injection (e13):

     --fault-seed=N        seed for e13's deterministic fault plans
     --faults=SPEC         the chaos-row plan of e13 (lamp.faults spec,
                           e.g. crash=0.1,drop=0.05,reorder; default
                           "chaos")

   Experiments print the rows/series the paper's claims are about;
   absolute constants differ from the authors' testbeds (the substrate
   here is a simulator) but the shapes — who wins, by what exponent,
   where crossovers fall — are the reproduction target. *)

open Lamp
module Oracle = Lamp_oracle

let line fmt = Fmt.pr (fmt ^^ "@.")
let section title = line "@.=== %s ===" title

(* Execution backend for the MPC simulator, set from the command line
   before any experiment runs. *)
let executor = ref Runtime.Executor.sequential
let exec () = !executor

(* Short size caps for CI smoke runs (--smoke). *)
let smoke = ref false

(* Machine-readable results (--json=FILE): the driver records every
   experiment's wall clock; experiments register named numbers with
   [metric] — loads, timings, speedups — so the perf trajectory across
   PRs is a diffable file, not a terminal scrollback. *)
let current_exp = ref ""
let recorded : (string * (string * float) list ref) list ref = ref []

let metric key value =
  match List.assoc_opt !current_exp !recorded with
  | Some cell -> cell := (key, value) :: !cell
  | None -> ()

(* Every recorded per-p load comes with the model's two derived
   quantities, so the JSON results file carries the paper's axes
   directly: ε (load exponent) and the replication rate. *)
let metric_stats prefix ~m stats =
  metric (prefix ^ "_max_load") (float_of_int (Mpc.Stats.max_load stats));
  metric (prefix ^ "_epsilon") (Mpc.Stats.epsilon ~m stats);
  metric (prefix ^ "_replication_rate") (Mpc.Stats.replication_rate ~m stats)

(* Latency-style summaries: the three tail quantiles every serving
   benchmark reports, estimated from a lamp.obs power-of-two histogram
   (within a factor of 2 — the bucket width). e15 uses this for its
   request latencies; e12–e14 can tag any histogram the same way. *)
let metric_percentiles prefix (s : Obs.Trace.histogram_snapshot) =
  metric (prefix ^ "_p50") (Obs.Trace.percentile s 0.50);
  metric (prefix ^ "_p95") (Obs.Trace.percentile s 0.95);
  metric (prefix ^ "_p99") (Obs.Trace.percentile s 0.99);
  metric (prefix ^ "_count") (float_of_int s.count);
  metric (prefix ^ "_max") (float_of_int s.max_value)

let write_json path =
  Obs.Export.write_metrics_json path
    ~meta:
      [
        ("backend", Obs.Export.Mstr (Runtime.Executor.backend_name (exec ())));
        ("workers", Obs.Export.Mint (Runtime.Executor.workers (exec ())));
        ("smoke", Obs.Export.Mbool !smoke);
      ]
    ~groups:
      (List.rev !recorded |> List.map (fun (name, cell) -> (name, List.rev !cell)));
  line "wrote %s" path

let check label ok =
  line "  %-62s %s" label (if ok then "MATCH" else "MISMATCH")

(* [f ()] and its wall clock in milliseconds. *)
let time_ms f =
  let t0 = Obs.Trace.now () in
  let r = f () in
  (r, 1000.0 *. (Obs.Trace.now () -. t0))

(* The first run's result and the median wall clock of [reps] runs, in
   milliseconds; one untimed warm-up first so page faults and GC growth
   don't land on whichever variant happens to run first. *)
let timed_median ~reps f =
  ignore (f ());
  let runs = List.init reps (fun _ -> time_ms f) in
  let ts = List.sort compare (List.map snd runs) in
  (fst (List.hd runs), List.nth ts (reps / 2))

(* ------------------------------------------------------------------ *)
(* FIG1: transfer vs containment lattices (Figure 1)                   *)

let fig1 () =
  section "FIG1: parallel-correctness transfer vs containment (Figure 1)";
  let names = [ "Q1"; "Q2"; "Q3"; "Q4" ] in
  let qs =
    [
      Cq.Examples.q1_example_4_11;
      Cq.Examples.q2_example_4_11;
      Cq.Examples.q3_example_4_11;
      Cq.Examples.q4_example_4_11;
    ]
  in
  List.iter2 (fun n q -> line "  %s: %a" n Cq.Ast.pp q) names qs;
  let transfer = Correctness.Transfer.transfer_matrix qs in
  let containment =
    List.map (fun q -> List.map (Cq.Containment.contained q) qs) qs
  in
  let print_matrix title m =
    line "  %s (row -> column):" title;
    line "       %s" (String.concat "   " names);
    List.iteri
      (fun i row ->
        line "   %s %s" (List.nth names i)
          (String.concat " "
             (List.map (fun b -> if b then " yes" else "  . ") row)))
      m
  in
  print_matrix "pc-transfer" transfer;
  print_matrix "containment" containment;
  let expected_transfer =
    [
      [ true; true; false; false ];
      [ false; true; false; false ];
      [ true; true; true; true ];
      [ false; true; false; true ];
    ]
  in
  let expected_containment =
    [
      [ true; true; true; true ];
      [ false; true; false; true ];
      [ false; false; true; true ];
      [ false; false; false; true ];
    ]
  in
  check "transfer matrix matches Figure 1(a)" (transfer = expected_transfer);
  check "containment matrix matches Figure 1(b)"
    (containment = expected_containment);
  check "orthogonal: Q3 pc-> Q2 holds, containment Q3 <= Q2 fails"
    (Correctness.Transfer.transfers Cq.Examples.q3_example_4_11
       Cq.Examples.q2_example_4_11
    && not
         (Cq.Containment.contained Cq.Examples.q3_example_4_11
            Cq.Examples.q2_example_4_11));
  check "orthogonal: Q1 <= Q4 holds, transfer Q1 -> Q4 fails"
    (Cq.Containment.contained Cq.Examples.q1_example_4_11
       Cq.Examples.q4_example_4_11
    && not
         (Correctness.Transfer.transfers Cq.Examples.q1_example_4_11
            Cq.Examples.q4_example_4_11))

(* ------------------------------------------------------------------ *)
(* FIG2: Datalog fragments, monotonicity classes, transducer classes   *)

let fig2 () =
  section "FIG2: CALM correspondences (Figure 2)";
  let rng = Random.State.make [| 2016 |] in
  let e_pairs =
    Datalog.Classify.random_pairs ~rng
      ~schema:(Relational.Schema.of_list [ ("E", 2) ])
      ~count:80 ~size:6 ~domain:4
    @ [
        ( Relational.Instance.of_string "E(1,2). E(2,3)",
          Relational.Instance.of_string "E(3,1)" );
        ( Relational.Instance.of_string "E(a,a). E(b,b)",
          Relational.Instance.of_string "E(a,c). E(c,b)" );
        ( Relational.Instance.of_string "E(a,a). E(b,b)",
          Relational.Instance.of_string "E(c,d). E(d,e). E(e,c)" );
      ]
  in
  let move_pairs =
    Datalog.Classify.random_pairs ~rng
      ~schema:(Relational.Schema.of_list [ ("Move", 2) ])
      ~count:80 ~size:6 ~domain:4
  in
  let p = 3 in
  let everyone _ = Distribution.Node.Set.of_list (Distribution.Node.range p) in
  let graph =
    Relational.Instance.of_string "E(1,2). E(2,3). E(3,1). E(3,4). E(4,5). E(5,3)"
  in
  (* Policy-aware runs must pair each policy with distributions
     respecting it ("responsible but absent locally" must mean "absent
     from the global instance"), so each row supplies its own
     consistency runs and its own ideal (silent) run. *)
  let run_class ~consistency ~ideal ~expected =
    List.for_all
      (fun (make, dists) ->
        Result.is_ok (Transducer.Calm.consistent ~make ~expected dists))
      consistency
    &&
    let make, dist = ideal in
    Result.is_ok (Transducer.Calm.coordination_free ~make ~expected dist)
  in
  let bc_policy universe =
    Distribution.Policy.broadcast_all ~universe ~name:"bc" ~p ()
  in
  let fact_policy universe =
    Distribution.Policy.make ~universe ~name:"hash-facts"
      ~nodes:(Distribution.Node.range p)
      (fun n f -> Relational.Fact.hash f mod p = n)
  in
  let hash_assignment v =
    Distribution.Node.Set.singleton (Relational.Value.hash v mod p)
  in
  let dg_policy universe =
    Distribution.Policy.domain_guided ~universe ~name:"dg"
      ~nodes:(Distribution.Node.range p) hash_assignment
  in
  let two_comp = Relational.Instance.of_string "E(a,b). E(b,c). E(x,y). E(y,x)" in
  let game =
    Relational.Instance.of_string "Move(a,b). Move(b,a). Move(b,c). Move(x,y)"
  in
  let rows =
    [
      (let q =
         Datalog.Classify.of_cq ~name:"triangles" Cq.Examples.triangles_distinct
       in
       let program =
         Transducer.Programs.monotone_broadcast ~name:"t"
           ~eval:q.Datalog.Classify.eval
       in
       let make d = Transducer.Network.create program d in
       ( q,
         "Datalog(≠)",
         "F0",
         Some
           (run_class
              ~consistency:
                [
                  ( make,
                    [
                      Transducer.Horizontal.round_robin ~p graph;
                      Transducer.Horizontal.full_replication ~p graph;
                    ] );
                ]
              ~ideal:(make, Transducer.Horizontal.full_replication ~p graph)
              ~expected:(q.Datalog.Classify.eval graph)),
         e_pairs ));
      (let q =
         Datalog.Classify.of_cq ~name:"open triangle" Cq.Examples.open_triangle
       in
       let program = Transducer.Programs.open_triangle_policy_aware ~name:"ot" in
       let universe = Relational.Instance.adom graph in
       let fp = fact_policy universe in
       ( q,
         "SP-Datalog",
         "F1",
         Some
           (run_class
              ~consistency:
                [
                  ( (fun d -> Transducer.Network.create ~policy:fp program d),
                    [ Transducer.Horizontal.by_policy fp graph ] );
                ]
              ~ideal:
                ( (fun d ->
                    Transducer.Network.create ~policy:(bc_policy universe)
                      program d),
                  Transducer.Horizontal.full_replication ~p graph )
              ~expected:(q.Datalog.Classify.eval graph)),
         e_pairs ));
      (let q =
         Datalog.Classify.of_program ~name:"¬TC" ~output:"OUT"
           Datalog.Canned.complement_tc
       in
       let program =
         Transducer.Programs.domain_guided_disjoint ~name:"ctc"
           ~eval:q.Datalog.Classify.eval
       in
       let universe = Relational.Instance.adom two_comp in
       ( q,
         "semicon-Datalog",
         "F2",
         Some
           (run_class
              ~consistency:
                [
                  ( (fun d ->
                      Transducer.Network.create ~assignment:hash_assignment
                        program d),
                    [ Transducer.Horizontal.by_policy (dg_policy universe) two_comp ]
                  );
                ]
              ~ideal:
                ( (fun d ->
                    Transducer.Network.create ~assignment:everyone program d),
                  Transducer.Horizontal.full_replication ~p two_comp )
              ~expected:(q.Datalog.Classify.eval two_comp)),
         e_pairs ));
      (let q =
         Datalog.Classify.of_wellfounded ~name:"win-move" ~output:"Win"
           Datalog.Canned.win_move
       in
       let program =
         Transducer.Programs.domain_guided_disjoint ~name:"wm"
           ~eval:q.Datalog.Classify.eval
       in
       let universe = Relational.Instance.adom game in
       ( q,
         "semicon-Datalog¬ (WFS)",
         "F2",
         Some
           (run_class
              ~consistency:
                [
                  ( (fun d ->
                      Transducer.Network.create ~assignment:hash_assignment
                        program d),
                    [ Transducer.Horizontal.by_policy (dg_policy universe) game ]
                  );
                ]
              ~ideal:
                ( (fun d ->
                    Transducer.Network.create ~assignment:everyone program d),
                  Transducer.Horizontal.full_replication ~p game )
              ~expected:(q.Datalog.Classify.eval game)),
         move_pairs ));
      (let q =
         Datalog.Classify.of_program ~name:"QNT" ~output:"OUT"
           Datalog.Canned.no_triangle
       in
       (q, "Datalog¬ (not semicon)", "—", None, e_pairs));
    ]
  in
  line "  %-16s %-24s %-24s %-6s %s" "query" "fragment" "monotonicity class"
    "class" "transducer run";
  List.iter
    (fun ((q : Datalog.Classify.query), fragment, cls, runs_ok, pairs) ->
      line "  %-16s %-24s %-24s %-6s %s" q.Datalog.Classify.name fragment
        (Datalog.Classify.class_name (Datalog.Classify.classify q ~pairs))
        cls
        (match runs_ok with
        | None -> "n/a"
        | Some true -> "consistent + coordination-free"
        | Some false -> "FAILED"))
    rows;
  check "syntactic: ¬TC is semi-connected stratified"
    (Datalog.Connectivity.is_semi_connected Datalog.Canned.complement_tc);
  check "syntactic: QNT is not semi-connected"
    (not (Datalog.Connectivity.is_semi_connected Datalog.Canned.no_triangle));
  check "syntactic: open triangle is semi-positive"
    (Datalog.Program.is_semi_positive
       (Datalog.Program.parse "OUT(x,y,z) <- E(x,y), E(y,z), !E(z,x)"));
  check "semantic: strict chain M < Mdistinct < Mdisjoint witnessed"
    (let cls q pairs =
       Datalog.Classify.class_name (Datalog.Classify.classify q ~pairs)
     in
     cls (Datalog.Classify.of_cq ~name:"t" Cq.Examples.triangles_distinct) e_pairs
     = "M"
     && cls (Datalog.Classify.of_cq ~name:"o" Cq.Examples.open_triangle) e_pairs
        = "Mdistinct \\ M"
     && cls
          (Datalog.Classify.of_program ~name:"c" ~output:"OUT"
             Datalog.Canned.complement_tc)
          e_pairs
        = "Mdisjoint \\ Mdistinct"
     && cls
          (Datalog.Classify.of_program ~name:"n" ~output:"OUT"
             Datalog.Canned.no_triangle)
          e_pairs
        = "not Mdisjoint");
  check "all transducer rows executed consistently + coordination-free"
    (List.for_all
       (fun (_, _, _, runs_ok, _) ->
         match runs_ok with None -> true | Some ok -> ok)
       rows);
  (* The wILOG column of Figure 2: value invention extends each fragment
     while preserving its monotonicity class — witnessed by a SP-wILOG
     program (fresh witness value per non-edge) landing in Mdistinct. *)
  let sp_wilog =
    Datalog.Invention.parse "W(n,x,y) <- ADom(x), ADom(y), !E(x,y)"
  in
  let wq =
    {
      Datalog.Classify.name = "SP-wILOG witness";
      eval = (fun i -> Datalog.Invention.query sp_wilog ~output:"W" i);
    }
  in
  check "SP-wILOG program (invention) classifies as Mdistinct \\ M"
    (Datalog.Classify.class_name (Datalog.Classify.classify wq ~pairs:e_pairs)
    = "Mdistinct \\ M");
  check "invention-free wILOG coincides with Datalog (TC)"
    (let text = "TC(x,y) <- E(x,y)\nTC(x,y) <- TC(x,z), TC(z,y)" in
     Relational.Instance.equal
       (Datalog.Eval.query (Datalog.Program.parse text) ~output:"TC" graph)
       (Datalog.Invention.query (Datalog.Invention.parse text) ~output:"TC"
          graph))

(* ------------------------------------------------------------------ *)
(* E1: repartition join loads (Example 3.1(1a))                        *)

let e1 () =
  section "E1: repartition join — load m/p without skew, m with (Ex. 3.1(1a))";
  let m = 8000 in
  line "  m = %d per relation (2m facts)" m;
  line "  %-6s %-12s %-12s %-8s %-12s" "p" "load(free)" "2m/p thry" "eps"
    "load(skew)";
  (* The same join as a MapReduce job on the MPC simulator must give the
     same output and Stats.t. Skew-free input only: on the skewed one
     the reducers would build the m² output. *)
  let mapreduce_same = ref true in
  List.iter
    (fun p ->
      let free = Mpc.Workload.join_skew_free ~m in
      let skew = Mpc.Workload.join_skewed ~m in
      let joined, s_free = Mpc.Repartition_join.run ~executor:(exec ()) ~p free in
      let mr_joined, mr_stats =
        Mapreduce.Job.run_mpc ~p [ Mapreduce.Jobs.repartition_join ] free
      in
      if not (Relational.Instance.equal joined mr_joined && s_free = mr_stats)
      then mapreduce_same := false;
      let _, s_skew = Mpc.Repartition_join.run ~materialize:false ~executor:(exec ()) ~p skew in
      metric
        (Printf.sprintf "load_free_p%d" p)
        (float_of_int (Mpc.Stats.max_load s_free));
      metric
        (Printf.sprintf "load_skew_p%d" p)
        (float_of_int (Mpc.Stats.max_load s_skew));
      metric_stats (Printf.sprintf "free_p%d" p) ~m:(2 * m) s_free;
      metric_stats (Printf.sprintf "skew_p%d" p) ~m:(2 * m) s_skew;
      line "  %-6d %-12d %-12d %-8.2f %-12d" p
        (Mpc.Stats.max_load s_free)
        (2 * m / p)
        (Mpc.Stats.epsilon ~m:(2 * m) s_free)
        (Mpc.Stats.max_load s_skew))
    [ 4; 8; 16; 32; 64 ];
  check "skew-free: MapReduce job = repartition join (output, stats)"
    !mapreduce_same;
  line "  shape: load(free) tracks 2m/p (eps ~ 0); load(skew) pins at 2m."

(* ------------------------------------------------------------------ *)
(* E2: grid join loads (Example 3.1(1b))                               *)

let e2 () =
  section "E2: grid join — load m/sqrt(p) independent of skew (Ex. 3.1(1b))";
  let m = 8000 in
  line "  m = %d per relation" m;
  line "  %-6s %-12s %-12s %-14s %-12s" "p" "load(free)" "load(skew)"
    "2m/sqrt(p)" "repl. rate";
  List.iter
    (fun p ->
      let free = Mpc.Workload.join_skew_free ~m in
      let skew = Mpc.Workload.join_skewed ~m in
      let _, s_free = Mpc.Grid_join.run ~materialize:false ~executor:(exec ()) ~p free in
      let _, s_skew = Mpc.Grid_join.run ~materialize:false ~executor:(exec ()) ~p skew in
      metric_stats (Printf.sprintf "free_p%d" p) ~m:(2 * m) s_free;
      metric_stats (Printf.sprintf "skew_p%d" p) ~m:(2 * m) s_skew;
      line "  %-6d %-12d %-12d %-14.0f %-12.1f" p
        (Mpc.Stats.max_load s_free)
        (Mpc.Stats.max_load s_skew)
        (2.0 *. float_of_int m /. sqrt (float_of_int p))
        (Mpc.Stats.replication_rate ~m:(2 * m) s_free))
    [ 4; 16; 64 ];
  line "  shape: identical loads with and without skew; replication ~ sqrt(p)."

(* ------------------------------------------------------------------ *)
(* E3: HyperCube triangle (Example 3.2) vs the two-round cascade       *)

let e3 () =
  section "E3: HyperCube triangle — load m/p^(2/3) skew-free (Ex. 3.2)";
  let m = 4000 in
  let rng = Random.State.make [| 3 |] in
  let free = Mpc.Workload.triangle_skew_free ~rng ~m ~domain:m in
  let total = Relational.Instance.cardinal free in
  line "  m = %d per relation (%d facts total)" m total;
  line "  %-6s %-18s %-12s %-14s %-8s" "p" "shares" "load(1rnd)"
    "M/p^(2/3) thry" "eps";
  List.iter
    (fun p ->
      let _, stats, shares =
        Mpc.Hypercube.run ~materialize:false ~executor:(exec ()) ~p Cq.Examples.q2_triangle free
      in
      metric
        (Printf.sprintf "load_p%d" p)
        (float_of_int (Mpc.Stats.max_load stats));
      metric_stats (Printf.sprintf "p%d" p) ~m:total stats;
      line "  %-6d %-18s %-12d %-14.0f %-8.2f" p
        (String.concat ","
           (List.map (fun (v, s) -> Printf.sprintf "%s=%d" v s) shares))
        (Mpc.Stats.max_load stats)
        (float_of_int total /. Float.pow (float_of_int p) (2.0 /. 3.0))
        (Mpc.Stats.epsilon ~m:total stats))
    [ 8; 27; 64 ];
  let p = 27 in
  let _, casc = Mpc.Multi_round.cascade_triangle ~executor:(exec ()) ~p free in
  let _, hc, _ =
    Mpc.Hypercube.run ~materialize:false ~executor:(exec ()) ~p Cq.Examples.q2_triangle free
  in
  line "  at p = %d: cascade (2 rounds) max load %d, total comm %d" p
    (Mpc.Stats.max_load casc)
    (Mpc.Stats.total_communication casc);
  line "            hypercube (1 round) max load %d, total comm %d"
    (Mpc.Stats.max_load hc)
    (Mpc.Stats.total_communication hc);
  line
    "  shape: one-round load tracks M/p^(2/3); the cascade trades a second\n\
    \  synchronization barrier against shipping the intermediate |R join S|."

(* ------------------------------------------------------------------ *)
(* E4: skew (Section 3.2)                                              *)

let e4 () =
  section "E4: skew — one round degrades, two rounds recover (Section 3.2)";
  let m = 4000 in
  let p = 27 in
  let rng = Random.State.make [| 4 |] in
  line "  triangle, m = %d per relation, p = %d, heavy join attribute y:" m p;
  line "  %-10s %-16s %-16s %-10s" "heavy frac" "1-round load" "2-round load"
    "#heavy";
  List.iter
    (fun fraction ->
      let skewed =
        Mpc.Workload.triangle_y_skew ~rng ~m ~domain:m ~heavy_fraction:fraction
      in
      let _, one_round, _ =
        Mpc.Hypercube.run ~materialize:false ~executor:(exec ()) ~p Cq.Examples.q2_triangle skewed
      in
      let _, two_round, heavy =
        Mpc.Multi_round.skew_resilient_triangle ~executor:(exec ()) ~p skewed
      in
      line "  %-10.1f %-16d %-16d %-10d" fraction
        (Mpc.Stats.max_load one_round)
        (Mpc.Stats.max_load two_round)
        heavy)
    [ 0.0; 0.2; 0.5; 0.8 ];
  let total = 3 * m in
  line "  theory: skew-free target M/p^(2/3) = %.0f; one-round skewed floor"
    (float_of_int total /. Float.pow (float_of_int p) (2.0 /. 3.0));
  line "  M/sqrt(p) = %.0f." (float_of_int total /. sqrt (float_of_int p));
  line "";
  line "  binary join under worst-case skew (the m/sqrt(p) floor holds for";
  line "  any number of rounds — Section 3.2):";
  let skewj = Mpc.Workload.join_skewed ~m in
  let _, rep = Mpc.Repartition_join.run ~materialize:false ~executor:(exec ()) ~p skewj in
  let _, grid = Mpc.Grid_join.run ~materialize:false ~executor:(exec ()) ~p skewj in
  line "  repartition: %d;  grid: %d;  2m/sqrt(p) = %.0f"
    (Mpc.Stats.max_load rep) (Mpc.Stats.max_load grid)
    (2.0 *. float_of_int m /. sqrt (float_of_int p))

(* ------------------------------------------------------------------ *)
(* E5: Shares trade-off (Afrati–Ullman vs BKS; [9], [27])              *)

let e5 () =
  section "E5: share allocation — replication vs per-server load ([9],[27])";
  let q = Cq.Examples.q2_triangle in
  let m = 4000 in
  let sizes _ = m in
  line "  triangle query, equal relation sizes m = %d:" m;
  line "  %-6s %-18s %-12s %-18s %-12s" "p" "shares(minload)" "pred.load"
    "shares(mincomm)" "pred.comm";
  List.iter
    (fun p ->
      let s_ml, v_ml =
        Mpc.Shares.optimize ~objective:Mpc.Shares.Max_load ~p ~sizes q
      in
      let s_tc, v_tc =
        Mpc.Shares.optimize ~objective:Mpc.Shares.Total_communication ~p ~sizes q
      in
      let show s =
        String.concat "," (List.map (fun (v, k) -> Printf.sprintf "%s=%d" v k) s)
      in
      line "  %-6d %-18s %-12.0f %-18s %-12.0f" p (show s_ml) v_ml (show s_tc)
        v_tc)
    [ 8; 16; 27; 64 ];
  line "";
  line "  asymmetric sizes (|R| = 1000·|S| = 1000·|T|): both objectives shield";
  line "  the large relation from replication (share 1 on the dimension that";
  line "  would copy it), concentrating the budget on R's own variables:";
  let asym (a : Cq.Ast.atom) = if a.Cq.Ast.rel = "R" then 100 * m else m / 10 in
  line "  %-6s %-18s %-12s %-18s %-12s" "p" "shares(minload)" "pred.load"
    "shares(mincomm)" "pred.comm";
  List.iter
    (fun p ->
      let s_ml, v_ml =
        Mpc.Shares.optimize ~objective:Mpc.Shares.Max_load ~p ~sizes:asym q
      in
      let s_tc, v_tc =
        Mpc.Shares.optimize ~objective:Mpc.Shares.Total_communication ~p
          ~sizes:asym q
      in
      let show s =
        String.concat "," (List.map (fun (v, k) -> Printf.sprintf "%s=%d" v k) s)
      in
      line "  %-6d %-18s %-12.0f %-18s %-12.0f" p (show s_ml) v_ml (show s_tc)
        v_tc)
    [ 16; 64 ];
  line "";
  line "  replication rate r vs reducer size (measured, one-round HyperCube):";
  let rng = Random.State.make [| 5 |] in
  let free = Mpc.Workload.triangle_skew_free ~rng ~m ~domain:m in
  let total = Relational.Instance.cardinal free in
  line "  %-6s %-14s %-16s" "p" "max load q" "replication r";
  List.iter
    (fun p ->
      let _, stats, _ =
        Mpc.Hypercube.run ~materialize:false ~executor:(exec ()) ~p Cq.Examples.q2_triangle free
      in
      line "  %-6d %-14d %-16.2f" p
        (Mpc.Stats.max_load stats)
        (Mpc.Stats.replication_rate ~m:total stats))
    [ 1; 8; 27; 64 ];
  line "  shape: r grows like p^(1/3) while the reducer size shrinks — the";
  line "  trade-off of Das Sarma et al. [27]."

(* ------------------------------------------------------------------ *)
(* E6: GYM / Yannakakis (Section 3.2, [6][58])                         *)

let e6 () =
  section "E6: GYM — rounds vs communication on acyclic queries ([6],[58])";
  let rng = Random.State.make [| 6 |] in
  let m = 3000 in
  let i =
    Mpc.Workload.acyclic_chain ~rng ~m ~domain:(m / 2)
      ~rels:[ "R1"; "R2"; "R3"; "R4" ]
  in
  let chain =
    Cq.Parser.query "H(x0,x4) <- R1(x0,x1), R2(x1,x2), R3(x2,x3), R4(x3,x4)"
  in
  let star = Cq.Parser.query "H(x) <- R1(x,a), R2(x,b), R3(x,c), R4(x,d)" in
  (* GYO happens to build a caterpillar for the star query; a flat tree
     (all atoms under R1) shows GYM's depth/rounds trade-off, the point
     of the tree-decomposition choice in [6]. *)
  let flat_star_forest =
    let leaf name v =
      {
        Cq.Hypergraph.atom = Cq.Ast.atom name [ Cq.Ast.Var "x"; Cq.Ast.Var v ];
        vars = Cq.Hypergraph.Sset.of_list [ "x"; v ];
        children = [];
      }
    in
    [
      {
        Cq.Hypergraph.atom = Cq.Ast.atom "R1" [ Cq.Ast.Var "x"; Cq.Ast.Var "a" ];
        vars = Cq.Hypergraph.Sset.of_list [ "x"; "a" ];
        children = [ leaf "R2" "b"; leaf "R3" "c"; leaf "R4" "d" ];
      };
    ]
  in
  line "  m = %d per relation, p = 16:" m;
  line "  %-26s %-8s %-12s %-12s %s" "plan" "rounds" "max load" "total comm"
    "|output|";
  List.iter
    (fun (name, q, forest) ->
      let result, stats =
        Mpc.Yannakakis.gym ?forest ~executor:(exec ()) ~p:16 q i
      in
      line "  %-26s %-8d %-12d %-12d %d" name
        (Mpc.Stats.rounds stats)
        (Mpc.Stats.max_load stats)
        (Mpc.Stats.total_communication stats)
        (Relational.Instance.cardinal result))
    [
      ("chain of 4 (deep tree)", chain, None);
      ("star of 4 (GYO caterpillar)", star, None);
      ("star of 4 (flat tree)", star, Some flat_star_forest);
    ];
  (* GYM on a *cyclic* query through a tree decomposition: bags are
     joined by HyperCube in round 1, Yannakakis finishes over the bag
     tree. *)
  let rng2 = Random.State.make [| 66 |] in
  let four_cycle =
    Cq.Parser.query "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)"
  in
  let cyc_input =
    List.fold_left
      (fun acc rel ->
        Relational.Instance.union acc
          (Relational.Generate.random_relation ~rng:rng2 ~rel ~arity:2
             ~size:(m / 2) ~domain:(m / 4) ()))
      Relational.Instance.empty [ "R"; "S"; "T"; "U" ]
  in
  let result, stats, width =
    Mpc.Gym_ghd.run ~executor:(exec ()) ~p:16 four_cycle cyc_input
  in
  line "";
  line "  cyclic 4-cycle query via GHD (min-fill, width %d bags):" width;
  line "  %-26s %-8d %-12d %-12d %d" "GYM over decomposition"
    (Mpc.Stats.rounds stats)
    (Mpc.Stats.max_load stats)
    (Mpc.Stats.total_communication stats)
    (Relational.Instance.cardinal result);
  let dangling =
    Relational.Instance.of_string
      "R1(1,2). R1(8,9). R2(2,3). R2(5,6). R3(3,4). R4(4,7)"
  in
  line "";
  line "  full reducer on a dangling-heavy instance:";
  List.iter
    (fun ((a : Cq.Ast.atom), before, after) ->
      line "    %-4s %d -> %d tuples" a.Cq.Ast.rel before after)
    (Mpc.Yannakakis.reduction_report chain dangling);
  line "  shape: deeper trees need more rounds; a flat tree runs its downward";
  line "  semi-joins in one round; reduction removes every dangling tuple."

(* ------------------------------------------------------------------ *)
(* E7: cost of the static analyses (Theorems 4.8 / 4.14)               *)

let e7 () =
  section "E7: static analysis cost growth (Pi^p_2 / Pi^p_3 behaviour)";
  let universe = [ Relational.Value.str "a"; Relational.Value.str "b" ] in
  let policy k =
    Distribution.Policy.make
      ~universe:(Relational.Value.set_of_list universe)
      ~name:"hash" ~nodes:[ 0; 1 ]
      (fun n f -> (Relational.Fact.hash f + k) mod 2 = n)
  in
  let chain k =
    let body =
      List.init k (fun j -> Printf.sprintf "R%d(x%d,x%d)" j j (j + 1))
    in
    Cq.Parser.query
      (Printf.sprintf "H(x0,x%d) <- %s" k (String.concat ", " body))
  in
  line "  PC decision (minimal-valuation enumeration over |U| = 2):";
  line "  %-10s %-14s %-14s" "atoms" "time (ms)" "verdict";
  List.iter
    (fun k ->
      let q = chain k in
      let t0 = Sys.time () in
      let verdict = Correctness.Parallel_correctness.decide q (policy k) in
      let dt = (Sys.time () -. t0) *. 1000.0 in
      line "  %-10d %-14.2f %-14s" k dt
        (match verdict with Ok () -> "correct" | Error _ -> "violated"))
    [ 1; 2; 3; 4; 5; 6 ];
  line "  transfer decision (Pi^p_3: one more quantifier alternation):";
  line "  %-10s %-14s %-14s" "atoms" "time (ms)" "transfers";
  List.iter
    (fun k ->
      let q = chain k and q' = chain k in
      let t0 = Sys.time () in
      let r = Correctness.Transfer.transfers q q' in
      let dt = (Sys.time () -. t0) *. 1000.0 in
      line "  %-10d %-14.2f %-14b" k dt r)
    [ 1; 2; 3 ];
  line "  shape: exponential in the number of variables — the completeness";
  line "  levels bite — while remaining practical as static analysis."

(* ------------------------------------------------------------------ *)
(* E8: eventual consistency and coordination-freeness (Section 5)      *)

let e8 () =
  section "E8: transducer networks — consistency across runs (Section 5)";
  let graph =
    Relational.Instance.of_string
      "E(1,2). E(2,3). E(3,1). E(3,4). E(4,5). E(5,3). E(1,4)"
  in
  let p = 3 in
  let distributions =
    [
      Transducer.Horizontal.round_robin ~p graph;
      Transducer.Horizontal.full_replication ~p graph;
      Transducer.Horizontal.random_split ~rng:(Random.State.make [| 8 |]) ~p graph;
    ]
  in
  let triangles = Cq.Eval.eval Cq.Examples.triangles_distinct in
  let open_triangles = Cq.Eval.eval Cq.Examples.open_triangle in
  let fact_policy =
    Distribution.Policy.make
      ~universe:(Relational.Instance.adom graph)
      ~name:"hash-facts" ~nodes:(Distribution.Node.range p)
      (fun n f -> Relational.Fact.hash f mod p = n)
  in
  let bc_policy =
    Distribution.Policy.broadcast_all
      ~universe:(Relational.Instance.adom graph) ~name:"bc" ~p ()
  in
  line "  %-34s %-12s %s" "program" "consistent" "coordination-free";
  let row name make ideal_make expected dists =
    let consistent =
      Result.is_ok (Transducer.Calm.consistent ~make ~expected dists)
    in
    let free =
      Result.is_ok
        (Transducer.Calm.coordination_free ~make:ideal_make ~expected
           (Transducer.Horizontal.full_replication ~p graph))
    in
    line "  %-34s %-12b %b" name consistent free
  in
  let mono_tri = Transducer.Programs.monotone_broadcast ~name:"t" ~eval:triangles in
  row "triangles / naive broadcast"
    (fun d -> Transducer.Network.create mono_tri d)
    (fun d -> Transducer.Network.create mono_tri d)
    (triangles graph) distributions;
  let mono_open =
    Transducer.Programs.monotone_broadcast ~name:"o" ~eval:open_triangles
  in
  row "open-tri / naive broadcast"
    (fun d -> Transducer.Network.create mono_open d)
    (fun d -> Transducer.Network.create mono_open d)
    (open_triangles graph)
    [ Transducer.Horizontal.round_robin ~p graph ];
  let coord = Transducer.Programs.coordinated ~name:"c" ~eval:open_triangles in
  row "open-tri / coordinated"
    (fun d -> Transducer.Network.create coord d)
    (fun d -> Transducer.Network.create coord d)
    (open_triangles graph) distributions;
  let aware = Transducer.Programs.open_triangle_policy_aware ~name:"pa" in
  row "open-tri / policy-aware (F1)"
    (fun d -> Transducer.Network.create ~policy:fact_policy aware d)
    (fun d -> Transducer.Network.create ~policy:bc_policy aware d)
    (open_triangles graph)
    [ Transducer.Horizontal.by_policy fact_policy graph ];
  line "  expected: naive broadcast is consistent + coordination-free only";
  line "  for the monotone query; coordination computes the rest but is not";
  line "  coordination-free; policy-awareness recovers it for Mdistinct (CALM)."

(* ------------------------------------------------------------------ *)
(* E9: broadcast economy (Section 6, [37])                             *)

let e9 () =
  section "E9: broadcasting economy — messages shipped per strategy ([37])";
  let rng = Random.State.make [| 9 |] in
  let graph = Relational.Generate.random_graph ~rng ~nodes:12 ~edges:40 () in
  let noise =
    Relational.Generate.random_relation ~rng ~rel:"Noise" ~arity:2 ~size:40
      ~domain:12 ()
  in
  let input = Relational.Instance.union graph noise in
  let p = 4 in
  let triangles = Cq.Eval.eval Cq.Examples.triangles_distinct in
  let relevant rels i =
    Relational.Instance.filter (fun f -> List.mem (Relational.Fact.rel f) rels) i
  in
  let run name program =
    let net =
      Transducer.Network.create program
        (Transducer.Horizontal.round_robin ~p input)
    in
    let out = Transducer.Scheduler.drain ~schedule:Transducer.Scheduler.Fifo net in
    let ok = Relational.Instance.equal out (triangles input) in
    line "  %-30s data msgs %-6d control msgs %-6d correct %b" name
      (Transducer.Network.data_deliveries net)
      (Transducer.Network.deliveries net - Transducer.Network.data_deliveries net)
      ok
  in
  run "naive broadcast (all facts)"
    (Transducer.Programs.monotone_broadcast ~name:"naive" ~eval:triangles);
  let base = Transducer.Programs.monotone_broadcast ~name:"rel" ~eval:triangles in
  let query_relevant =
    {
      base with
      Transducer.Program.step =
        (fun ctx ~local ~memory event ->
          base.Transducer.Program.step ctx
            ~local:(relevant [ "E" ] local)
            ~memory event);
    }
  in
  run "query-relevant broadcast" query_relevant;
  (* The semi-join-filtered strategy needs a full CQ without self-joins:
     run the three-relation triangle on an R/S/T rendering of the same
     data plus the distractors. *)
  let rst_input =
    Relational.Instance.union (Mpc.Workload.triangle_from_graph graph) noise
  in
  let rst_triangles = Cq.Eval.eval Cq.Examples.q2_triangle in
  let run_rst name program =
    let net =
      Transducer.Network.create program
        (Transducer.Horizontal.round_robin ~p rst_input)
    in
    let out = Transducer.Scheduler.drain ~schedule:Transducer.Scheduler.Fifo net in
    let ok = Relational.Instance.equal out (rst_triangles rst_input) in
    line "  %-30s data msgs %-6d control msgs %-6d correct %b" name
      (Transducer.Network.data_deliveries net)
      (Transducer.Network.deliveries net - Transducer.Network.data_deliveries net)
      ok
  in
  run_rst "naive broadcast (R,S,T)"
    (Transducer.Programs.monotone_broadcast ~name:"naive-rst" ~eval:rst_triangles);
  run_rst "semi-join filtered ([37])"
    (Transducer.Programs.semijoin_broadcast ~name:"econ-rst"
       ~query:Cq.Examples.q2_triangle);
  run "coordinated (control overhead)"
    (Transducer.Programs.coordinated ~name:"coord" ~eval:triangles);
  line "  shape: filtering (by query relevance, then by semi-join";
  line "  compatibility) cuts the data shipped — the direction of";
  line "  Ketsman–Neven's economical strategies; coordination instead adds";
  line "  control messages on top of all the data."

(* ------------------------------------------------------------------ *)
(* E10: large intermediate results (Chu–Balazinska–Suciu [26])         *)

let e10 () =
  section "E10: HyperCube wins on large intermediates, loses on small ([26])";
  let m = 3000 in
  let p = 27 in
  let k_query = Cq.Parser.query "K(x,y,z) <- R(x,y), S(y,z)" in
  line "  triangle, m = %d per relation, p = %d, density sweep:" m p;
  line "  %-8s %-14s %-10s %-16s %-16s %s" "domain" "|R join S|" "|out|"
    "cascade comm" "hypercube comm" "winner";
  List.iter
    (fun domain ->
      let rng = Random.State.make [| domain |] in
      let i = Mpc.Workload.triangle_skew_free ~rng ~m ~domain in
      let intermediate =
        Relational.Instance.cardinal (Cq.Eval.eval k_query i)
      in
      let out, casc = Mpc.Multi_round.cascade_triangle ~executor:(exec ()) ~p i in
      let _, hc, _ =
        Mpc.Hypercube.run ~materialize:false ~executor:(exec ()) ~p Cq.Examples.q2_triangle i
      in
      let c_comm = Mpc.Stats.total_communication casc
      and h_comm = Mpc.Stats.total_communication hc in
      line "  %-8d %-14d %-10d %-16d %-16d %s" domain intermediate
        (Relational.Instance.cardinal out)
        c_comm h_comm
        (if h_comm < c_comm then "hypercube" else "cascade"))
    [ 100; 300; 1000; 5000 ];
  line "  shape: dense inputs blow up the cascade's intermediate |R ⋈ S|";
  line "  while HyperCube's cost stays at ~3m·p^(1/3); on sparse/selective";
  line "  inputs the replication makes HyperCube the loser — the crossover";
  line "  of [26].";
  line "";
  (* Local computation: the worst-case optimal engine (Wcoj) vs the
     binary-join plan on a skewed triangle whose intermediate join is
     quadratic but whose output is small. *)
  let rng = Random.State.make [| 26 |] in
  let skewed =
    Mpc.Workload.triangle_y_skew ~rng ~m:1000 ~domain:1000 ~heavy_fraction:1.0
  in
  let eval strategy () = Cq.Eval.eval ~strategy Cq.Examples.q2_triangle skewed in
  let r1, t_bin = timed_median ~reps:3 (eval Cq.Eval.Binary) in
  let r2, t_wcoj = timed_median ~reps:3 (eval Cq.Eval.Wcoj) in
  line "  local evaluation on a fully skewed triangle (m = 1000, output %d):"
    (Relational.Instance.cardinal r1);
  line "  binary plan: %8.1f ms;  wcoj: %8.1f ms" t_bin t_wcoj;
  check "wcoj = binary on the skewed triangle" (Relational.Instance.equal r1 r2);
  line "  shape: the worst-case optimal join avoids the quadratic";
  line "  intermediate — the local algorithm [26] pairs with HyperCube."

(* ------------------------------------------------------------------ *)
(* E11: multi-round vs one-round on tree-like CQs over matching DBs    *)

let e11 () =
  section
    "E11: chains on matching databases — rounds buy load (Section 3.2, [20])";
  let m = 4000 in
  let p = 16 in
  line "  chain queries on matching databases (every value occurs once),";
  line "  m = %d per relation, p = %d:" m p;
  line "  %-10s %-8s %-14s %-10s %-14s %-16s" "chain len" "tau*"
    "1-rnd load" "rounds" "GYM max load" "1-rnd theory";
  List.iter
    (fun k ->
      (* Matching database: R_i = {(j + (i-1)m, j + i·m)}. *)
      let i =
        List.fold_left
          (fun acc idx ->
            Relational.Instance.union acc
              (Relational.Instance.of_facts
                 (List.init m (fun j ->
                      Relational.Fact.of_ints
                        (Printf.sprintf "R%d" idx)
                        [ j + ((idx - 1) * m); j + (idx * m) ]))))
          Relational.Instance.empty
          (List.init k (fun x -> x + 1))
      in
      let body =
        List.init k (fun j -> Printf.sprintf "R%d(x%d,x%d)" (j + 1) j (j + 1))
      in
      let q =
        Cq.Parser.query
          (Printf.sprintf "H(x0,x%d) <- %s" k (String.concat ", " body))
      in
      let tau = Cq.Hypergraph.tau_star q in
      let _, hc, _ = Mpc.Hypercube.run ~materialize:false ~executor:(exec ()) ~p q i in
      let _, gym = Mpc.Yannakakis.gym ~executor:(exec ()) ~p q i in
      let total = Relational.Instance.cardinal i in
      line "  %-10d %-8.1f %-14d %-10d %-14d %-16.0f" k tau
        (Mpc.Stats.max_load hc)
        (Mpc.Stats.rounds gym)
        (Mpc.Stats.max_load gym)
        (float_of_int total
        /. Float.pow (float_of_int p) (1.0 /. tau)))
    [ 2; 3; 4; 5 ];
  line "  shape: one-round load degrades as m/p^(1/ceil(k/2)) with the chain";
  line "  length (tau* grows), while the multi-round Yannakakis passes keep";
  line "  the per-round load near m/p — the trade-off behind the paper's";
  line "  nearly matching multi-round bounds on matching databases."

(* ------------------------------------------------------------------ *)
(* E12: interned engine vs the pre-interning reference engine          *)

let e12 () =
  section
    "E12: interned storage + compiled plans vs the reference engine";
  let scale n = if !smoke then max 1 (n / 20) else n in
  let report label old_ms new_ms =
    line "  %-44s old %8.1f ms   new %8.1f ms   %5.1fx" label old_ms new_ms
      (old_ms /. new_ms)
  in
  (* Transitive closure, semi-naive, on a random graph an order of
     magnitude beyond what fig2/timings exercise. *)
  let rng = Random.State.make [| 12 |] in
  let nodes = scale 500 and edges = scale 1000 in
  let graph = Relational.Generate.random_graph ~rng ~nodes ~edges () in
  let tc = Datalog.Canned.transitive_closure in
  let old_r, old_ms =
    time_ms (fun () ->
        Oracle.Datalog_reference.run ~strategy:Datalog.Eval.Seminaive tc
          graph)
  in
  let new_r, new_ms =
    time_ms (fun () ->
        Datalog.Eval.run ~strategy:Datalog.Eval.Seminaive tc graph)
  in
  line "  TC over random graph: %d nodes, %d edge samples, |TC| = %d" nodes
    edges
    (Relational.Instance.cardinal
       (Relational.Instance.filter
          (fun f -> Relational.Fact.rel f = "TC")
          new_r));
  check "TC(random): interned result = reference result"
    (Relational.Instance.equal old_r new_r);
  report "TC random graph (seminaive)" old_ms new_ms;
  metric "tc_random_old_ms" old_ms;
  metric "tc_random_new_ms" new_ms;
  metric "tc_random_speedup" (old_ms /. new_ms);
  (* Path chain: maximal round count for the fixpoint, so the per-round
     index-rebuild cost of the reference engine dominates. *)
  let n = scale 128 in
  let chain =
    Relational.Instance.of_facts
      (List.init (max 1 (n - 1)) (fun i ->
           Relational.Fact.of_ints "E" [ i; i + 1 ]))
  in
  let old_r, old_ms =
    time_ms (fun () ->
        Oracle.Datalog_reference.run ~strategy:Datalog.Eval.Seminaive tc
          chain)
  in
  let new_r, new_ms =
    time_ms (fun () ->
        Datalog.Eval.run ~strategy:Datalog.Eval.Seminaive tc chain)
  in
  check
    (Printf.sprintf "TC(path, n = %d): interned result = reference result" n)
    (Relational.Instance.equal old_r new_r);
  report "TC path chain (seminaive)" old_ms new_ms;
  metric "tc_chain_old_ms" old_ms;
  metric "tc_chain_new_ms" new_ms;
  metric "tc_chain_speedup" (old_ms /. new_ms);
  let naive_r, naive_ms =
    time_ms (fun () -> Datalog.Eval.run ~strategy:Datalog.Eval.Naive tc chain)
  in
  check "TC(path): naive = seminaive on the interned engine"
    (Relational.Instance.equal naive_r new_r);
  metric "tc_chain_naive_new_ms" naive_ms;
  (* Triangle join, local evaluation, 10x the e3/e9 workload. *)
  let m = scale 40000 in
  let rng = Random.State.make [| 112 |] in
  let tri = Mpc.Workload.triangle_skew_free ~rng ~m ~domain:m in
  let old_r, old_ms =
    time_ms (fun () -> Oracle.Cq_reference.eval Cq.Examples.q2_triangle tri)
  in
  let new_r, new_ms =
    time_ms (fun () -> Cq.Eval.eval Cq.Examples.q2_triangle tri)
  in
  line "  triangle: m = %d per relation, %d triangles" m
    (Relational.Instance.cardinal new_r);
  check "triangle: compiled plan result = reference result"
    (Relational.Instance.equal old_r new_r);
  report "triangle join (local eval)" old_ms new_ms;
  metric "triangle_old_ms" old_ms;
  metric "triangle_new_ms" new_ms;
  metric "triangle_speedup" (old_ms /. new_ms);
  (* Same workload through the full MPC simulator on both backends: the
     load statistics must be bit-identical — the engine swap may only
     change wall clock. *)
  let p = 8 in
  let tri = Mpc.Workload.triangle_skew_free ~rng ~m:(scale 20000) ~domain:(scale 20000) in
  let (r_seq, s_seq, _), seq_ms =
    time_ms (fun () ->
        Mpc.Hypercube.run ~executor:Runtime.Executor.sequential ~p
          Cq.Examples.q2_triangle tri)
  in
  let pool = Runtime.Pool.create ~domains:4 () in
  let (r_pool, s_pool, _), pool_ms =
    time_ms (fun () ->
        Mpc.Hypercube.run ~executor:(Runtime.Executor.pool pool) ~p
          Cq.Examples.q2_triangle tri)
  in
  Runtime.Pool.shutdown pool;
  check "hypercube: results equal, stats bit-identical (seq vs pool)"
    (Relational.Instance.equal r_seq r_pool && s_seq = s_pool);
  line "  hypercube p = %d: seq %.1f ms, pool(4) %.1f ms" p seq_ms pool_ms;
  metric "hypercube_seq_ms" seq_ms;
  metric "hypercube_pool_ms" pool_ms;
  line
    "  shape: identical outputs and load stats. The win is largest where\n\
    \  work is repeated — fixpoints re-deriving millions of duplicates,\n\
    \  repeated evaluation over a warm index; a one-shot join evaluates\n\
    \  ~10x faster on a warm index but pays the interning toll up front,\n\
    \  landing near parity end-to-end."

(* ------------------------------------------------------------------ *)
(* E13: recovery overhead under deterministic fault plans              *)

(* Seed and spec for the chaos row of e13, settable from the command
   line so CI can sweep seeds (--fault-seed=N, --faults=SPEC). *)
let fault_seed = ref 1
let faults_spec = ref "chaos"

let e13 () =
  section "E13: checkpoint/replay recovery overhead under fault plans";
  let scale n = if !smoke then max 10 (n / 10) else n in
  let seed = !fault_seed in
  let rng () = Random.State.make [| 13 |] in
  let join_i = Mpc.Workload.join_skew_free ~m:(scale 2000) in
  let tri_i =
    Mpc.Workload.triangle_skew_free ~rng:(rng ()) ~m:(scale 1200)
      ~domain:(scale 400)
  in
  let skew_i =
    Mpc.Workload.triangle_y_skew ~rng:(rng ()) ~m:(scale 1200)
      ~domain:(scale 400) ~heavy_fraction:0.3
  in
  let chain_q = Cq.Parser.query "H(x0,x3) <- R1(x0,x1), R2(x1,x2), R3(x2,x3)" in
  let chain_i =
    Mpc.Workload.acyclic_chain ~rng:(rng ()) ~m:(scale 1500) ~domain:(scale 500)
      ~rels:[ "R1"; "R2"; "R3" ]
  in
  let algorithms =
    [
      ( "repartition",
        join_i,
        fun ~faults ->
          Mpc.Repartition_join.run ~executor:(exec ()) ~faults ~p:16 join_i );
      ( "grid",
        join_i,
        fun ~faults -> Mpc.Grid_join.run ~executor:(exec ()) ~faults ~p:16 join_i
      );
      ( "hypercube",
        tri_i,
        fun ~faults ->
          let r, s, _ =
            Mpc.Hypercube.run ~executor:(exec ()) ~faults ~p:8
              Cq.Examples.q2_triangle tri_i
          in
          (r, s) );
      ( "cascade",
        tri_i,
        fun ~faults ->
          Mpc.Multi_round.cascade_triangle ~executor:(exec ()) ~faults ~p:8 tri_i
      );
      ( "skew-resilient",
        skew_i,
        fun ~faults ->
          let r, s, _ =
            Mpc.Multi_round.skew_resilient_triangle ~executor:(exec ()) ~faults
              ~p:8 skew_i
          in
          (r, s) );
      ( "gym",
        chain_i,
        fun ~faults ->
          Mpc.Yannakakis.gym ~executor:(exec ()) ~faults ~p:8 chain_q chain_i );
      ( "gym-ghd",
        tri_i,
        fun ~faults ->
          let r, s, _ =
            Mpc.Gym_ghd.run ~executor:(exec ()) ~faults ~p:8
              Cq.Examples.q2_triangle tri_i
          in
          (r, s) );
    ]
  in
  let crash_rates = [ 0.05; 0.1; 0.2 ] in
  let chaos_plan =
    try Faults.Plan.of_string ~seed !faults_spec
    with Invalid_argument msg ->
      line "  bad --faults spec (%s); falling back to chaos" msg;
      Faults.Plan.make ~seed Faults.Plan.chaos
  in
  let chaos_plan =
    if Faults.Plan.is_none chaos_plan then Faults.Plan.make ~seed Faults.Plan.chaos
    else chaos_plan
  in
  line "  fault seed %d; plans: zero, crash rates {%s} (+transient), %a" seed
    (String.concat ", " (List.map (Printf.sprintf "%.2f") crash_rates))
    Faults.Plan.pp chaos_plan;
  List.iter
    (fun (name, input, run) ->
      let m = Relational.Instance.cardinal input in
      let clean_out, clean_stats = run ~faults:Faults.Plan.none in
      metric_stats (name ^ "_clean") ~m clean_stats;
      line "  %-14s p=%d rounds=%d max_load=%d total_comm=%d (clean)" name
        clean_stats.Mpc.Stats.p
        (Mpc.Stats.rounds clean_stats)
        (Mpc.Stats.max_load clean_stats)
        (Mpc.Stats.total_communication clean_stats);
      (* An all-zero plan must be a byte-identical no-op: it runs the
         same round body as Plan.none and decides the same constants. *)
      let zero_out, zero_stats = run ~faults:(Faults.Plan.make ~seed Faults.Plan.zero) in
      check
        (Printf.sprintf "%s: zero-fault plan output and stats byte-identical"
           name)
        (Relational.Instance.equal clean_out zero_out
        && Fmt.str "%a" Mpc.Stats.pp zero_stats
           = Fmt.str "%a" Mpc.Stats.pp clean_stats);
      let faulty key label plan =
        let out, stats = run ~faults:plan in
        check
          (Printf.sprintf "%s under %s: output and clean loads bit-identical"
             name label)
          (Relational.Instance.equal clean_out out
          && stats.Mpc.Stats.rounds = clean_stats.Mpc.Stats.rounds);
        let total = Mpc.Stats.total_communication stats in
        let rload = Mpc.Stats.recovery_load stats in
        let overhead =
          if total = 0 then 1.0
          else float_of_int (total + rload) /. float_of_int total
        in
        line
          "    %-10s recovery: rounds=%d/%d load=%d crashes=%d retries=%d  \
           comm overhead %.2fx"
          label
          (Mpc.Stats.recovery_rounds stats)
          (Mpc.Stats.rounds stats) rload (Mpc.Stats.crashes stats)
          (Mpc.Stats.retries stats) overhead;
        metric (Printf.sprintf "%s_%s_recovery_rounds" name key)
          (float_of_int (Mpc.Stats.recovery_rounds stats));
        metric (Printf.sprintf "%s_%s_recovery_load" name key)
          (float_of_int rload);
        metric (Printf.sprintf "%s_%s_crashes" name key)
          (float_of_int (Mpc.Stats.crashes stats));
        metric (Printf.sprintf "%s_%s_retries" name key)
          (float_of_int (Mpc.Stats.retries stats));
        metric (Printf.sprintf "%s_%s_comm_overhead" name key) overhead
      in
      List.iteri
        (fun i rate ->
          faulty
            (Printf.sprintf "crash%02d" (int_of_float ((rate *. 100.0) +. 0.5)))
            (Printf.sprintf "crash=%.2f" rate)
            (Faults.Plan.make ~seed
               { Faults.Plan.zero with crash = rate; transient = rate });
          ignore i)
        crash_rates;
      faulty "chaos" "chaos" chaos_plan)
    algorithms;
  line
    "  shape: recovered outputs and per-round loads match the clean run\n\
    \  exactly; repair traffic grows with the crash rate and with the\n\
    \  number of rounds exposed to it (multi-round plans replay more)."

(* ------------------------------------------------------------------ *)

(* E14: job-level recovery — what a durable cross-round checkpoint
   costs (none vs in-memory vs on-disk store), and what speculative
   straggler re-execution saves at increasing straggle rates. *)

type e14_algo =
  ?job:Jobs.Supervisor.t ->
  faults:Faults.Plan.t ->
  unit ->
  Relational.Instance.t * Mpc.Stats.t

let e14 () =
  section "E14: checkpoint overhead and speculative straggler mitigation";
  let scale n = if !smoke then max 10 (n / 10) else n in
  let seed = !fault_seed in
  let rng () = Random.State.make [| 14 |] in
  let tri_i =
    Mpc.Workload.triangle_skew_free ~rng:(rng ()) ~m:(scale 1200)
      ~domain:(scale 400)
  in
  let chain_q = Cq.Parser.query "H(x0,x3) <- R1(x0,x1), R2(x1,x2), R3(x2,x3)" in
  let chain_i =
    Mpc.Workload.acyclic_chain ~rng:(rng ()) ~m:(scale 1500) ~domain:(scale 500)
      ~rels:[ "R1"; "R2"; "R3" ]
  in
  let reps = if !smoke then 1 else 3 in
  let timed f = timed_median ~reps f in
  let algorithms : (string * e14_algo) list =
    [
      ( "cascade",
        fun ?job ~faults () ->
          Mpc.Multi_round.cascade_triangle ~executor:(exec ()) ~faults ?job
            ~p:8 tri_i );
      ( "gym",
        fun ?job ~faults () ->
          Mpc.Yannakakis.gym ~executor:(exec ()) ~faults ?job ~p:8 chain_q
            chain_i );
      ( "hypercube",
        fun ?job ~faults () ->
          let r, s, _ =
            Mpc.Hypercube.run ~executor:(exec ()) ~faults ?job ~p:8
              Cq.Examples.q2_triangle tri_i
          in
          (r, s) );
    ]
  in
  (* -- Checkpoint overhead: none vs in-memory vs on-disk store. ----- *)
  let ckpt_dir =
    Filename.concat (Filename.get_temp_dir_name ()) "lamp_bench_e14_ckpt"
  in
  (try Sys.mkdir ckpt_dir 0o755 with Sys_error _ -> ());
  line "  checkpoint stores: none, in-memory, on-disk (%s); median of %d"
    ckpt_dir reps;
  List.iter
    (fun (name, (run : e14_algo)) ->
      let (clean_out, _), t_none = timed (fun () -> run ~faults:Faults.Plan.none ()) in
      let with_store store =
        (* A fresh job per repetition: each run checkpoints from round 0
           and the last job's counters describe exactly one run. *)
        let last = ref None in
        let (out, _), t =
          timed (fun () ->
              let job = Jobs.Supervisor.create ~store name in
              last := Some job;
              run ~job ~faults:Faults.Plan.none ())
        in
        (out, t, Option.get !last)
      in
      let mem_out, t_mem, mem_job = with_store (Jobs.Store.in_memory ()) in
      let disk_store = Jobs.Store.on_disk ckpt_dir in
      let disk_out, t_disk, disk_job = with_store disk_store in
      Jobs.Store.clear disk_store ~job:name;
      check
        (Printf.sprintf "%s: checkpointed outputs bit-identical" name)
        (Relational.Instance.equal clean_out mem_out
        && Relational.Instance.equal clean_out disk_out);
      let pct base t = 100.0 *. ((t /. base) -. 1.0) in
      line
        "  %-10s none %6.1f ms   mem %6.1f ms (%+5.1f%%)   disk %6.1f ms \
         (%+5.1f%%)   %d ckpts, %d B"
        name t_none t_mem (pct t_none t_mem) t_disk (pct t_none t_disk)
        disk_job.Jobs.Supervisor.checkpoints
        disk_job.Jobs.Supervisor.checkpoint_bytes;
      metric (name ^ "_ckpt_none_ms") t_none;
      metric (name ^ "_ckpt_mem_ms") t_mem;
      metric (name ^ "_ckpt_disk_ms") t_disk;
      metric (name ^ "_ckpt_bytes")
        (float_of_int mem_job.Jobs.Supervisor.checkpoint_bytes);
      metric (name ^ "_ckpt_rounds")
        (float_of_int disk_job.Jobs.Supervisor.checkpoints))
    algorithms;
  (* -- Speculation win at increasing straggle rates. ----------------- *)
  let straggle_rates = [ 0.05; 0.1; 0.2 ] in
  let budget = 0.0002 in
  line "  speculation budget %.1f ms; straggle rates {%s}" (budget *. 1000.0)
    (String.concat ", " (List.map (Printf.sprintf "%.2f") straggle_rates));
  (* p=16: enough per-round tasks that the stragglers' sleeps dominate
     scheduler noise on both backends. *)
  let clean_out, _ =
    Mpc.Multi_round.cascade_triangle ~executor:(exec ()) ~p:16 tri_i
  in
  List.iter
    (fun rate ->
      let key = Printf.sprintf "spec_rate%02d" (int_of_float ((rate *. 100.0) +. 0.5)) in
      let run faults () =
        Mpc.Multi_round.cascade_triangle ~executor:(exec ()) ~faults ~p:16 tri_i
      in
      let unmitigated =
        Faults.Plan.make ~seed { Faults.Plan.zero with straggle = rate }
      in
      let mitigated =
        Faults.Plan.make ~seed
          { Faults.Plan.zero with straggle = rate; speculate = budget }
      in
      (* Minimum over the repetitions, not the median: the injected
         sleeps are deterministic and scheduler noise is strictly
         additive, so the minimum isolates the stall difference. *)
      let timed_min f =
        ignore (f ());
        let runs = List.init (max reps 5) (fun _ -> time_ms f) in
        (fst (List.hd runs), List.fold_left min infinity (List.map snd runs))
      in
      let (slow_out, _), t_slow = timed_min (run unmitigated) in
      let ((fast_out, fast_stats), t_fast) = timed_min (run mitigated) in
      check
        (Printf.sprintf "straggle=%.2f: outputs bit-identical with and \
                         without speculation" rate)
        (Relational.Instance.equal clean_out slow_out
        && Relational.Instance.equal clean_out fast_out);
      let saved_pct =
        if t_slow > 0.0 then 100.0 *. (t_slow -. t_fast) /. t_slow else 0.0
      in
      line
        "    straggle=%.2f  unmitigated %6.1f ms   speculated %6.1f ms   \
         saved %5.1f%%   backups won %d"
        rate t_slow t_fast saved_pct
        (Mpc.Stats.speculations fast_stats);
      metric (key ^ "_unmitigated_ms") t_slow;
      metric (key ^ "_mitigated_ms") t_fast;
      metric (key ^ "_saved_pct") saved_pct;
      metric (key ^ "_speculations")
        (float_of_int (Mpc.Stats.speculations fast_stats)))
    straggle_rates;
  line
    "  shape: checkpoints cost single-digit percent (the snapshot is one\n\
    \  linear serialization per round; the disk store adds an atomic\n\
    \  rename); speculation's saving grows with the straggle rate as more\n\
    \  long stalls are cut to the budget."

(* ------------------------------------------------------------------ *)
(* E15: lamp.serve — query service under concurrent loopback load      *)

(* One e15 client connection, driven by the generator loop. *)
type e15_conn = {
  e15_fd : Unix.file_descr;
  e15_reader : Serve.Wire.reader;
  mutable e15_sent : int;  (** requests answered so far *)
  mutable e15_t0 : float;  (** when the outstanding request was sent *)
  mutable e15_acc : Relational.Fact.t list;  (** its answer so far *)
}

(* A fleet of clients, every one holding an open connection at the
   same time, hammers one server over a Unix socket: ad-hoc executes
   that all resolve in the prepared-plan cache after the first compile
   of each query text. Reported: p50/p95/p99 request latency,
   throughput, cache hit rate, and the two invariants the serving
   layer promises — responses bit-identical to direct library
   evaluation, and a drain that leaks no session. *)
let e15 () =
  section "E15: query service under concurrent loopback load";
  let clients = if !smoke then 100 else 1024 in
  let per_client = if !smoke then 4 else 8 in
  let rng = Random.State.make [| 15 |] in
  let inst = Mpc.Workload.triangle_skew_free ~rng ~m:120 ~domain:60 in
  let queries =
    [
      "H(x,y,z) <- R(x,y), S(y,z), T(z,x)";
      "H(x,y,z) <- R(x,y), S(y,z)";
      "H(x,z) <- R(x,y), T(y,z)";
    ]
  in
  let sock name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lamp_e15_%s_%d.sock" name (Unix.getpid ()))
  in
  let unlink path = try Unix.unlink path with Unix.Unix_error _ -> () in
  let encode i =
    let w = Jobs.Codec.writer () in
    Jobs.Codec.w_instance w i;
    Jobs.Codec.contents w
  in
  (* -- Backend bit-identity spot check. ----------------------------- *)
  (* The same requests through a sequential- and a pool-backed server
     must yield byte-identical result encodings, and identical MPC
     statistics for distributed modes. *)
  let spot name executor =
    let server = Serve.Server.create ~executor () in
    Serve.Server.add_instance server ~name:"bench" inst;
    let path = sock ("spot_" ^ name) in
    Serve.Server.listen_unix server ~path;
    Fun.protect
      ~finally:(fun () ->
        Serve.Server.stop server;
        unlink path)
      (fun () ->
        let c = Serve.Client.connect_unix ~path () in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close c)
          (fun () ->
            let locals =
              List.map
                (fun q ->
                  encode (fst (Serve.Client.execute c ~instance:"bench" (Adhoc q))))
                queries
            in
            let hc, hc_stats =
              Serve.Client.execute c ~instance:"bench"
                ~mode:(Hypercube { p = 4 }) (Adhoc (List.hd queries))
            in
            (locals, encode hc, hc_stats)))
  in
  let pool2 = Runtime.Pool.create ~domains:2 () in
  let seq_l, seq_hc, seq_st = spot "seq" Runtime.Executor.sequential in
  let pool_l, pool_hc, pool_st = spot "pool" (Runtime.Executor.pool pool2) in
  Runtime.Pool.shutdown pool2;
  check "seq and pool backends serve byte-identical responses"
    (List.for_all2 String.equal seq_l pool_l
    && String.equal seq_hc pool_hc
    && seq_st = pool_st);
  (* -- Concurrent load. --------------------------------------------- *)
  (* One generator drives every client: it multiplexes the
     connections with [Wire.poll] and assembles each answer with a
     [Wire.reader], as the server does, so a full run starts no thread
     per client and the numbers measure the server, not the scheduling
     of a thousand generator threads. *)
  let lat_h = Obs.Trace.histogram "e15.latency_us" in
  let config =
    {
      Serve.Server.default_config with
      max_sessions = clients + 8;
      max_inflight = clients;
    }
  in
  let server = Serve.Server.create ~config ~executor:(exec ()) () in
  Serve.Server.add_instance server ~name:"bench" inst;
  let path = sock "load" in
  Serve.Server.listen_unix server ~path;
  let expected =
    Array.of_list
      (List.map (fun q -> (q, Cq.Eval.eval (Cq.Parser.query q) inst)) queries)
  in
  let mismatches = ref 0 in
  let errors = ref 0 in
  (* Connections open one at a time, each answered before the next, so
     the listen backlog never fills and connect(2) needs no retry. *)
  let open_conn i =
    let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
    Unix.connect fd (ADDR_UNIX path);
    Serve.Wire.write_request fd
      (Hello { client = string_of_int i; version = Serve.Wire.protocol_version });
    ignore (Serve.Wire.read_response fd);
    Unix.set_nonblock fd;
    { e15_fd = fd; e15_reader = Serve.Wire.reader (); e15_sent = 0;
      e15_t0 = 0.0; e15_acc = [] }
  in
  (* Every connection is open before any load starts, so the server
     really holds [clients] concurrent sessions. *)
  let conns = Array.init clients open_conn in
  (* A control client confirms peak concurrency over the wire itself. *)
  let control = Serve.Client.connect_unix ~path () in
  let peak = (Serve.Client.stats control).Serve.Wire.sessions in
  check
    (Printf.sprintf "%d clients concurrently connected at the barrier" clients)
    (peak >= clients);
  metric "clients" (float_of_int clients);
  metric "peak_sessions" (float_of_int peak);
  let send i =
    let c = conns.(i) in
    let q, _ = expected.((i + c.e15_sent) mod Array.length expected) in
    c.e15_t0 <- Unix.gettimeofday ();
    c.e15_acc <- [];
    Serve.Wire.write_request c.e15_fd
      (Traced
         {
           trace = i;
           span = c.e15_sent;
           req = Execute { instance = "bench"; plan = Adhoc q; mode = Local };
         })
  in
  (* Reads what connection [i] has; each finished answer is checked
     and followed by the client's next request. *)
  let receive i =
    let c = conns.(i) in
    let finish ok =
      if not ok then incr mismatches;
      c.e15_sent <- c.e15_sent + 1;
      if c.e15_sent < per_client then send i
    in
    let rec go () =
      match Serve.Wire.read_some c.e15_reader c.e15_fd with
      | None -> go ()
      | Some payload -> (
        match Serve.Wire.response_of_string payload with
        | Batch facts ->
          c.e15_acc <- List.rev_append facts c.e15_acc;
          go ()
        | Done _ ->
          Obs.Trace.observe lat_h
            (int_of_float (1e6 *. (Unix.gettimeofday () -. c.e15_t0)));
          let _, want = expected.((i + c.e15_sent) mod Array.length expected) in
          finish
            (Relational.Instance.equal want
               (Relational.Instance.of_facts c.e15_acc));
          go ()
        | _ ->
          incr errors;
          finish true;
          go ())
    in
    try go () with
    | Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) -> ()
    | _ ->
      (* A lost connection loses the rest of its requests. *)
      errors := !errors + per_client - c.e15_sent;
      c.e15_sent <- per_client
  in
  let fds = Array.map (fun c -> c.e15_fd) conns in
  let events = Array.make clients 0 in
  let give_up = Unix.gettimeofday () +. 600.0 in
  (* Traced from here on, so the histograms hold the load alone. *)
  let was_enabled = Obs.Trace.is_enabled () in
  Obs.Trace.set_enabled true;
  let t0 = Unix.gettimeofday () in
  (* The generator runs on a domain of its own: on the server's domain
     its decoding and checking would take the runtime lock between the
     server loop's syscalls and shape how many frames each turn holds. *)
  let generator =
    Domain.spawn (fun () ->
        Array.iteri (fun i _ -> send i) conns;
        let busy () = Array.exists (fun c -> c.e15_sent < per_client) conns in
        while busy () && Unix.gettimeofday () < give_up do
          Array.iteri
            (fun i c ->
              events.(i) <-
                (if c.e15_sent < per_client then Serve.Wire.pollin else 0))
            conns;
          if Serve.Wire.poll fds events 1000 > 0 then
            Array.iteri (fun i e -> if e <> 0 then receive i) events
        done)
  in
  Domain.join generator;
  Array.iter
    (fun c -> errors := !errors + per_client - min per_client c.e15_sent)
    conns;
  Array.iter (fun c -> Unix.close c.e15_fd) conns;
  let wall = Unix.gettimeofday () -. t0 in
  let s = Serve.Client.stats control in
  Serve.Client.close control;
  let total = clients * per_client in
  let hits = s.plan_cache_hits and misses = s.plan_cache_misses in
  let hit_rate =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses)
  in
  check "responses bit-identical to direct evaluation"
    (!mismatches = 0 && !errors = 0);
  check "no request rejected, throttled or shed"
    (s.rejected = 0 && s.throttled = 0 && s.shed = 0);
  check "plan-cache hit rate above 99% after warmup" (hit_rate > 0.99);
  let lat = Obs.Trace.histogram_snapshot lat_h in
  metric "requests" (float_of_int total);
  metric "throughput_rps" (float_of_int total /. wall);
  metric "cache_hit_rate" hit_rate;
  metric_percentiles "latency_us" lat;
  let qw =
    Obs.Trace.histogram_snapshot (Obs.Trace.histogram "serve.queue_wait_us")
  in
  metric_percentiles "queue_wait_us" qw;
  (* The ROADMAP target: p99 queue wait within max_inflight median
     services. Reported, not checked: a request waits for the services
     ahead of it in its turn, about (frames in the turn) x mean service,
     and this mix's mean service exceeds its median, so with every
     connection refilled each turn the ratio sits above 1
     (EXPERIMENTS, E15). *)
  let service =
    Obs.Trace.histogram_snapshot (Obs.Trace.histogram "serve.request_us")
  in
  metric_percentiles "service_us" service;
  let target =
    float_of_int config.max_inflight *. Obs.Trace.percentile service 0.50
  in
  let ratio = Obs.Trace.percentile qw 0.99 /. target in
  metric "queue_wait_p99_over_target" ratio;
  line "  queue wait p99 %.0f us vs max_inflight x median service %.0f us \
        (ratio %.2f)"
    (Obs.Trace.percentile qw 0.99) target ratio;
  line
    "  %d clients x %d requests: %.0f req/s   latency p50 %.0f us  p95 %.0f \
     us  p99 %.0f us"
    clients per_client
    (float_of_int total /. wall)
    (Obs.Trace.percentile lat 0.50)
    (Obs.Trace.percentile lat 0.95)
    (Obs.Trace.percentile lat 0.99);
  line "  plan cache: %d hits / %d misses (%.2f%% hit rate)   engine queue \
        wait p99 %.0f us"
    hits misses (100.0 *. hit_rate)
    (Obs.Trace.percentile qw 0.99);
  Serve.Server.stop server;
  let final = Serve.Server.stats server in
  check "drain: no session survives shutdown" (final.sessions = 0);
  unlink path;
  Obs.Trace.set_enabled was_enabled;
  line
    "  shape: every execute after the first compile of each query text is a\n\
    \  cache hit, so the service amortizes planning exactly like a prepared\n\
    \  statement; the engine serializes evaluation, so tail latency tracks\n\
    \  queue depth while throughput tracks single-query cost."

(* ------------------------------------------------------------------ *)
(* Bechamel timing benches (one per experiment family)                 *)

let timings () =
  section "Timings (Bechamel, monotonic clock)";
  let open Bechamel in
  let rng = Random.State.make [| 10 |] in
  let tri_workload = Mpc.Workload.triangle_skew_free ~rng ~m:500 ~domain:200 in
  let graph = Relational.Generate.random_graph ~rng ~nodes:30 ~edges:120 () in
  let universe = [ Relational.Value.str "a"; Relational.Value.str "b" ] in
  let policy =
    Distribution.Policy.make
      ~universe:(Relational.Value.set_of_list universe)
      ~name:"hash" ~nodes:[ 0; 1 ]
      (fun n f -> Relational.Fact.hash f mod 2 = n)
  in
  let chain k =
    let body =
      List.init k (fun j -> Printf.sprintf "R%d(x%d,x%d)" j j (j + 1))
    in
    Cq.Parser.query
      (Printf.sprintf "H(x0,x%d) <- %s" k (String.concat ", " body))
  in
  let chain_instance =
    Mpc.Workload.acyclic_chain ~rng ~m:500 ~domain:200 ~rels:[ "R1"; "R2"; "R3" ]
  in
  let chain_q = Cq.Parser.query "H(x0,x3) <- R1(x0,x1), R2(x1,x2), R3(x2,x3)" in
  let tests =
    Test.make_grouped ~name:"lamp"
      [
        Test.make ~name:"fig1/transfer-matrix"
          (Staged.stage (fun () ->
               ignore
                 (Correctness.Transfer.transfer_matrix
                    [
                      Cq.Examples.q1_example_4_11;
                      Cq.Examples.q2_example_4_11;
                      Cq.Examples.q3_example_4_11;
                      Cq.Examples.q4_example_4_11;
                    ])));
        Test.make ~name:"fig2/classify-comp-tc"
          (Staged.stage (fun () ->
               ignore
                 (Datalog.Eval.query Datalog.Canned.complement_tc ~output:"OUT"
                    graph)));
        Test.make ~name:"e1/repartition-join"
          (Staged.stage (fun () ->
               ignore
                 (Mpc.Repartition_join.run ~executor:(exec ()) ~p:8
                    (Mpc.Workload.join_skew_free ~m:500))));
        Test.make ~name:"e2/grid-join"
          (Staged.stage (fun () ->
               ignore
                 (Mpc.Grid_join.run ~executor:(exec ()) ~p:16
                    (Mpc.Workload.join_skew_free ~m:500))));
        Test.make ~name:"e3/hypercube-triangle"
          (Staged.stage (fun () ->
               ignore
                 (Mpc.Hypercube.run ~executor:(exec ()) ~p:8
                    Cq.Examples.q2_triangle tri_workload)));
        Test.make ~name:"e4/skew-resilient-triangle"
          (Staged.stage (fun () ->
               ignore
                 (Mpc.Multi_round.skew_resilient_triangle ~executor:(exec ())
                    ~p:8 tri_workload)));
        Test.make ~name:"e5/share-optimizer"
          (Staged.stage (fun () ->
               ignore
                 (Mpc.Shares.optimize ~objective:Mpc.Shares.Max_load ~p:64
                    ~sizes:(fun _ -> 1000)
                    Cq.Examples.q2_triangle)));
        Test.make ~name:"e6/yannakakis-chain"
          (Staged.stage (fun () ->
               ignore (Mpc.Yannakakis.eval_acyclic chain_q chain_instance)));
        Test.make ~name:"e7/pc-decide-chain4"
          (Staged.stage (fun () ->
               ignore (Correctness.Parallel_correctness.decide (chain 4) policy)));
        Test.make ~name:"e7/transfer-chain3"
          (Staged.stage (fun () ->
               ignore (Correctness.Transfer.transfers (chain 3) (chain 3))));
        Test.make ~name:"e8/transducer-triangles"
          (Staged.stage
             (let eval = Cq.Eval.eval Cq.Examples.triangles_distinct in
              fun () ->
                let net =
                  Transducer.Network.create
                    (Transducer.Programs.monotone_broadcast ~name:"t" ~eval)
                    (Transducer.Horizontal.round_robin ~p:3 graph)
                in
                ignore (Transducer.Scheduler.drain ~schedule:Transducer.Scheduler.Fifo net)));
        Test.make ~name:"e9/cq-triangle-eval"
          (Staged.stage (fun () ->
               ignore (Cq.Eval.eval Cq.Examples.q2_triangle tri_workload)));
      ]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, stats) ->
      match Analyze.OLS.estimates stats with
      | Some (est :: _) -> line "  %-38s %14.0f ns/run" name est
      | _ -> line "  %-38s (no estimate)" name)
    rows

(* ------------------------------------------------------------------ *)
(* E16: worst-case-optimal joins — local race + distributed schedules  *)

let e16 () =
  section
    "E16: worst-case-optimal joins vs binary plans (local and distributed)";
  let scale n = if !smoke then max 20 (n / 40) else n in
  let equal = Relational.Instance.equal in
  (* Local race: seed value-level oracle vs interned binary plan vs
     interned WCOJ, all bit-identical by construction. *)
  let race key label ?(reference = true) q inst =
    let rb, b_ms = time_ms (fun () -> Cq.Eval.eval q inst) in
    let rw, w_ms =
      time_ms (fun () -> Cq.Eval.eval ~strategy:Cq.Eval.Wcoj q inst)
    in
    check (label ^ ": wcoj result = binary result") (equal rb rw);
    if reference then begin
      let rr, r_ms = time_ms (fun () -> Oracle.Cq_reference.eval q inst) in
      check (label ^ ": binary result = seed reference result") (equal rr rb);
      metric (key ^ "_reference_ms") r_ms
    end;
    line "  %-34s binary %8.1f ms   wcoj %8.1f ms   %5.1fx   (|Q(I)| = %d)"
      label b_ms w_ms (b_ms /. w_ms)
      (Relational.Instance.cardinal rb);
    metric (key ^ "_binary_ms") b_ms;
    metric (key ^ "_wcoj_ms") w_ms;
    metric (key ^ "_wcoj_speedup") (b_ms /. w_ms);
    rb
  in
  let rng = Random.State.make [| 16 |] in
  (* Triangle: uniform graph, then the canonical y-skew hub input where
     every binary order materializes the quadratic R ⋈ S blowup. *)
  let tri_uni =
    Mpc.Workload.relations_from_pairs ~rels:[ "R"; "S"; "T" ]
      (Mpc.Workload.graph_pairs ~rng ~m:(scale 12000)
         ~domain:(max 10 (scale 2400)))
  in
  ignore (race "tri_uniform" "triangle, uniform graph" Cq.Examples.q2_triangle tri_uni);
  let tri_skew =
    Mpc.Workload.triangle_y_skew ~rng ~m:(scale 20000)
      ~domain:(max 10 (scale 4000)) ~heavy_fraction:0.2
  in
  let tri_skew_r =
    race "tri_skew" "triangle, y-skew hub (largest)" Cq.Examples.q2_triangle
      tri_skew
  in
  (* 4-cycle: a dense uniform graph and a Zipf graph with hubs in every
     column; both make the pairwise intermediates quadratic. *)
  let cyc_uni =
    Mpc.Workload.relations_from_pairs ~rels:[ "R"; "S"; "T"; "U" ]
      (Mpc.Workload.graph_pairs ~rng ~m:(scale 8000) ~domain:(max 10 (scale 400)))
  in
  ignore
    (race "cyc_uniform" "4-cycle, dense uniform" ~reference:false
       Cq.Examples.q_four_cycle cyc_uni);
  let cyc_pairs =
    Mpc.Workload.zipf_pairs ~rng ~m:(scale 12000) ~domain:(max 10 (scale 2400))
      ~s:1.2
  in
  let cyc_zipf =
    Mpc.Workload.relations_from_pairs ~rels:[ "R"; "S"; "T"; "U" ] cyc_pairs
  in
  let cyc_zipf_r =
    race "cyc_zipf" "4-cycle, Zipf graph (largest)" ~reference:false
      Cq.Examples.q_four_cycle cyc_zipf
  in
  (* 4-clique on a dense graph: ρ* = 2, the AGM bound m² against the
     m³-ish binary intermediates. *)
  let k4 =
    Mpc.Workload.clique_from_pairs ~k:4
      (Mpc.Workload.graph_pairs ~rng ~m:(scale 6000) ~domain:(max 10 (scale 300)))
  in
  ignore
    (race "clique4" "4-clique, dense graph" ~reference:false
       (Cq.Examples.q_clique 4) k4);
  (* Distributed: one-round HyperCube (binary and WCOJ local eval — the
     load statistics must be bit-identical, only compute changes) vs the
     KST multi-round heavy/light schedule, on the skewed inputs. *)
  let p = 8 in
  let m_tri =
    List.fold_left
      (fun acc rel ->
        max acc
          (Relational.Tuple.Set.cardinal (Relational.Instance.tuples tri_skew rel)))
      1 [ "R"; "S"; "T" ]
  in
  let (hc_b, hcs_b, _), hc_b_ms =
    time_ms (fun () ->
        Mpc.Hypercube.run ~executor:(exec ()) ~p Cq.Examples.q2_triangle
          tri_skew)
  in
  let (hc_w, hcs_w, _), hc_w_ms =
    time_ms (fun () ->
        Mpc.Hypercube.run ~strategy:Cq.Eval.Wcoj ~executor:(exec ()) ~p
          Cq.Examples.q2_triangle tri_skew)
  in
  check "hypercube: wcoj local eval — same result, bit-identical stats"
    (equal hc_b hc_w && hcs_b = hcs_w);
  check "hypercube: result = local result" (equal hc_b tri_skew_r);
  let (kst_r, kst_s, combos), kst_ms =
    time_ms (fun () ->
        Mpc.Kst.run ~executor:(exec ()) ~p Cq.Examples.q2_triangle tri_skew)
  in
  check "kst: result = local result" (equal kst_r tri_skew_r);
  check "kst: heavy configurations planned on the skewed input" (combos > 0);
  let hc_load = Mpc.Stats.max_load hcs_w and kst_load = Mpc.Stats.max_load kst_s in
  check "kst: max load <= hypercube's on the skewed input"
    (kst_load <= hc_load);
  line
    "  triangle y-skew, p = %d: hypercube max load %d (binary %.1f ms, wcoj \
     %.1f ms), kst max load %d (%d configs, %.1f ms)"
    p hc_load hc_b_ms hc_w_ms kst_load combos kst_ms;
  metric_stats "e16_hypercube_skew" ~m:m_tri hcs_w;
  metric_stats "e16_kst_skew" ~m:m_tri kst_s;
  metric "e16_kst_combos" (float_of_int combos);
  metric "e16_hypercube_binary_ms" hc_b_ms;
  metric "e16_hypercube_wcoj_ms" hc_w_ms;
  metric "e16_kst_ms" kst_ms;
  (* The same two schedules on the Zipf 4-cycle. *)
  let (hc4, hcs4, _), _ =
    time_ms (fun () ->
        Mpc.Hypercube.run ~strategy:Cq.Eval.Wcoj ~executor:(exec ()) ~p
          Cq.Examples.q_four_cycle cyc_zipf)
  in
  let (kst4, ksts4, combos4), _ =
    time_ms (fun () ->
        Mpc.Kst.run ~executor:(exec ()) ~p Cq.Examples.q_four_cycle cyc_zipf)
  in
  check "4-cycle: hypercube+wcoj = local result" (equal hc4 cyc_zipf_r);
  check "4-cycle: kst = local result" (equal kst4 cyc_zipf_r);
  (* Without a heavy configuration KST is one round of HyperCube. *)
  if combos4 = 0 then
    check "4-cycle: kst without configurations = hypercube's rounds"
      (ksts4.Mpc.Stats.rounds = hcs4.Mpc.Stats.rounds);
  let m4 = List.length cyc_pairs in
  metric_stats "e16_hypercube_cyc" ~m:m4 hcs4;
  metric_stats "e16_kst_cyc" ~m:m4 ksts4;
  metric "e16_kst_cyc_combos" (float_of_int combos4);
  line
    "  4-cycle Zipf, p = %d: hypercube max load %d, kst max load %d (%d \
     configs)"
    p (Mpc.Stats.max_load hcs4) (Mpc.Stats.max_load ksts4) combos4;
  line
    "  shape: the binary plans pay the quadratic intermediate on every\n\
    \  cyclic query once hubs appear; the WCOJ plan's work tracks the\n\
    \  AGM bound, and KST restores balanced per-server load where the\n\
    \  one-round HyperCube is skew-bound."

(* ------------------------------------------------------------------ *)
(* E17: lamp.obs v2 — sketch accuracy, skew reports, live scrape      *)

let e17 () =
  section "E17: one-pass sketches, per-round skew reports, live scrape";
  let n = if !smoke then 20_000 else 200_000 in
  let rng = Random.State.make [| 17 |] in
  (* -- Count-Min / SpaceSaving / reservoir vs exact, on Zipf ids. ----
     The stream is materialized first so the reservoir determinism
     check can replay it. *)
  let domain = 5000 in
  let draw = Relational.Generate.zipf_sampler ~rng ~n:domain ~s:1.2 in
  let stream = Array.init n (fun _ -> draw ()) in
  let exact = Hashtbl.create domain in
  Array.iter
    (fun id ->
      Hashtbl.replace exact id
        (1 + Option.value ~default:0 (Hashtbl.find_opt exact id)))
    stream;
  let truth id = Option.value ~default:0 (Hashtbl.find_opt exact id) in
  let exact_sorted =
    Hashtbl.fold (fun id c acc -> (c, -id) :: acc) exact []
    |> List.sort (fun a b -> compare b a)
    |> List.map (fun (c, nid) -> (-nid, c))
  in
  let epsilon = 0.005 and delta = 0.01 in
  let cm = Obs.Sketch.Cm.create ~epsilon ~delta () in
  let topk = Obs.Sketch.Topk.create ~capacity:64 () in
  let res = Obs.Sketch.Reservoir.create ~capacity:256 () in
  Array.iter
    (fun id ->
      Obs.Sketch.Cm.add cm id;
      Obs.Sketch.Topk.offer topk id;
      Obs.Sketch.Reservoir.offer res id)
    stream;
  let bound = Obs.Sketch.Cm.error_bound cm in
  let one_sided = ref true and over_bound = ref 0 and max_err = ref 0 in
  let sum_err = ref 0 and distinct = ref 0 in
  Hashtbl.iter
    (fun id c ->
      incr distinct;
      let est = Obs.Sketch.Cm.estimate cm id in
      if est < c then one_sided := false;
      let err = est - c in
      if err > bound then incr over_bound;
      if err > !max_err then max_err := err;
      sum_err := !sum_err + err)
    exact;
  check "cm: estimates never undercount (one-sided error)" !one_sided;
  check
    (Printf.sprintf "cm: error <= eps*m = %d on >= 99%% of the %d keys" bound
       !distinct)
    (float_of_int !over_bound <= 0.01 *. float_of_int !distinct);
  let top10 = List.filteri (fun i _ -> i < 10) exact_sorted in
  check "cm: the true top-10 keys estimate within the bound"
    (List.for_all
       (fun (id, c) -> Obs.Sketch.Cm.estimate cm id - c <= bound)
       top10);
  metric "cm_width" (float_of_int (Obs.Sketch.Cm.width cm));
  metric "cm_depth" (float_of_int (Obs.Sketch.Cm.depth cm));
  metric "cm_error_bound" (float_of_int bound);
  metric "cm_max_err" (float_of_int !max_err);
  metric "cm_mean_err" (float_of_int !sum_err /. float_of_int !distinct);
  (* SpaceSaving: any key above total/capacity is guaranteed caught;
     the Zipf head towers over that, so the true top-5 must be there,
     with counts sandwiched by the per-entry overestimate bound. *)
  let ss = Obs.Sketch.Topk.top topk 16 in
  let ss_ids = List.map (fun (id, _, _) -> id) ss in
  let top5 = List.filteri (fun i _ -> i < 5) exact_sorted in
  check "spacesaving: true top-5 all monitored in top-16"
    (List.for_all (fun (id, _) -> List.mem id ss_ids) top5);
  check "spacesaving: count sandwich est - err <= truth <= est"
    (List.for_all
       (fun (id, est, err) ->
         let c = truth id in
         est - err <= c && c <= est)
       ss);
  (* Reservoir: bounded, fed by the whole stream, deterministic. *)
  check "reservoir: saw the stream, kept its capacity"
    (Obs.Sketch.Reservoir.seen res = n
    && List.length (Obs.Sketch.Reservoir.contents res) = 256);
  let res2 = Obs.Sketch.Reservoir.create ~capacity:256 () in
  Array.iter (Obs.Sketch.Reservoir.offer res2) stream;
  check "reservoir: identical stream, identical sample (deterministic)"
    (Obs.Sketch.Reservoir.contents res = Obs.Sketch.Reservoir.contents res2);
  line "  cm %dx%d on %d zipf draws: bound %d, max err %d, mean err %.2f"
    (Obs.Sketch.Cm.width cm) (Obs.Sketch.Cm.depth cm) n bound !max_err
    (float_of_int !sum_err /. float_of_int !distinct);
  (* -- Per-round skew report on a Zipf join, vs exact degrees. ------
     Repartition routes every fact exactly once, keyed on y, so the
     received stream the coordinator sketches is exactly the input:
     the report's top keys must be the true heavy hitters, and its
     estimated max load must track the measured per-server load. *)
  let m_join = if !smoke then 4_000 else 40_000 in
  let p = 16 in
  let draw_y = Relational.Generate.zipf_sampler ~rng ~n:1000 ~s:1.5 in
  let join_inst =
    Relational.Instance.of_facts
      (List.concat
         (List.init m_join (fun i ->
              [
                Relational.Fact.of_list "R"
                  [
                    Relational.Value.int (1_000_000 + i);
                    Relational.Value.int (draw_y ());
                  ];
                Relational.Fact.of_list "S"
                  [
                    Relational.Value.int (draw_y ());
                    Relational.Value.int (2_000_000 + i);
                  ];
              ])))
  in
  (* Exact occurrence count of every value across the delivered facts —
     the quantity the sketch estimates. *)
  let occ = Hashtbl.create 4096 in
  List.iter
    (fun f ->
      List.iter
        (fun v ->
          let k = Relational.Value.to_string v in
          Hashtbl.replace occ k
            (1 + Option.value ~default:0 (Hashtbl.find_opt occ k)))
        (Relational.Tuple.to_list (Relational.Fact.args f)))
    (Relational.Instance.facts join_inst);
  let exact_top =
    Hashtbl.fold (fun k c acc -> (c, k) :: acc) occ []
    |> List.sort (fun a b -> compare b a)
  in
  Obs.Sketch.reset ();
  Obs.Sketch.set_enabled true;
  (* materialize:false — the heavy key's output is quadratic in its
     degree, and the report is entirely about the communication phase. *)
  let _, rj_stats =
    Mpc.Repartition_join.run ~materialize:false ~executor:(exec ()) ~p
      join_inst
  in
  Obs.Sketch.set_enabled false;
  (match Obs.Sketch.latest () with
  | None -> check "skew report recorded for the round" false
  | Some r ->
    check "skew report recorded for the round"
      (r.round = 1 && r.label = "repartition" && r.p = p);
    check "report relations cover the delivered facts"
      (List.fold_left (fun acc (_, c) -> acc + c) 0 r.rels
       = r.total_received
      && List.mem_assoc "R" r.rels && List.mem_assoc "S" r.rels);
    let report_keys = List.map fst r.top in
    let true_top3 =
      List.filteri (fun i _ -> i < 3) exact_top |> List.map snd
    in
    check "report top-5 contains the true top-3 heavy keys"
      (List.for_all (fun k -> List.mem k report_keys) true_top3);
    check "report estimates within the cm bound of exact degrees"
      (List.for_all
         (fun (k, est) ->
           match Hashtbl.find_opt occ k with
           | None -> false
           | Some c -> est >= c && est - c <= r.error_bound)
         r.top);
    let measured = Mpc.Stats.max_load rj_stats in
    check "report max_received = measured max load"
      (r.max_received = measured);
    (* The heavy server also carries its hash-share of light keys, so
       the estimate may sit below the measurement by up to ~2m/p. *)
    let slack = r.error_bound + (2 * ((r.total_received / r.p) + 1)) in
    check "est max load tracks measured load within cm bound + fair share"
      (abs (r.est_max_load - measured) <= slack);
    let eps_measured = Mpc.Stats.epsilon ~m:r.m rj_stats in
    metric "skew_epsilon" eps_measured;
    metric "skew_target_load"
      (Mpc.Stats.target_load ~m:r.m ~p:r.p ~epsilon:eps_measured);
    metric "skew_est_max_load" (float_of_int r.est_max_load);
    metric "skew_measured_max_load" (float_of_int measured);
    metric "skew_error_bound" (float_of_int r.error_bound);
    line "  zipf join, p = %d: measured max %d, report estimate %d (+-%d)" p
      measured r.est_max_load r.error_bound);
  (* -- Telemetry on/off bit-identity, e16-style. -------------------- *)
  let encode i =
    let w = Jobs.Codec.writer () in
    Jobs.Codec.w_instance w i;
    Jobs.Codec.contents w
  in
  let tri =
    Mpc.Workload.relations_from_pairs ~rels:[ "R"; "S"; "T" ]
      (Mpc.Workload.zipf_pairs ~rng ~m:(if !smoke then 500 else 5000)
         ~domain:500 ~s:1.1)
  in
  let run_tri () =
    Mpc.Hypercube.run ~executor:(exec ()) ~p:8 Cq.Examples.q2_triangle tri
  in
  let r_off, s_off, _ = run_tri () in
  let was_enabled = Obs.Trace.is_enabled () in
  Obs.Trace.set_mode (Ring 4096);
  Obs.Trace.set_enabled true;
  Obs.Sketch.set_enabled true;
  let r_on, s_on, _ = run_tri () in
  let scrape_t0 = Unix.gettimeofday () in
  let exposition = Obs.Export.openmetrics () in
  let scrape_us = 1e6 *. (Unix.gettimeofday () -. scrape_t0) in
  Obs.Trace.set_enabled was_enabled;
  Obs.Trace.set_mode Full;
  Obs.Sketch.set_enabled false;
  check "telemetry on: triangle result and Stats.t bit-identical"
    (String.equal (encode r_off) (encode r_on) && s_off = s_on);
  (* -- Scrape: structurally valid OpenMetrics, parseable back. ------ *)
  let samples = Obs.Export.parse_openmetrics exposition in
  check "openmetrics: terminated by # EOF"
    (String.length exposition >= 6
    && String.sub exposition (String.length exposition - 6) 6 = "# EOF\n");
  let value name =
    List.find_map
      (fun (s, _, v) -> if String.equal s name then Some v else None)
      samples
  in
  let bucket_inf name =
    List.find_map
      (fun (s, labels, v) ->
        if String.equal s (name ^ "_bucket")
           && List.assoc_opt "le" labels = Some "+Inf"
        then Some v
        else None)
      samples
  in
  (* Histogram invariant: the +Inf cumulative bucket equals _count,
     for every exposed histogram family. *)
  let hist_bases =
    List.filter_map
      (fun (s, _, _) ->
        if String.length s > 6 && Filename.check_suffix s "_count" then
          Some (String.sub s 0 (String.length s - 6))
        else None)
      samples
    |> List.sort_uniq compare
    |> List.filter (fun base -> bucket_inf base <> None)
  in
  check
    (Printf.sprintf "openmetrics: +Inf bucket = count on all %d histograms"
       (List.length hist_bases))
    (hist_bases <> []
    && List.for_all
         (fun base -> bucket_inf base = value (base ^ "_count"))
         hist_bases);
  check "openmetrics: skew gauges exposed from the latest report"
    (value "lamp_skew_round" <> None
    && value "lamp_skew_est_max_load" <> None);
  metric "exposition_bytes" (float_of_int (String.length exposition));
  metric "exposition_samples" (float_of_int (List.length samples));
  metric "scrape_us" scrape_us;
  line "  scrape: %d bytes, %d samples, %.0f us" (String.length exposition)
    (List.length samples) scrape_us;
  line
    "  shape: the sketches give the coordinator a per-round skew verdict\n\
    \  for the price of a scan it already does — the report names the\n\
    \  keys a skew-resilient schedule would split, bounds their degrees\n\
    \  within eps*m, and the whole telemetry path stays invisible to the\n\
    \  measured Stats.t."

(* ------------------------------------------------------------------ *)
(* E18: the serve path under deterministic wire faults                 *)

let e18 () =
  section "E18: hostile network — chaos proxy, retries, idempotency, shedding";
  (* Every fig1/e1–e5 query family is driven twice: once over a clean
     in-process connection, once through the chaos proxy under a
     seeded wire-fault plan; both must produce byte-identical result
     encodings and identical Stats.t, however many resets, corrupted
     frames, stalls and refused connects the plan injects. *)
  let seeds =
    if !smoke then [ !fault_seed ]
    else [ !fault_seed; !fault_seed + 1; !fault_seed + 2 ]
  in
  (* The test instance mirrors test_serve's: binary R/S/T for the join
     and triangle families (e1–e3), unary S/T and R-loops so fig1's
     boolean queries are satisfiable. *)
  let inst =
    let facts = ref [] in
    let add f = facts := f :: !facts in
    let n = if !smoke then 14 else 20 in
    for i = 0 to n - 1 do
      add (Relational.Fact.of_list "R"
             [ Relational.Value.int i; Relational.Value.int ((i + 1) mod n) ]);
      add (Relational.Fact.of_list "S"
             [ Relational.Value.int i; Relational.Value.int ((i + 3) mod n) ]);
      add (Relational.Fact.of_list "T"
             [ Relational.Value.int ((i * 7) mod n); Relational.Value.int i ]);
      add (Relational.Fact.of_list "T" [ Relational.Value.int i ]);
      add (Relational.Fact.of_list "S" [ Relational.Value.int i ])
    done;
    add (Relational.Fact.of_list "R"
           [ Relational.Value.int 5; Relational.Value.int 5 ]);
    Relational.Instance.of_facts !facts
  in
  let local_queries =
    [
      ("fig1_q1", "H() <- S(x), R(x,x), T(x)");
      ("fig1_q2", "H() <- R(x,x), T(x)");
      ("fig1_q3", "H() <- S(x), R(x,y), T(y)");
      ("fig1_q4", "H() <- R(x,y), T(y)");
      ("e0_join", "H(x,y,z) <- R(x,y), S(y,z)");
      ("e3_triangle", "H(x,y,z) <- R(x,y), S(y,z), T(z,x)");
    ]
  in
  let triangle_q = "H(x,y,z) <- R(x,y), S(y,z), T(z,x)" in
  let encode i =
    let w = Jobs.Codec.writer () in
    Jobs.Codec.w_instance w i;
    Jobs.Codec.contents w
  in
  (* Ground truth straight from the library, Stats.t included. *)
  let expected_local =
    List.map
      (fun (name, q) -> (name, encode (Cq.Eval.eval (Cq.Parser.query q) inst)))
      local_queries
  in
  let exp_hc =
    let r, s, _ = Mpc.Hypercube.run ~executor:(exec ()) ~p:4
        (Cq.Parser.query triangle_q) inst in
    (encode r, s)
  in
  let exp_rep =
    let r, s = Mpc.Repartition_join.run ~executor:(exec ()) ~p:3 inst in
    (encode r, s)
  in
  let exp_grid =
    let r, s = Mpc.Grid_join.run ~executor:(exec ()) ~p:4 inst in
    (encode r, s)
  in
  let sock tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "lamp_e18_%s_%d.sock" tag (Unix.getpid ()))
  in
  let unlink path = try Unix.unlink path with Unix.Unix_error _ -> () in
  (* The fault-plan matrix: each row exercises a distinct failure
     domain of the proxy. Probabilities are chosen so a 12-attempt
     retry budget survives every row with overwhelming margin while
     still forcing plenty of re-execution. *)
  let plans =
    let base =
      [
        ("clean", Faults.Net.zero);
        ("cuts", { Faults.Net.zero with reset = 0.25; truncate = 0.25 });
        ("corrupt", { Faults.Net.zero with flip = 0.5 });
        ("refuse+delay",
         { Faults.Net.zero with refuse = 0.3; accept_delay = 0.5 });
        ("slow", { Faults.Net.zero with stall = 0.5; trickle = 0.5 });
        ("chaos", Faults.Net.chaos);
      ]
    in
    if !smoke then
      List.filter (fun (n, _) -> List.mem n [ "clean"; "cuts"; "chaos" ]) base
    else base
  in
  let mismatches = ref 0 and dup_ingests = ref 0 in
  let total_retries = ref 0 and round = ref 0 in
  let injected = Hashtbl.create 8 in
  List.iter
    (fun seed ->
      List.iter
        (fun (plan_name, spec) ->
          incr round;
          let tag = Printf.sprintf "s%d_%s" seed plan_name in
          let config =
            { Serve.Server.default_config with read_timeout_s = Some 5.0 }
          in
          let server =
            Serve.Server.create ~config ~executor:(exec ()) ()
          in
          Serve.Server.add_instance server ~name:"bench" inst;
          let upath = sock (tag ^ "_up") in
          Serve.Server.listen_unix server ~path:upath;
          let ppath = sock (tag ^ "_px") in
          let proxy =
            Faults.Net.Proxy.start
              ~plan:(Faults.Net.make ~seed spec)
              ~listen:(ADDR_UNIX ppath) ~upstream:(ADDR_UNIX upath) ()
          in
          let r =
            Serve.Resilient.create
              ~config:
                {
                  Serve.Resilient.default_config with
                  max_attempts = 12;
                  seed;
                  budget_s = Some 60.0;
                }
              ~client:("chaos-" ^ tag)
              (fun () ->
                Serve.Client.connect_unix ~timeout_s:3.0 ~path:ppath ())
          in
          Fun.protect
            ~finally:(fun () ->
              Serve.Resilient.close r;
              Faults.Net.Proxy.stop proxy;
              Serve.Server.stop server;
              unlink ppath;
              unlink upath)
            (fun () ->
              let miss name got want =
                if not (String.equal got want) then begin
                  incr mismatches;
                  line "  MISMATCH: seed %d plan %s %s" seed plan_name name
                end
              in
              List.iter
                (fun (name, q) ->
                  let got, _ =
                    Serve.Resilient.execute r ~instance:"bench" (Adhoc q)
                  in
                  miss name (encode got) (List.assoc name expected_local))
                local_queries;
              let check_mode name mode (want, want_st) =
                let got, st =
                  Serve.Resilient.execute r ~instance:"bench" ~mode
                    (Adhoc triangle_q)
                in
                miss name (encode got) want;
                if st <> Some want_st then begin
                  incr mismatches;
                  line "  MISMATCH: seed %d plan %s %s Stats.t" seed plan_name
                    name
                end
              in
              check_mode "e3_hypercube" (Hypercube { p = 4 }) exp_hc;
              check_mode "e1_repartition" (Repartition { p = 3 }) exp_rep;
              check_mode "e2_grid" (Grid { p = 4 }) exp_grid;
              (* Keyed ingest, exactly once per logical op: a retried
                 keyed ingest must replay the original count. Facts are
                 unique per round so each round's first execution
                 reports exactly 2 additions. *)
              let fresh =
                [
                  Relational.Fact.of_list "R"
                    [
                      Relational.Value.int (1000 + (10 * !round));
                      Relational.Value.int (1001 + (10 * !round));
                    ];
                  Relational.Fact.of_list "S"
                    [
                      Relational.Value.int (1001 + (10 * !round));
                      Relational.Value.int (1002 + (10 * !round));
                    ];
                ]
              in
              let added = Serve.Resilient.ingest r ~instance:"bench" fresh in
              if added <> 2 then begin
                incr dup_ingests;
                line "  DUPLICATE-INGEST: seed %d plan %s added=%d (want 2)"
                  seed plan_name added
              end;
              total_retries := !total_retries + Serve.Resilient.retries r;
              List.iter
                (fun (kind, n) ->
                  Hashtbl.replace injected kind
                    (n + Option.value ~default:0
                           (Hashtbl.find_opt injected kind)))
                (Faults.Net.Proxy.injected proxy)))
        plans)
    seeds;
  let injected_total =
    Hashtbl.fold (fun _ n acc -> acc + n) injected 0
  in
  check
    (Printf.sprintf
       "chaos-proxied results bit-identical over %d seed x plan rounds"
       !round)
    (!mismatches = 0);
  check "keyed ingests applied exactly once despite forced retries"
    (!dup_ingests = 0);
  check "the proxy injected real faults" (injected_total > 0);
  check "faults forced client retries" (!total_retries > 0);
  metric "rounds" (float_of_int !round);
  metric "retries" (float_of_int !total_retries);
  metric "injected_faults" (float_of_int injected_total);
  Hashtbl.iter
    (fun kind n -> metric ("injected_" ^ kind) (float_of_int n))
    injected;
  line "  %d rounds, %d retries, %d faults injected (%s)" !round
    !total_retries injected_total
    (String.concat ", "
       (List.sort compare
          (Hashtbl.fold
             (fun k n acc -> Printf.sprintf "%s %d" k n :: acc)
             injected [])));
  (* -- Overload: graceful degradation under a request storm. -------- *)
  (* Blockers hold every in-flight slot: each sends a scan whose answer
     outgrows the socket buffers and reads none of it until released.
     The storm therefore meets a full server by construction, not by
     winning a timing race: it must be shed with typed retry hints,
     the control plane must stay live, and every request the server
     admits (the blockers' included) must be answered correctly. *)
  let storm_clients = if !smoke then 4 else 8 in
  let storm_reqs = if !smoke then 8 else 25 in
  let blockers = 2 in
  let config =
    {
      Serve.Server.default_config with
      max_inflight = blockers;
      max_sessions = storm_clients + blockers + 4;
    }
  in
  let server = Serve.Server.create ~config ~executor:(exec ()) () in
  Serve.Server.add_instance server ~name:"bench" inst;
  (* About 1 MB of answer per scan. *)
  let blob =
    Relational.Instance.of_facts
      (List.init 8_000 (fun i ->
           Relational.Fact.of_list "B"
             [ Relational.Value.int i;
               Relational.Value.str (String.make 120 'x') ]))
  in
  let blob_q = "H(x,y) <- B(x,y)" in
  Serve.Server.add_instance server ~name:"blob" blob;
  let spath = sock "storm" in
  Serve.Server.listen_unix server ~path:spath;
  (* Waits for a server state, for at most 30 s: a state never reached
     shows up in the checks below. *)
  let await cond =
    let give_up = Unix.gettimeofday () +. 30.0 in
    while
      (not (cond (Serve.Server.stats server))) && Unix.gettimeofday () < give_up
    do
      Thread.delay 0.005
    done
  in
  let blocker_fds =
    List.init blockers (fun _ ->
        let fd = Unix.socket ~cloexec:true PF_UNIX SOCK_STREAM 0 in
        Unix.connect fd (ADDR_UNIX spath);
        Serve.Wire.write_request fd
          (Execute { instance = "blob"; plan = Adhoc blob_q; mode = Local });
        fd)
  in
  await (fun s -> s.active_requests = blockers);
  let was_enabled = Obs.Trace.is_enabled () in
  Obs.Trace.set_enabled true;
  let lat_h = Obs.Trace.histogram "e18.storm_latency_us" in
  let storm_mismatch = Atomic.make 0 and storm_err = Atomic.make 0 in
  let expected_storm = Cq.Eval.eval (Cq.Parser.query triangle_q) inst in
  let unhealthy = Atomic.make 0 in
  let stop_probe = Atomic.make false in
  (* A control client probes health throughout the storm: a full
     server must never take the control plane down. *)
  let prober =
    Thread.create
      (fun () ->
        let c = Serve.Client.connect_unix ~timeout_s:5.0 ~path:spath () in
        ignore (Serve.Client.hello ~client:"probe" c);
        while not (Atomic.get stop_probe) do
          (try if not (Serve.Client.health c) then Atomic.incr unhealthy
           with _ -> Atomic.incr unhealthy);
          Thread.delay 0.01
        done;
        Serve.Client.close c)
      ()
  in
  let storm_thread i =
    let r =
      Serve.Resilient.create
        ~config:
          {
            Serve.Resilient.default_config with
            max_attempts = 50;
            seed = 100 + i;
            budget_s = Some 60.0;
          }
        ~client:(Printf.sprintf "storm%d" i)
        (fun () -> Serve.Client.connect_unix ~timeout_s:10.0 ~path:spath ())
    in
    Fun.protect
      ~finally:(fun () -> Serve.Resilient.close r)
      (fun () ->
        for _ = 1 to storm_reqs do
          let t0 = Unix.gettimeofday () in
          match Serve.Resilient.execute r ~instance:"bench" (Adhoc triangle_q)
          with
          | got, _ ->
            Obs.Trace.observe lat_h
              (int_of_float (1e6 *. (Unix.gettimeofday () -. t0)));
            if not (Relational.Instance.equal expected_storm got) then
              Atomic.incr storm_mismatch
          | exception _ -> Atomic.incr storm_err
        done)
  in
  let threads = List.init storm_clients (fun i -> Thread.create storm_thread i) in
  (* Release the blockers once the storm has been refused: each reads
     its whole answer, which frees its slot. *)
  await (fun s -> s.shed >= storm_clients);
  let expected_blob = Cq.Eval.eval (Cq.Parser.query blob_q) blob in
  let blocked_ok =
    List.map
      (fun fd ->
        let rec answer acc =
          match Serve.Wire.read_response fd with
          | Batch facts -> answer (List.rev_append facts acc)
          | Done _ ->
            Relational.Instance.equal expected_blob
              (Relational.Instance.of_facts acc)
          | _ -> false
        in
        Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> answer []))
      blocker_fds
    |> List.for_all Fun.id
  in
  List.iter Thread.join threads;
  Atomic.set stop_probe true;
  Thread.join prober;
  let s = Serve.Server.stats server in
  check "server shed the storm at the in-flight bound" (s.shed > 0);
  check "control plane stayed live through the storm"
    (Atomic.get unhealthy = 0);
  check "every admitted request was answered correctly"
    (blocked_ok && Atomic.get storm_mismatch = 0 && Atomic.get storm_err = 0);
  let lat = Obs.Trace.histogram_snapshot lat_h in
  let p99 = Obs.Trace.percentile lat 0.99 in
  check "storm p99 bounded by the retry budget" (p99 < 60.0 *. 1e6);
  metric "storm_shed" (float_of_int s.shed);
  metric "storm_requests" (float_of_int (storm_clients * storm_reqs));
  metric_percentiles "storm_latency_us" lat;
  line
    "  storm: %d clients x %d requests, %d shed (typed retry hints), \
     latency p50 %.0f us p99 %.0f us"
    storm_clients storm_reqs s.shed
    (Obs.Trace.percentile lat 0.50)
    p99;
  Serve.Server.stop server;
  unlink spath;
  Obs.Trace.set_enabled was_enabled;
  line
    "  shape: determinism survives the hostile network — the fault plan is\n\
    \  a pure function of (seed, connection, direction), the checksum turns\n\
    \  corruption into typed connection loss, idempotency keys turn\n\
    \  at-least-once retries into exactly-once effects, and overload turns\n\
    \  into typed backpressure instead of collapse."

(* ------------------------------------------------------------------ *)

(* E19: durable-storage hardening — a crash-point recovery matrix (a
   simulated power cut at every injected I/O point of every round's
   checkpoint save), kill/resume under sustained slot corruption
   (checksums catch it, recovery falls back a generation), fsck
   precision/recall on hand-corrupted slots, and what the fsync'd
   two-generation store costs vs no checkpointing at all. *)

let e19 () =
  section "E19: disk faults, checkpoint generations, crash-point recovery";
  let scale n = if !smoke then max 10 (n / 10) else n in
  let seed = !fault_seed in
  let rng () = Random.State.make [| 19 |] in
  let tri_i =
    Mpc.Workload.triangle_skew_free ~rng:(rng ()) ~m:(scale 1200)
      ~domain:(scale 400)
  in
  let chain_q = Cq.Parser.query "H(x0,x3) <- R1(x0,x1), R2(x1,x2), R3(x2,x3)" in
  let chain_i =
    Mpc.Workload.acyclic_chain ~rng:(rng ()) ~m:(scale 1500) ~domain:(scale 500)
      ~rels:[ "R1"; "R2"; "R3" ]
  in
  let algorithms : (string * e14_algo) list =
    [
      ( "cascade",
        fun ?job ~faults () ->
          Mpc.Multi_round.cascade_triangle ~executor:(exec ()) ~faults ?job
            ~p:8 tri_i );
      ( "gym",
        fun ?job ~faults () ->
          Mpc.Yannakakis.gym ~executor:(exec ()) ~faults ?job ~p:8 chain_q
            chain_i );
      ( "hypercube",
        fun ?job ~faults () ->
          let r, s, _ =
            Mpc.Hypercube.run ~executor:(exec ()) ~faults ?job ~p:8
              Cq.Examples.q2_triangle tri_i
          in
          (r, s) );
    ]
  in
  let base_dir =
    Filename.concat (Filename.get_temp_dir_name ()) "lamp_bench_e19"
  in
  (try Sys.mkdir base_dir 0o755 with Sys_error _ -> ());
  let dir_counter = ref 0 in
  let fresh_dir () =
    incr dir_counter;
    Filename.concat base_dir (string_of_int !dir_counter)
  in
  let rm_rf dir =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ()
    end
  in
  (* How many checkpoints the algorithm writes: every save is a
     possible crash site. *)
  let rounds_of (run : e14_algo) name =
    let job = Jobs.Supervisor.create ~store:(Jobs.Store.in_memory ()) name in
    ignore (run ~job ~faults:Faults.Plan.none ());
    job.Jobs.Supervisor.checkpoints
  in
  let points =
    [
      ("torn:0.25", Faults.Disk.Torn_write 0.25);
      ("torn:0.75", Faults.Disk.Torn_write 0.75);
      ("pre-rename", Faults.Disk.Before_rename);
      ("post-rename", Faults.Disk.After_rename);
    ]
  in
  let corruption_plans =
    [
      ("rot", { Faults.Disk.zero with rot = 0.6 });
      ("truncate", { Faults.Disk.zero with truncate = 0.5 });
      ("enospc", { Faults.Disk.zero with enospc = 0.7 });
      ("litter", { Faults.Disk.zero with litter = 0.8 });
      ("chaos", Faults.Disk.chaos);
    ]
  in
  line "  fault seed %d; crash points {%s}; corruption plans {%s}" seed
    (String.concat ", " (List.map fst points))
    (String.concat ", " (List.map fst corruption_plans));
  List.iter
    (fun (name, (run : e14_algo)) ->
      let oracle_out, oracle_stats = run ~faults:Faults.Plan.none () in
      let rounds = rounds_of run name in
      (* -- Crash-point matrix: die inside every save, resume clean. -- *)
      let cells = ref 0 and ok = ref 0 and crashed = ref 0 in
      for r = 1 to rounds do
        List.iter
          (fun (_, point) ->
            incr cells;
            let dir = fresh_dir () in
            let plan =
              Faults.Disk.make ~seed
                { Faults.Disk.zero with crash = Some (r, point) }
            in
            let store = Jobs.Store.on_disk ~faults:plan dir in
            let job = Jobs.Supervisor.create ~store name in
            (match run ~job ~faults:Faults.Plan.none () with
            | _ -> ()
            | exception Jobs.Io.Crashed _ ->
              incr crashed;
              (* The "reboot": a fresh store on the same directory, the
                 one-shot crash disarmed — it already fired. *)
              let store = Jobs.Store.on_disk dir in
              let job = Jobs.Supervisor.create ~resume:true ~store name in
              let out, stats = run ~job ~faults:Faults.Plan.none () in
              if
                Relational.Instance.equal oracle_out out
                && stats = oracle_stats
              then incr ok);
            rm_rf dir)
          points
      done;
      check
        (Printf.sprintf
           "%s: all %d crash-point cells (%d rounds x %d points) resume \
            bit-identical"
           name !cells rounds (List.length points))
        (!crashed = !cells && !ok = !cells);
      metric (name ^ "_crash_cells") (float_of_int !cells);
      (* -- Kill/resume with the store under sustained corruption. ---- *)
      let cells2 = ref 0 and ok2 = ref 0 in
      let fallbacks = ref 0 and lost = ref 0 and injected = ref [] in
      List.iter
        (fun (_, spec) ->
          let plan = Faults.Disk.make ~seed spec in
          for r = 1 to rounds do
            incr cells2;
            let dir = fresh_dir () in
            let store = Jobs.Store.on_disk ~faults:plan dir in
            let job =
              Jobs.Supervisor.create ~kill_after_round:r ~store name
            in
            (match run ~job ~faults:Faults.Plan.none () with
            | _ -> ()
            | exception Jobs.Supervisor.Killed _ ->
              (* Resume through the SAME faulty store: recovery has to
                 verify checksums and fall back generations while the
                 plan keeps damaging fresh saves. *)
              let job = Jobs.Supervisor.create ~resume:true ~store name in
              let out, stats = run ~job ~faults:Faults.Plan.none () in
              fallbacks := !fallbacks + Jobs.Store.fallbacks store;
              lost := !lost + Jobs.Store.lost store;
              List.iter
                (fun (k, v) ->
                  injected :=
                    (k, v + Option.value ~default:0 (List.assoc_opt k !injected))
                    :: List.remove_assoc k !injected)
                (Jobs.Store.injected store);
              if
                Relational.Instance.equal oracle_out out
                && stats = oracle_stats
              then incr ok2);
            rm_rf dir
          done)
        corruption_plans;
      check
        (Printf.sprintf
           "%s: all %d corrupted kill/resume cells converge bit-identical"
           name !cells2)
        (!ok2 = !cells2);
      line
        "    %-10s %d generation fallbacks, %d restarts from scratch; \
         injected {%s}"
        name !fallbacks !lost
        (String.concat ", "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s:%d" k v)
              (List.sort compare !injected)));
      metric (name ^ "_corrupt_cells") (float_of_int !cells2);
      metric (name ^ "_fallbacks") (float_of_int !fallbacks);
      metric (name ^ "_lost") (float_of_int !lost))
    algorithms;
  (* -- fsck precision/recall on hand-corrupted slots. ---------------- *)
  let dir = fresh_dir () in
  let store = Jobs.Store.on_disk dir in
  let payload j r = Printf.sprintf "%s-round-%d-" j r ^ String.make 64 'x' in
  let jobs = [ "alpha"; "beta"; "gamma" ] in
  List.iter
    (fun j ->
      Jobs.Store.save store ~job:j ~round:1 (payload j 1);
      Jobs.Store.save store ~job:j ~round:2 (payload j 2))
    jobs;
  let all_ok reports =
    reports <> []
    && List.for_all
         (fun r ->
           match r.Jobs.Store.verdict with `Ok _ -> true | _ -> false)
         reports
  in
  check "fsck on a clean directory: zero false positives"
    (all_ok (Jobs.Store.fsck dir));
  let rewrite path f =
    let ic = open_in_bin path in
    let raw = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let b = Bytes.of_string raw in
    f b;
    let oc = open_out_bin path in
    output_bytes oc b;
    close_out oc
  in
  let file j = Filename.concat dir (j ^ ".ckpt") in
  (* Flipped byte mid-payload, truncated header, zeroed generation
     field (bytes 24-31: after the 16-byte magic string and the 8-byte
     version), plus planted tmp litter. *)
  rewrite (file "alpha") (fun b ->
      let o = Bytes.length b / 2 in
      Bytes.set b o (Char.chr (Char.code (Bytes.get b o) lxor 0x40)));
  Unix.truncate (file "beta") 10;
  rewrite (file "gamma") (fun b -> Bytes.fill b 24 8 '\000');
  let oc = open_out_bin (Filename.concat dir "alpha.ckpt.tmp.9") in
  output_string oc "stale";
  close_out oc;
  let corrupted = [ "alpha.ckpt"; "beta.ckpt"; "gamma.ckpt" ] in
  let reports = Jobs.Store.fsck dir in
  let undetected =
    List.filter
      (fun f ->
        match
          List.find_opt (fun r -> r.Jobs.Store.file = f) reports
        with
        | Some { Jobs.Store.verdict = `Ok _; _ } | None -> true
        | Some _ -> false)
      corrupted
  in
  List.iter (fun f -> line "  CORRUPT-UNDETECTED %s" f) undetected;
  check "fsck flags every injected corruption" (undetected = []);
  let false_positives =
    List.filter
      (fun r ->
        match r.Jobs.Store.verdict with
        | `Ok _ | `Stale -> false
        | _ -> not (List.mem r.Jobs.Store.file corrupted))
      reports
  in
  check "fsck zero false positives on undamaged generations"
    (false_positives = []);
  check "fsck --repair leaves a healthy directory"
    (Jobs.Store.healthy (Jobs.Store.fsck ~repair:true dir)
    && all_ok (Jobs.Store.fsck dir));
  let store2 = Jobs.Store.on_disk dir in
  check "repaired slots load a good generation bit-identically"
    (List.for_all
       (fun j ->
         match Jobs.Store.load store2 ~job:j with
         | Some (r, p) -> (r = 1 || r = 2) && p = payload j r
         | None -> false)
       jobs);
  metric "fsck_corruptions" (float_of_int (List.length corrupted));
  metric "fsck_undetected" (float_of_int (List.length undetected));
  metric "fsck_false_positives" (float_of_int (List.length false_positives));
  rm_rf dir;
  (* -- Overhead: what the fsync'd two-generation store costs. -------- *)
  let reps = if !smoke then 1 else 3 in
  let timed f = timed_median ~reps f in
  line "  checkpoint overhead: none vs fsync'd disk vs disk under chaos \
        (median of %d)" reps;
  List.iter
    (fun (name, (run : e14_algo)) ->
      let (clean_out, _), t_none =
        timed (fun () -> run ~faults:Faults.Plan.none ())
      in
      let with_store mkstore =
        let last = ref None in
        let (out, _), t =
          timed (fun () ->
              let store = mkstore () in
              let job = Jobs.Supervisor.create ~store name in
              last := Some store;
              run ~job ~faults:Faults.Plan.none ())
        in
        (out, t, Option.get !last)
      in
      let dir = fresh_dir () in
      let disk_out, t_disk, _ = with_store (fun () -> Jobs.Store.on_disk dir) in
      rm_rf dir;
      let dir = fresh_dir () in
      let chaos = Faults.Disk.make ~seed Faults.Disk.chaos in
      let chaos_out, t_chaos, chaos_store =
        with_store (fun () -> Jobs.Store.on_disk ~faults:chaos dir)
      in
      rm_rf dir;
      check
        (Printf.sprintf "%s: checkpointed outputs bit-identical (synced, \
                         chaos)" name)
        (Relational.Instance.equal clean_out disk_out
        && Relational.Instance.equal clean_out chaos_out);
      let pct base t =
        if base > 0.0 then 100.0 *. ((t /. base) -. 1.0) else 0.0
      in
      line
        "  %-10s none %6.1f ms   disk+fsync %6.1f ms (%+5.1f%%)   \
         disk+chaos %6.1f ms (%+5.1f%%)   injected {%s}"
        name t_none t_disk (pct t_none t_disk) t_chaos (pct t_none t_chaos)
        (String.concat ", "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s:%d" k v)
              (Jobs.Store.injected chaos_store)));
      metric (name ^ "_ckpt_none_ms") t_none;
      metric (name ^ "_ckpt_disk_ms") t_disk;
      metric (name ^ "_ckpt_chaos_ms") t_chaos)
    algorithms;
  (try Sys.rmdir base_dir with Sys_error _ -> ());
  line
    "  shape: every crash point inside a save is survivable — the slot\n\
    \  directory always holds a verifiable generation (fsync'd rename,\n\
    \  verified retention), recovery refuses unverified bytes and falls\n\
    \  back a generation instead, and fsck's checksum sweep flags exactly\n\
    \  the damaged files; the price is fsyncs on the checkpoint path."

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("e1", e1);
    ("e2", e2);
    ("e3", e3);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e8", e8);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e12", e12);
    ("e13", e13);
    ("e14", e14);
    ("e15", e15);
    ("e16", e16);
    ("e17", e17);
    ("e18", e18);
    ("e19", e19);
  ]

(* One parser for every [--key=value] flag: the key names its handler
   below, so adding a flag is one table row, not another hand-counted
   [String.sub]. *)
let kv_flag key a =
  let prefix = "--" ^ key ^ "=" in
  if String.starts_with ~prefix a then
    Some (String.sub a (String.length prefix) (String.length a - String.length prefix))
  else None

(* The --timings engine summary: the MPC rounds among [events], from
   the [runtime] span the cluster records per round. *)
let pp_engine ppf events =
  let int k args =
    match List.assoc_opt k args with Some (Obs.Trace.Int n) -> n | _ -> 0
  in
  let rounds, wall, tasks, steals =
    List.fold_left
      (fun ((rounds, wall, tasks, steals) as acc) -> function
        | Obs.Trace.Span { cat = "runtime"; dur; args; _ } ->
          (rounds + 1, wall +. dur, tasks + int "tasks" args,
           steals + int "steals" args)
        | _ -> acc)
      (0, 0.0, 0, 0) events
  in
  Fmt.pf ppf "%d rounds, %.1f ms in the engine, %d tasks, %d steals" rounds
    (1000.0 *. wall) tasks steals

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let want_timings = List.mem "--timings" args in
  let backend = ref "seq" in
  let domains = ref None in
  let json = ref None in
  let trace_out = ref None in
  let jsonl_out = ref None in
  let flags =
    [
      ("backend", fun v -> backend := v);
      ( "domains",
        fun v ->
          match int_of_string_opt v with
          | Some n -> domains := Some n
          | None -> line "ignoring malformed --domains=%s" v );
      ("json", fun v -> json := Some v);
      ( "fault-seed",
        fun v ->
          match int_of_string_opt v with
          | Some n -> fault_seed := n
          | None -> line "ignoring malformed --fault-seed=%s" v );
      ("faults", fun v -> faults_spec := v);
      ("trace", fun v -> trace_out := Some v);
      ("jsonl", fun v -> jsonl_out := Some v);
    ]
  in
  let selected =
    List.filter
      (fun a ->
        match List.find_map (fun (k, set) -> Option.map set (kv_flag k a)) flags with
        | Some () -> false
        | None ->
          if a = "--smoke" then begin
            smoke := true;
            false
          end
          else a <> "--timings" && a <> "--")
      args
  in
  let pool =
    match !backend with
    | "seq" -> None
    | "pool" ->
      let pool = Runtime.Pool.create ?domains:!domains () in
      executor := Runtime.Executor.pool pool;
      Some pool
    | other ->
      line "unknown backend %S (expected seq or pool)" other;
      exit 2
  in
  line "backend: %s (%d worker%s)"
    (Runtime.Executor.backend_name (exec ()))
    (Runtime.Executor.workers (exec ()))
    (if Runtime.Executor.workers (exec ()) = 1 then "" else "s");
  if want_timings || !trace_out <> None || !jsonl_out <> None then
    Obs.Trace.set_enabled true;
  let to_run =
    if selected = [] then experiments
    else
      List.filter_map
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> Some (name, f)
          | None ->
            line "unknown experiment %S (available: %s, --timings)" name
              (String.concat ", " (List.map fst experiments));
            None)
        selected
  in
  List.iter
    (fun (name, f) ->
      current_exp := name;
      recorded := (name, ref []) :: !recorded;
      let seen = List.length (Obs.Trace.events ()) in
      let (), wall = time_ms (fun () -> Obs.Trace.span ~cat:"bench" name f) in
      metric "wall_ms" wall;
      current_exp := "";
      if want_timings then
        line "  [%s wall %.0f ms; engine: %a]" name wall pp_engine
          (List.filteri (fun i _ -> i >= seen) (Obs.Trace.events ())))
    to_run;
  if want_timings then timings ();
  Option.iter Runtime.Pool.shutdown pool;
  Option.iter write_json !json;
  Option.iter
    (fun path ->
      Obs.Export.write_chrome path;
      line "wrote %s" path)
    !trace_out;
  Option.iter
    (fun path ->
      Obs.Export.write_jsonl path;
      line "wrote %s" path)
    !jsonl_out;
  line ""
