open Lamp_relational
open Lamp_cq
open Lamp_mpc

let instance = Alcotest.testable Instance.pp Instance.equal
let inst = Instance.of_string
let rng () = Random.State.make [| 2026 |]

(* ------------------------------------------------------------------ *)
(* Cluster                                                             *)

let test_cluster_partition () =
  let i = Generate.matching ~size:100 ~offset:0 () in
  let c = Cluster.create ~p:8 i in
  Array.iter
    (fun local ->
      let n = Instance.cardinal local in
      Alcotest.(check bool) "balanced" true (n = 12 || n = 13))
    (Cluster.locals c);
  Alcotest.check instance "partition preserves data" i (Cluster.union_all c)

let test_cluster_round () =
  let i = inst "R(0,1). R(2,3). R(4,5). R(6,7)" in
  let c = Cluster.create ~p:2 i in
  (* Send every fact to the server given by its first value mod 2. *)
  Cluster.run_round c
    {
      Cluster.communicate =
        Cluster.route_by (fun f ->
            match (Fact.args f).(0) with
            | Value.Int k -> [ k / 2 mod 2 ]
            | Value.Str _ -> [ 0 ]);
      compute = Cluster.keep_received;
    };
  Alcotest.check instance "κ0 data" (inst "R(0,1). R(4,5)") (Cluster.local c 0);
  Alcotest.check instance "κ1 data" (inst "R(2,3). R(6,7)") (Cluster.local c 1);
  let s = Cluster.stats c in
  Alcotest.(check int) "one round" 1 (Stats.rounds s);
  Alcotest.(check int) "total = m" 4 (Stats.total_communication s);
  Alcotest.(check int) "max = 2" 2 (Stats.max_load s)

let test_cluster_bad_destination () =
  let c = Cluster.create ~p:2 (inst "R(1,2)") in
  Alcotest.check_raises "destination out of range" (Invalid_argument "")
    (fun () ->
      try
        Cluster.run_round c
          {
            Cluster.communicate = Cluster.route_by (fun _ -> [ 7 ]);
            compute = Cluster.keep_received;
          }
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_stats_epsilon () =
  let s =
    {
      Stats.p = 16;
      initial_max = 0;
      rounds = [ { Stats.max_received = 64; total_received = 1024 } ];
      recoveries = [];
    }
  in
  (* m = 1024, load 64 = m/p: ε = 0. *)
  Alcotest.(check bool) "eps 0" true (Float.abs (Stats.epsilon ~m:1024 s) < 1e-9);
  let s1 =
    { s with Stats.rounds = [ { Stats.max_received = 256; total_received = 1024 } ] }
  in
  (* load 256 = m/p^(1/2): ε = 1/2. *)
  Alcotest.(check bool) "eps 1/2" true
    (Float.abs (Stats.epsilon ~m:1024 s1 -. 0.5) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Skew detection                                                      *)

let test_heavy_hitters () =
  let i = Workload.join_skewed ~m:50 in
  let heavy = Skew.heavy_hitters i ~rel:"R" ~pos:1 ~threshold:10 in
  Alcotest.(check int) "one heavy hitter" 1 (Value.Set.cardinal heavy);
  Alcotest.(check bool) "hub detected" true (Value.Set.mem (Value.int 0) heavy);
  let light, heavy_part = Skew.split i ~rel:"R" ~pos:1 ~heavy in
  Alcotest.(check int) "R all heavy" 50 (Instance.cardinal heavy_part);
  Alcotest.(check int) "S untouched" 50 (Instance.cardinal light)

let test_degrees () =
  let i = inst "R(1,5). R(2,5). R(3,6)" in
  let d = Skew.degrees i ~rel:"R" ~pos:1 in
  Alcotest.(check (option int)) "deg 5" (Some 2) (Value.Map.find_opt (Value.int 5) d);
  Alcotest.(check (option int)) "deg 6" (Some 1) (Value.Map.find_opt (Value.int 6) d);
  Alcotest.(check int) "max degree" 2 (Skew.max_degree i ~rel:"R" ~pos:1)

(* ------------------------------------------------------------------ *)
(* Repartition join (E1)                                               *)

let test_repartition_correct () =
  let i = Workload.join_skew_free ~m:200 in
  let result, stats = Repartition_join.run ~p:8 i in
  Alcotest.check instance "join result" (Eval.eval Examples.q1_join i) result;
  Alcotest.(check int) "no replication" (Instance.cardinal i)
    (Stats.total_communication stats)

let test_repartition_skew_free_load () =
  let i = Workload.join_skew_free ~m:400 in
  let _, stats = Repartition_join.run ~p:8 i in
  let m = Instance.cardinal i in
  (* Perfectly balanced up to hashing noise: within 3x of m/p. *)
  Alcotest.(check bool) "load near m/p" true (Stats.max_load stats < 3 * m / 8)

let test_repartition_skewed_load () =
  let i = Workload.join_skewed ~m:200 in
  let _, stats = Repartition_join.run ~p:8 i in
  (* The hub's 2m tuples all land on one server. *)
  Alcotest.(check bool) "load ~ m" true
    (Stats.max_load stats >= Instance.cardinal i)

(* ------------------------------------------------------------------ *)
(* Grid join (E2)                                                      *)

let test_grid_correct () =
  let i = Workload.join_skew_free ~m:150 in
  let result, _ = Grid_join.run ~p:16 i in
  Alcotest.check instance "grid join result" (Eval.eval Examples.q1_join i) result

let test_grid_skew_resilient () =
  let i = Workload.join_skewed ~m:200 in
  let result, stats = Grid_join.run ~p:16 i in
  Alcotest.check instance "correct under skew" (Eval.eval Examples.q1_join i) result;
  let m = Instance.cardinal i in
  (* Load ~ 2 · (m/2) / √p = m/4 here; allow slack for rounding. *)
  Alcotest.(check bool) "load ~ m/sqrt p" true (Stats.max_load stats <= m * 2 / 4);
  (* But replication makes total communication ~ m√p. *)
  Alcotest.(check bool) "replication cost" true
    (Stats.total_communication stats >= 3 * m)

(* ------------------------------------------------------------------ *)
(* Shares / HyperCube (E3, E5)                                         *)

let test_shares_enumeration () =
  let count = ref 0 in
  Shares.enumerate_share_vectors ~p:8 [ "x"; "y" ] (fun _ -> incr count);
  (* Pairs (a,b) with a*b <= 8: a=1:8, 2:4, 3:2, 4:2, 5..8:1 = 20. *)
  Alcotest.(check int) "vectors" 20 !count

let test_shares_replication () =
  let shares = [ ("x", 2); ("y", 3); ("z", 4) ] in
  let atom = Ast.atom "R" [ Ast.Var "x"; Ast.Var "y" ] in
  Alcotest.(check int) "replicated across z" 4
    (Shares.atom_replication ~shares atom)

let test_shares_optimal_triangle () =
  let sizes _ = 1000 in
  let shares, _ =
    Shares.optimize ~objective:Shares.Max_load ~p:8 ~sizes Examples.q2_triangle
  in
  List.iter
    (fun (v, s) -> Alcotest.(check int) (Printf.sprintf "share %s" v) 2 s)
    shares

let test_shares_lp_rounded () =
  let shares = Shares.lp_rounded ~p:64 Examples.q2_triangle in
  Alcotest.(check bool) "budget respected" true (Shares.product shares <= 64);
  List.iter (fun (_, s) -> Alcotest.(check int) "p^(1/3)" 4 s) shares

let test_shares_objectives_differ () =
  (* For the join R(x,y) ⋈ S(y,z) with |R| >> |S|, minimizing the total
     communication favours replicating the small relation; minimizing
     max load must still balance the big one. Both must put their budget
     on y when relations are equal. *)
  let sizes _ = 100 in
  let shares_ml, _ =
    Shares.optimize ~objective:Shares.Max_load ~p:8 ~sizes Examples.q1_join
  in
  let y_share = List.assoc "y" shares_ml in
  Alcotest.(check int) "join budget on y" 8 y_share

let test_hypercube_triangle_correct () =
  let i = Workload.triangle_skew_free ~rng:(rng ()) ~m:150 ~domain:40 in
  let result, _, shares = Hypercube.run ~p:8 Examples.q2_triangle i in
  Alcotest.check instance "hypercube result"
    (Eval.eval Examples.q2_triangle i)
    result;
  Alcotest.(check bool) "shares fit" true (Shares.product shares <= 8)

(* The paper's one-round bound m/p^(1/e) for a query exponent e, with
   m the total input size. *)
let load_bound ~m ~p e =
  float_of_int m /. Float.pow (float_of_int p) (1.0 /. e)

let test_hypercube_load_bound () =
  let i = Workload.triangle_skew_free ~rng:(rng ()) ~m:2000 ~domain:2000 in
  let m = Instance.cardinal i and p = 8 in
  let _, stats, _ = Hypercube.run ~p Examples.q2_triangle i in
  (* Theory: skew-free HyperCube load is m/p^{1/τ*}, m/4 for the
     triangle (τ* = 3/2) at p = 8. c = 2 allows for hashing slack. *)
  let bound =
    2.0 *. load_bound ~m ~p (Hypergraph.tau_star Examples.q2_triangle)
  in
  Alcotest.(check bool)
    (Printf.sprintf "load %d <= %.0f" (Stats.max_load stats) bound)
    true
    (float_of_int (Stats.max_load stats) <= bound)

let test_hypercube_two_atoms () =
  let i = Workload.join_skew_free ~m:100 in
  let result, _, _ = Hypercube.run ~p:4 Examples.q1_join i in
  Alcotest.check instance "join via hypercube" (Eval.eval Examples.q1_join i) result

(* ------------------------------------------------------------------ *)
(* Multi-round (E3, E4)                                                *)

let test_cascade_triangle_correct () =
  let i = Workload.triangle_skew_free ~rng:(rng ()) ~m:120 ~domain:25 in
  let expected =
    Workload.rename_relation ~from_rel:"K" ~to_rel:"H"
      (Eval.eval Examples.q2_triangle i)
  in
  let result, stats = Multi_round.cascade_triangle ~p:8 i in
  Alcotest.check instance "cascade result" expected result;
  Alcotest.(check int) "two rounds" 2 (Stats.rounds stats)

let test_skew_resilient_correct_no_skew () =
  let i = Workload.triangle_skew_free ~rng:(rng ()) ~m:120 ~domain:60 in
  let result, _, heavy = Multi_round.skew_resilient_triangle ~p:8 i in
  Alcotest.check instance "no-skew result" (Eval.eval Examples.q2_triangle i) result;
  Alcotest.(check int) "no heavy hitters" 0 heavy

let test_skew_resilient_correct_skewed () =
  let i =
    Workload.triangle_y_skew ~rng:(rng ()) ~m:300 ~domain:100 ~heavy_fraction:0.5
  in
  let result, _, heavy = Multi_round.skew_resilient_triangle ~p:8 i in
  Alcotest.check instance "skewed result" (Eval.eval Examples.q2_triangle i) result;
  Alcotest.(check bool) "hub detected" true (heavy >= 1)

let test_skew_resilient_beats_one_round () =
  let i =
    Workload.triangle_y_skew ~rng:(rng ()) ~m:3000 ~domain:3000
      ~heavy_fraction:0.8
  in
  let _, stats1, _ = Hypercube.run ~p:27 Examples.q2_triangle i in
  let _, stats2, _ = Multi_round.skew_resilient_triangle ~p:27 i in
  Alcotest.(check bool)
    (Printf.sprintf "two-round %d < one-round %d" (Stats.max_load stats2)
       (Stats.max_load stats1))
    true
    (Stats.max_load stats2 < Stats.max_load stats1)

(* A fact whose arity matches no triangle atom goes nowhere: both
   multi-round plans answer what local evaluation does, with and
   without heavy values. *)
let test_multi_round_wrong_arity () =
  let i = inst "R(1). T(1). R(1,2,3). R(1,2). R(4,2). S(2,3). T(3,1)." in
  let expected = Eval.eval Examples.q2_triangle i in
  let cascade, _ = Multi_round.cascade_triangle ~p:4 i in
  Alcotest.check instance "cascade" expected cascade;
  List.iter
    (fun threshold ->
      let skew, _, _ = Multi_round.skew_resilient_triangle ?threshold ~p:4 i in
      Alcotest.check instance "skew-resilient" expected skew)
    [ None; Some 1 ]

(* ------------------------------------------------------------------ *)
(* Yannakakis / GYM (E6)                                               *)

let chain3 = Parser.query "H(x0,x3) <- R1(x0,x1), R2(x1,x2), R3(x2,x3)"

let test_yannakakis_matches_eval () =
  let i =
    Workload.acyclic_chain ~rng:(rng ()) ~m:80 ~domain:12
      ~rels:[ "R1"; "R2"; "R3" ]
  in
  Alcotest.check instance "chain query" (Eval.eval chain3 i)
    (Yannakakis.eval_acyclic chain3 i)

let test_yannakakis_cyclic_raises () =
  Alcotest.check_raises "cyclic" Yannakakis.Cyclic (fun () ->
      ignore (Yannakakis.eval_acyclic Examples.q2_triangle Instance.empty))

let test_reduction_report () =
  (* A dangling R1 tuple must be eliminated by the full reducer. *)
  let i = inst "R1(1,2). R1(8,9). R2(2,3). R3(3,4)" in
  let report = Yannakakis.reduction_report chain3 i in
  let r1 =
    List.find (fun ((a : Ast.atom), _, _) -> a.Ast.rel = "R1") report
  in
  let _, before, after = r1 in
  Alcotest.(check int) "before" 2 before;
  Alcotest.(check int) "after" 1 after

let test_gym_correct () =
  let i =
    Workload.acyclic_chain ~rng:(rng ()) ~m:60 ~domain:10
      ~rels:[ "R1"; "R2"; "R3" ]
  in
  let result, stats = Yannakakis.gym ~p:4 chain3 i in
  Alcotest.check instance "gym result" (Eval.eval chain3 i) result;
  Alcotest.(check bool) "multiple rounds" true (Stats.rounds stats >= 3)

let test_gym_star () =
  let q = Parser.query "H(x) <- R1(x,a), R2(x,b), R3(x,c)" in
  let i =
    Workload.acyclic_chain ~rng:(rng ()) ~m:50 ~domain:8
      ~rels:[ "R1"; "R2"; "R3" ]
  in
  let result, _ = Yannakakis.gym ~p:4 q i in
  Alcotest.check instance "gym star" (Eval.eval q i) result

(* ------------------------------------------------------------------ *)
(* KST near-optimal multi-round algorithm                              *)

(* The inputs several KST checks share. *)
let skew_free_triangle () =
  Workload.triangle_skew_free ~rng:(rng ()) ~m:400 ~domain:60

let skewed_triangle () =
  Workload.triangle_y_skew ~rng:(rng ()) ~m:800 ~domain:100
    ~heavy_fraction:0.3

let zipf_four_cycle () =
  Workload.cycle_from_pairs ~rels:[ "R"; "S"; "T"; "U" ]
    (Workload.zipf_pairs ~rng:(rng ()) ~m:500 ~domain:100 ~s:1.2)

let kst_check ?threshold ~p q i =
  let expect = Eval.eval q i in
  let got, _, combos = Kst.run ~seed:7 ?threshold ~p q i in
  Alcotest.check instance "kst = sequential" expect got;
  combos

let test_kst_triangle_skew_free () =
  ignore (kst_check ~p:4 Examples.q2_triangle (skew_free_triangle ()))

let test_kst_triangle_skewed () =
  let i =
    Workload.triangle_y_skew ~rng:(rng ()) ~m:600 ~domain:80
      ~heavy_fraction:0.3
  in
  (* A low explicit threshold forces the heavy decomposition on. *)
  let combos = kst_check ~threshold:8 ~p:6 Examples.q2_triangle i in
  Alcotest.(check bool) "heavy configurations planned" true (combos > 0)

let test_kst_four_cycle_zipf () =
  let i = zipf_four_cycle () in
  ignore (kst_check ~p:5 Examples.q_four_cycle i);
  ignore (kst_check ~threshold:5 ~p:5 Examples.q_four_cycle i)

let test_kst_clique () =
  let pairs = Workload.zipf_pairs ~rng:(rng ()) ~m:400 ~domain:80 ~s:1.1 in
  let i = Workload.clique_from_pairs ~k:3 pairs in
  ignore (kst_check ~p:4 (Examples.q_clique 3) i)

let test_kst_constants_repeated () =
  let q = Parser.query "H(x,y) <- R(x,x), S(x,y), S(y,0)" in
  let i =
    Instance.of_facts
      (List.concat
         [
           List.init 40 (fun k -> Fact.of_ints "R" [ k mod 7; k mod 7 ]);
           List.init 60 (fun k -> Fact.of_ints "S" [ k mod 7; k mod 11 ]);
           List.init 11 (fun k -> Fact.of_ints "S" [ k; 0 ]);
         ])
  in
  ignore (kst_check ~p:3 q i);
  ignore (kst_check ~threshold:4 ~p:3 q i)

let test_kst_head_is_body_relation () =
  (* The head relation R is also a body relation: round-1 answers and
     input R facts must not be confused in round 2. *)
  let q = Parser.query "R(x,z) <- R(x,y), S(y,z)" in
  let i =
    Workload.triangle_y_skew ~rng:(Random.State.make [| 5 |]) ~m:300
      ~domain:40 ~heavy_fraction:0.4
  in
  let combos = kst_check ~threshold:4 ~p:4 q i in
  Alcotest.(check bool) "heavy configurations planned" true (combos > 0)

let test_kst_single_server () =
  let i =
    Workload.triangle_y_skew ~rng:(rng ()) ~m:300 ~domain:50
      ~heavy_fraction:0.3
  in
  ignore (kst_check ~p:1 Examples.q2_triangle i);
  ignore (kst_check ~threshold:4 ~p:1 Examples.q2_triangle i)

let test_kst_deterministic () =
  let i =
    Workload.triangle_y_skew ~rng:(rng ()) ~m:400 ~domain:60
      ~heavy_fraction:0.3
  in
  let a, sa, ca = Kst.run ~seed:7 ~threshold:8 ~p:6 Examples.q2_triangle i in
  let b, sb, cb = Kst.run ~seed:7 ~threshold:8 ~p:6 Examples.q2_triangle i in
  Alcotest.check instance "same output" a b;
  Alcotest.(check bool) "bit-identical stats" true (sa = sb);
  Alcotest.(check int) "same configurations" ca cb

let test_kst_load_vs_hypercube () =
  (* KST exists to beat one-round HyperCube under skew: on the skewed
     triangle its max load must not exceed HyperCube's. *)
  let i = skewed_triangle () in
  let _, hs, _ = Hypercube.run ~seed:7 ~p:6 Examples.q2_triangle i in
  let _, ks, _ = Kst.run ~seed:7 ~threshold:8 ~p:6 Examples.q2_triangle i in
  Alcotest.(check bool)
    (Printf.sprintf "kst %d <= hypercube %d" (Stats.max_load ks)
       (Stats.max_load hs))
    true
    (Stats.max_load ks <= Stats.max_load hs)

let test_kst_load_bound () =
  (* Ketsman–Suciu–Tao: load Õ(m/p^{1/ρ*}) on every input, skewed or
     not. c = 2 stands for the hashing slack and the polylog factor
     the Õ hides. *)
  let c = 2.0 in
  let check name ?threshold ~p q i =
    let _, ks, combos = Kst.run ~seed:7 ?threshold ~p q i in
    let bound =
      c *. load_bound ~m:(Instance.cardinal i) ~p (Hypergraph.rho_star q)
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: kst %d <= %.0f (%d configurations)" name
         (Stats.max_load ks) bound combos)
      true
      (float_of_int (Stats.max_load ks) <= bound)
  in
  check "skewed triangle" ~threshold:8 ~p:6 Examples.q2_triangle
    (skewed_triangle ());
  check "skew-free triangle" ~p:4 Examples.q2_triangle (skew_free_triangle ());
  check "Zipf 4-cycle" ~p:5 Examples.q_four_cycle (zipf_four_cycle ())

let test_kst_skew_free_is_hypercube () =
  (* With no heavy configuration nothing is staged: KST is one round of
     HyperCube, load for load. *)
  let same name ~p q i =
    let _, ks, combos = Kst.run ~seed:7 ~p q i in
    let _, hs, _ = Hypercube.run ~seed:7 ~p q i in
    Alcotest.(check int) (name ^ ": no heavy configuration") 0 combos;
    Alcotest.(check int) (name ^ ": one round") 1 (Stats.rounds ks);
    Alcotest.(check bool) (name ^ ": hypercube's round loads") true
      (ks.Stats.rounds = hs.Stats.rounds)
  in
  same "skew-free triangle" ~p:4 Examples.q2_triangle (skew_free_triangle ());
  same "Zipf 4-cycle" ~p:5 Examples.q_four_cycle (zipf_four_cycle ())

let test_hypercube_wcoj_strategy_identical () =
  (* The plan backend changes local evaluation only: same routing, so
     bit-identical stats, and the same output. *)
  let i =
    Workload.triangle_y_skew ~rng:(rng ()) ~m:500 ~domain:70
      ~heavy_fraction:0.2
  in
  let rb, sb, shb = Hypercube.run ~seed:3 ~p:8 Examples.q2_triangle i in
  let rw, sw, shw =
    Hypercube.run ~seed:3 ~strategy:Eval.Wcoj ~p:8 Examples.q2_triangle i
  in
  Alcotest.check instance "same output" rb rw;
  Alcotest.(check bool) "bit-identical stats" true (sb = sw);
  Alcotest.(check bool) "same shares" true (shb = shw)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let graph_workload_arb =
  QCheck.make
    ~print:(Fmt.str "%a" Instance.pp)
    QCheck.Gen.(
      let* seed = int_range 0 100_000 in
      let rng = Random.State.make [| seed |] in
      return (Workload.triangle_skew_free ~rng ~m:40 ~domain:10))

let prop_hypercube_matches_sequential =
  QCheck.Test.make ~name:"hypercube = sequential evaluation" ~count:40
    (QCheck.pair graph_workload_arb (QCheck.make QCheck.Gen.(int_range 1 20)))
    (fun (i, p) ->
      let result, _, _ = Hypercube.run ~p Examples.q2_triangle i in
      Instance.equal result (Eval.eval Examples.q2_triangle i))

let prop_repartition_matches_sequential =
  QCheck.Test.make ~name:"repartition join = sequential" ~count:40
    (QCheck.pair
       (QCheck.make
          QCheck.Gen.(
            let* seed = int_range 0 100_000 in
            let rng = Random.State.make [| seed |] in
            return
              (Instance.union
                 (Generate.random_relation ~rng ~rel:"R" ~arity:2 ~size:30
                    ~domain:8 ())
                 (Generate.random_relation ~rng ~rel:"S" ~arity:2 ~size:30
                    ~domain:8 ()))))
       (QCheck.make QCheck.Gen.(int_range 1 16)))
    (fun (i, p) ->
      let result, _ = Repartition_join.run ~p i in
      Instance.equal result (Eval.eval Examples.q1_join i))

let acyclic_queries =
  [
    chain3;
    Parser.query "H(x1) <- R1(x0,x1), R2(x1,x2)";
    Parser.query "H(x,w) <- R1(x,y), R2(y,z), R3(y,w)";
    Parser.query "H(x) <- R1(x,y)";
  ]

let prop_yannakakis_matches_eval =
  QCheck.Test.make ~name:"Yannakakis = naive evaluation (acyclic)" ~count:40
    (QCheck.pair
       (QCheck.make
          QCheck.Gen.(
            let* seed = int_range 0 100_000 in
            let rng = Random.State.make [| seed |] in
            return
              (Workload.acyclic_chain ~rng ~m:25 ~domain:6
                 ~rels:[ "R1"; "R2"; "R3" ])))
       (QCheck.make (QCheck.Gen.oneofl acyclic_queries)))
    (fun (i, q) ->
      Instance.equal (Yannakakis.eval_acyclic q i) (Eval.eval q i))

let prop_gym_matches_eval =
  QCheck.Test.make ~name:"GYM = naive evaluation (acyclic)" ~count:25
    (QCheck.pair
       (QCheck.make
          QCheck.Gen.(
            let* seed = int_range 0 100_000 in
            let rng = Random.State.make [| seed |] in
            return
              (Workload.acyclic_chain ~rng ~m:25 ~domain:6
                 ~rels:[ "R1"; "R2"; "R3" ])))
       (QCheck.make (QCheck.Gen.oneofl acyclic_queries)))
    (fun (i, q) ->
      let result, _ = Yannakakis.gym ~p:4 q i in
      Instance.equal result (Eval.eval q i))

let prop_skew_resilient_correct =
  QCheck.Test.make ~name:"skew-resilient triangle is correct" ~count:25
    (QCheck.make
       QCheck.Gen.(
         let* seed = int_range 0 100_000 in
         let* fraction = oneofl [ 0.0; 0.3; 0.7 ] in
         let rng = Random.State.make [| seed |] in
         return
           (Workload.triangle_y_skew ~rng ~m:60 ~domain:20
              ~heavy_fraction:fraction)))
    (fun i ->
      let result, _, _ = Multi_round.skew_resilient_triangle ~p:8 i in
      Instance.equal result (Eval.eval Examples.q2_triangle i))

let prop_kst_matches_sequential =
  QCheck.Test.make ~name:"KST = sequential evaluation" ~count:40
    (QCheck.triple
       (QCheck.make
          QCheck.Gen.(
            let* seed = int_range 0 100_000 in
            let* fraction = oneofl [ 0.0; 0.3; 0.7 ] in
            let rng = Random.State.make [| seed |] in
            return
              (Workload.triangle_y_skew ~rng ~m:60 ~domain:20
                 ~heavy_fraction:fraction)))
       (QCheck.make QCheck.Gen.(int_range 1 12))
       (QCheck.make QCheck.Gen.(oneofl [ None; Some 2; Some 6 ])))
    (fun (i, p, threshold) ->
      let result, _, _ = Kst.run ?threshold ~p Examples.q2_triangle i in
      Instance.equal result (Eval.eval Examples.q2_triangle i))

let () =
  Alcotest.run "lamp_mpc"
    [
      ( "cluster",
        [
          Alcotest.test_case "partition" `Quick test_cluster_partition;
          Alcotest.test_case "round" `Quick test_cluster_round;
          Alcotest.test_case "bad destination" `Quick test_cluster_bad_destination;
          Alcotest.test_case "epsilon" `Quick test_stats_epsilon;
        ] );
      ( "skew",
        [
          Alcotest.test_case "heavy hitters" `Quick test_heavy_hitters;
          Alcotest.test_case "degrees" `Quick test_degrees;
        ] );
      ( "repartition join",
        [
          Alcotest.test_case "correct" `Quick test_repartition_correct;
          Alcotest.test_case "skew-free load" `Quick test_repartition_skew_free_load;
          Alcotest.test_case "skewed load" `Quick test_repartition_skewed_load;
        ] );
      ( "grid join",
        [
          Alcotest.test_case "correct" `Quick test_grid_correct;
          Alcotest.test_case "skew resilient" `Quick test_grid_skew_resilient;
        ] );
      ( "shares",
        [
          Alcotest.test_case "enumeration" `Quick test_shares_enumeration;
          Alcotest.test_case "replication" `Quick test_shares_replication;
          Alcotest.test_case "optimal triangle" `Quick test_shares_optimal_triangle;
          Alcotest.test_case "lp rounded" `Quick test_shares_lp_rounded;
          Alcotest.test_case "join budget" `Quick test_shares_objectives_differ;
        ] );
      ( "hypercube",
        [
          Alcotest.test_case "triangle correct" `Quick test_hypercube_triangle_correct;
          Alcotest.test_case "load bound" `Quick test_hypercube_load_bound;
          Alcotest.test_case "two atoms" `Quick test_hypercube_two_atoms;
        ] );
      ( "multi round",
        [
          Alcotest.test_case "cascade correct" `Quick test_cascade_triangle_correct;
          Alcotest.test_case "skew-resilient, no skew" `Quick
            test_skew_resilient_correct_no_skew;
          Alcotest.test_case "skew-resilient, skewed" `Quick
            test_skew_resilient_correct_skewed;
          Alcotest.test_case "beats one round" `Quick
            test_skew_resilient_beats_one_round;
          Alcotest.test_case "facts of another arity" `Quick
            test_multi_round_wrong_arity;
        ] );
      ( "yannakakis",
        [
          Alcotest.test_case "matches eval" `Quick test_yannakakis_matches_eval;
          Alcotest.test_case "cyclic raises" `Quick test_yannakakis_cyclic_raises;
          Alcotest.test_case "reduction report" `Quick test_reduction_report;
          Alcotest.test_case "gym correct" `Quick test_gym_correct;
          Alcotest.test_case "gym star" `Quick test_gym_star;
        ] );
      ( "kst",
        [
          Alcotest.test_case "triangle, skew-free" `Quick
            test_kst_triangle_skew_free;
          Alcotest.test_case "triangle, skewed" `Quick test_kst_triangle_skewed;
          Alcotest.test_case "4-cycle, Zipf" `Quick test_kst_four_cycle_zipf;
          Alcotest.test_case "clique" `Quick test_kst_clique;
          Alcotest.test_case "constants/repeated vars" `Quick
            test_kst_constants_repeated;
          Alcotest.test_case "p = 1" `Quick test_kst_single_server;
          Alcotest.test_case "deterministic" `Quick test_kst_deterministic;
          Alcotest.test_case "head is a body relation" `Quick
            test_kst_head_is_body_relation;
          Alcotest.test_case "load vs hypercube" `Quick
            test_kst_load_vs_hypercube;
          Alcotest.test_case "load bound" `Quick test_kst_load_bound;
          Alcotest.test_case "skew-free is hypercube" `Quick
            test_kst_skew_free_is_hypercube;
          Alcotest.test_case "hypercube wcoj backend identical" `Quick
            test_hypercube_wcoj_strategy_identical;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_hypercube_matches_sequential;
            prop_repartition_matches_sequential;
            prop_yannakakis_matches_eval;
            prop_gym_matches_eval;
            prop_skew_resilient_correct;
            prop_kst_matches_sequential;
          ] );
    ]
