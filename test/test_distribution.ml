open Lamp_relational
open Lamp_cq
open Lamp_distribution

let instance = Alcotest.testable Instance.pp Instance.equal
let inst = Instance.of_string
let parse = Parser.query

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)

let test_grid_roundtrip () =
  let g = Grid.make [| 2; 3; 4 |] in
  Alcotest.(check int) "size" 24 (Grid.size g);
  for n = 0 to 23 do
    Alcotest.(check int) "roundtrip" n (Grid.encode g (Grid.decode g n))
  done

let test_grid_matching () =
  let g = Grid.make [| 2; 3; 4 |] in
  let count partial =
    let c = ref 0 in
    Grid.matching g partial (fun _ -> incr c);
    !c
  in
  Alcotest.(check int) "all free" 24 (count [| None; None; None |]);
  Alcotest.(check int) "one pinned" 12 (count [| Some 1; None; None |]);
  Alcotest.(check int) "two pinned" 4 (count [| Some 0; Some 2; None |]);
  Alcotest.(check int) "all pinned" 1 (count [| Some 1; Some 2; Some 3 |])

let test_grid_errors () =
  Alcotest.check_raises "empty dims" (Invalid_argument "")
    (fun () ->
      try ignore (Grid.make [||]) with Invalid_argument _ -> raise (Invalid_argument ""));
  let g = Grid.make [| 2; 2 |] in
  Alcotest.check_raises "bad coord" (Invalid_argument "")
    (fun () ->
      try ignore (Grid.encode g [| 2; 0 |])
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* ------------------------------------------------------------------ *)
(* Example 4.1                                                         *)

let ie = inst "R(a,b). R(b,a). R(b,c). S(a,a). S(c,a)"
let qe = Examples.qe_example_4_1

(* P1: all R-facts to both nodes; S(d1,d2) to κ0 if d1 = d2 else κ1. *)
let p1 =
  let universe = Value.set_of_list [ Value.str "a"; Value.str "b"; Value.str "c" ] in
  Policy.make ~universe ~name:"P1" ~nodes:[ 0; 1 ] (fun node f ->
      match Fact.rel f with
      | "R" -> true
      | "S" ->
        let args = Fact.args f in
        if Value.equal args.(0) args.(1) then node = 0 else node = 1
      | _ -> false)

(* P2: all R-facts to κ0, all S-facts to κ1. *)
let p2 =
  Policy.make ~name:"P2" ~nodes:[ 0; 1 ] (fun node f ->
      match Fact.rel f with
      | "R" -> node = 0
      | "S" -> node = 1
      | _ -> false)

let test_example_4_1_loc_inst () =
  Alcotest.check instance "loc κ0"
    (inst "R(a,b). R(b,a). R(b,c). S(a,a)")
    (Policy.loc_inst p1 ie 0);
  Alcotest.check instance "loc κ1"
    (inst "R(a,b). R(b,a). R(b,c). S(c,a)")
    (Policy.loc_inst p1 ie 1)

let test_example_4_1_distributed_eval () =
  (* [Qe,P1](Ie) = Qe(Ie): H(a,a) from κ0 and H(a,c) from κ1. *)
  Alcotest.check instance "P1 correct here" (Eval.eval qe ie)
    (Distributed.eval qe p1 ie);
  (* P2 separates R from S entirely: nothing can be derived. *)
  Alcotest.check instance "P2 yields empty" Instance.empty
    (Distributed.eval qe p2 ie)

(* ------------------------------------------------------------------ *)
(* Hash policies                                                       *)

let test_hash_policy_partition () =
  (* Repartition join policy: every listed fact goes to exactly one
     node. *)
  let p =
    Policy.hash_by_position ~name:"repartition" ~p:4 [ ("R", 1); ("S", 0) ]
  in
  let i = inst "R(1,2). R(3,4). S(2,9). S(4,7)" in
  Instance.iter
    (fun f ->
      Alcotest.(check int) "exactly one node" 1
        (List.length (Policy.responsible_nodes p f)))
    i;
  (* R(x,y) and S(y,z) with equal join key meet at the same node. *)
  let r_nodes = Policy.responsible_nodes p (Fact.of_ints "R" [ 1; 2 ])
  and s_nodes = Policy.responsible_nodes p (Fact.of_ints "S" [ 2; 9 ]) in
  Alcotest.(check (list int)) "co-located" r_nodes s_nodes

let test_hash_policy_unlisted () =
  let drop = Policy.hash_by_position ~name:"d" ~p:2 [ ("R", 0) ] in
  let bcast =
    Policy.hash_by_position ~unlisted:Policy.Broadcast ~name:"b" ~p:2
      [ ("R", 0) ]
  in
  let t = Fact.of_ints "T" [ 1 ] in
  Alcotest.(check int) "dropped" 0 (List.length (Policy.responsible_nodes drop t));
  Alcotest.(check int) "broadcast" 2 (List.length (Policy.responsible_nodes bcast t))

let test_hash_policy_join_correct () =
  (* The repartition join computes the join correctly on this skew-free
     instance. *)
  let p =
    Policy.hash_by_position ~name:"repartition" ~p:3 [ ("R", 1); ("S", 0) ]
  in
  let i = inst "R(1,2). R(3,4). R(5,6). S(2,10). S(4,11). S(9,12)" in
  Alcotest.check instance "join" (Eval.eval Examples.q1_join i)
    (Distributed.eval Examples.q1_join p i)

(* Every route in lamp hashes through [Policy.hash_values], so these
   pinned buckets guard every pinned load and Stats.t digest: a change
   to the rule fails here first. *)
let test_hash_values_pinned () =
  let v = Value.int and s = Value.str in
  List.iter
    (fun (seed, buckets, vs, bucket) ->
      Alcotest.(check int)
        (Fmt.str "seed %d, %d buckets, [%s]" seed buckets
           (String.concat "; " (List.map Value.to_string vs)))
        bucket
        (Policy.hash_values ~seed ~buckets vs);
      match vs with
      | [ x ] ->
        Alcotest.(check int) "hash_value is the one-value case" bucket
          (Policy.hash_value ~seed ~buckets x)
      | _ -> ())
    [
      (0, 8, [ v 42 ], 1);
      (-1, 16, [ v 10 ], 11);
      (5, 3, [ s "a" ], 0);
      (7, 27, [ s "a"; v 1 ], 24);
      (7919, 64, [ v 1; v 2 ], 45);
      (2000, 5, [ v 3; s "x"; v 5 ], 2);
      (0, 10, [], 0);
    ];
  Alcotest.check_raises "no buckets"
    (Invalid_argument "Policy.hash_values: buckets < 1") (fun () ->
      ignore (Policy.hash_values ~seed:0 ~buckets:0 [ v 1 ]))

(* ------------------------------------------------------------------ *)
(* HyperCube policy                                                    *)

let triangle_shares = [ ("x", 2); ("y", 2); ("z", 2) ]

let test_hypercube_size () =
  let _, grid =
    Policy.hypercube ~name:"hc" ~query:Examples.q2_triangle
      ~shares:triangle_shares ()
  in
  Alcotest.(check int) "8 nodes" 8 (Grid.size grid)

let test_hypercube_replication () =
  (* Each R(a,b) tuple pins x and y, leaving z free: replicated α_z
     times (Example 3.2). *)
  Alcotest.(check int) "R replication" 2
    (Policy.hypercube_replication ~query:Examples.q2_triangle
       ~shares:triangle_shares (Fact.of_ints "R" [ 1; 2 ]));
  Alcotest.(check int) "S replication" 2
    (Policy.hypercube_replication ~query:Examples.q2_triangle
       ~shares:triangle_shares (Fact.of_ints "S" [ 1; 2 ]))

let test_hypercube_valuations_meet () =
  (* Strong saturation on concrete data: for every valuation, the three
     required facts share a node. *)
  let policy, _ =
    Policy.hypercube ~name:"hc" ~query:Examples.q2_triangle
      ~shares:[ ("x", 2); ("y", 3); ("z", 2) ] ()
  in
  let values = List.init 4 Value.int in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun c ->
              let facts =
                [
                  Fact.of_list "R" [ a; b ];
                  Fact.of_list "S" [ b; c ];
                  Fact.of_list "T" [ c; a ];
                ]
              in
              let meet =
                List.filter
                  (fun n ->
                    List.for_all (fun f -> Policy.responsible policy n f) facts)
                  (Policy.nodes policy)
              in
              Alcotest.(check bool) "valuation meets" true (meet <> []))
            values)
        values)
    values

let test_hypercube_eval_correct () =
  let rng = Random.State.make [| 42 |] in
  let r = Generate.random_relation ~rng ~rel:"R" ~arity:2 ~size:60 ~domain:10 ()
  and s = Generate.random_relation ~rng ~rel:"S" ~arity:2 ~size:60 ~domain:10 ()
  and t = Generate.random_relation ~rng ~rel:"T" ~arity:2 ~size:60 ~domain:10 () in
  let i = Instance.union r (Instance.union s t) in
  let policy, _ =
    Policy.hypercube ~name:"hc" ~query:Examples.q2_triangle
      ~shares:triangle_shares ()
  in
  Alcotest.check instance "hypercube computes the triangle query"
    (Eval.eval Examples.q2_triangle i)
    (Distributed.eval Examples.q2_triangle policy i)

let test_hypercube_self_join () =
  (* Triangle over a single relation: every E-fact must serve all three
     atom roles. *)
  let q = Examples.full_triangle_e in
  let policy, _ =
    Policy.hypercube ~name:"hc" ~query:q ~shares:triangle_shares ()
  in
  let rng = Random.State.make [| 7 |] in
  let i = Generate.random_graph ~rng ~nodes:8 ~edges:60 () in
  Alcotest.check instance "self-join triangle" (Eval.eval q i)
    (Distributed.eval q policy i)

let test_hypercube_constants () =
  let q = parse "H(x,y) <- R(x,y), S(y, 1)" in
  let policy, _ =
    Policy.hypercube ~name:"hc" ~query:q ~shares:[ ("x", 2); ("y", 2) ] ()
  in
  let i = inst "R(5,6). S(6,1). S(6,2). R(7,8). S(8,1)" in
  Alcotest.check instance "constants respected" (Eval.eval q i)
    (Distributed.eval q policy i);
  (* A fact contradicting the constant belongs nowhere. *)
  Alcotest.(check int) "S(6,2) dropped" 0
    (List.length (Policy.responsible_nodes policy (Fact.of_ints "S" [ 6; 2 ])))

let test_hypercube_rejects_bad_shares () =
  Alcotest.check_raises "missing share" (Invalid_argument "")
    (fun () ->
      try
        ignore
          (Policy.hypercube ~name:"hc" ~query:Examples.q2_triangle
             ~shares:[ ("x", 2) ] ())
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* ------------------------------------------------------------------ *)
(* Range partitioning (the paper's Customer example)                   *)

let test_range_policy () =
  (* Customers partitioned by a threshold on the area code (first
     column): codes < 500 on node 0, the rest on node 1. *)
  let policy =
    Policy.range ~name:"customer-ranges" ~rel:"Customer" ~pos:0
      [ Value.int 500 ]
  in
  Alcotest.(check int) "two nodes" 2 (List.length (Policy.nodes policy));
  Alcotest.(check (list int)) "low code on node 0" [ 0 ]
    (Policy.responsible_nodes policy (Fact.of_ints "Customer" [ 123; 7 ]));
  Alcotest.(check (list int)) "high code on node 1" [ 1 ]
    (Policy.responsible_nodes policy (Fact.of_ints "Customer" [ 900; 8 ]));
  Alcotest.(check int) "other relations dropped" 0
    (List.length (Policy.responsible_nodes policy (Fact.of_ints "Order" [ 1 ])))

let test_range_policy_multiple_thresholds () =
  let policy =
    Policy.range ~name:"r" ~rel:"R" ~pos:0 [ Value.int 10; Value.int 20 ]
  in
  Alcotest.(check int) "three nodes" 3 (List.length (Policy.nodes policy));
  let node v =
    match Policy.responsible_nodes policy (Fact.of_ints "R" [ v ]) with
    | [ n ] -> n
    | _ -> Alcotest.fail "expected exactly one node"
  in
  Alcotest.(check int) "below" 0 (node 5);
  Alcotest.(check int) "middle" 1 (node 15);
  Alcotest.(check int) "boundary goes up" 2 (node 20);
  Alcotest.(check int) "above" 2 (node 99)

let test_range_policy_covers_instance () =
  (* Every Customer fact lands on exactly one node: the partition is a
     primary horizontal fragmentation. *)
  let policy =
    Policy.range ~name:"r" ~rel:"Customer" ~pos:0 [ Value.int 50 ]
  in
  let i =
    Instance.of_facts (List.init 40 (fun k -> Fact.of_ints "Customer" [ k * 3; k ]))
  in
  Instance.iter
    (fun f ->
      Alcotest.(check int) "exactly one node" 1
        (List.length (Policy.responsible_nodes policy f)))
    i;
  Alcotest.(check int) "no replication" (Instance.cardinal i)
    (Distributed.total_load policy i)

(* ------------------------------------------------------------------ *)
(* Domain-guided policies                                              *)

let test_domain_guided () =
  let assignment v =
    match v with
    | Value.Int i -> Node.Set.singleton (i mod 3)
    | Value.Str _ -> Node.Set.singleton 0
  in
  let p = Policy.domain_guided ~name:"dg" ~nodes:[ 0; 1; 2 ] assignment in
  (* R(1,2) contains 1 and 2: nodes α(1) ∪ α(2) = {1, 2}. *)
  Alcotest.(check (list int)) "union of assignments" [ 1; 2 ]
    (Policy.responsible_nodes p (Fact.of_ints "R" [ 1; 2 ]));
  (* Every fact with value a is wholly present on each node of α(a). *)
  let i = inst "R(1,2). R(1,4). R(4,7). S(2,2)" in
  let node1 = Policy.loc_inst p i 1 in
  Instance.iter
    (fun f ->
      if Value.Set.mem (Value.int 1) (Fact.adom f) then
        Alcotest.(check bool) "facts of 1 on κ1" true (Instance.mem f node1))
    i

let test_broadcast_all () =
  let p = Policy.broadcast_all ~name:"bc" ~p:3 () in
  let i = inst "R(1,2). S(3,4)" in
  List.iter
    (fun n -> Alcotest.check instance "full copy" i (Policy.loc_inst p i n))
    (Policy.nodes p)

(* ------------------------------------------------------------------ *)
(* Loads                                                               *)

let test_loads () =
  let p =
    Policy.hash_by_position ~name:"h" ~p:2 [ ("R", 0) ]
  in
  let i = inst "R(0,1). R(2,3). R(4,5). R(6,7)" in
  Alcotest.(check int) "total load = m (no replication)" 4
    (Distributed.total_load p i);
  Alcotest.(check bool) "max load >= m/p" true (Distributed.max_load p i >= 2)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let graph_arb =
  QCheck.make
    ~print:(Fmt.str "%a" Instance.pp)
    QCheck.Gen.(
      let* seed = int_range 0 10_000 in
      let rng = Random.State.make [| seed |] in
      return
        (Instance.union
           (Generate.random_relation ~rng ~rel:"R" ~arity:2 ~size:20 ~domain:6 ())
           (Instance.union
              (Generate.random_relation ~rng ~rel:"S" ~arity:2 ~size:20 ~domain:6 ())
              (Generate.random_relation ~rng ~rel:"T" ~arity:2 ~size:20 ~domain:6 ()))))

let prop_distributed_subset =
  (* Soundness of one-round evaluation for monotone queries: local
     results never contain facts outside Q(I). *)
  QCheck.Test.make ~name:"[Q,P](I) ⊆ Q(I) for CQs" ~count:50 graph_arb
    (fun i ->
      let policy, _ =
        Policy.hypercube ~name:"hc" ~query:Examples.q2_triangle
          ~shares:triangle_shares ()
      in
      Instance.subset
        (Distributed.eval Examples.q2_triangle policy i)
        (Eval.eval Examples.q2_triangle i))

let prop_hypercube_correct_any_seed =
  QCheck.Test.make ~name:"hypercube correct under any hash seed" ~count:50
    (QCheck.pair graph_arb (QCheck.make QCheck.Gen.(int_range 0 1000)))
    (fun (i, seed) ->
      let policy, _ =
        Policy.hypercube ~seed ~name:"hc" ~query:Examples.q2_triangle
          ~shares:[ ("x", 2); ("y", 2); ("z", 3) ] ()
      in
      Instance.equal
        (Distributed.eval Examples.q2_triangle policy i)
        (Eval.eval Examples.q2_triangle i))

let prop_broadcast_always_correct =
  QCheck.Test.make ~name:"broadcast-all policy is parallel-correct" ~count:50
    graph_arb
    (fun i ->
      let p = Policy.broadcast_all ~name:"bc" ~p:3 () in
      Instance.equal
        (Distributed.eval Examples.qe_example_4_1 p i)
        (Eval.eval Examples.qe_example_4_1 i))

(* HyperCube policies compute a fact's nodes directly from its grid
   cells; the list must be the per-node filter's, element for element
   and in the same order. Shares include 1, queries have self-joins,
   constants and repeated variables, and facts come from a small domain
   so that constants and repeats both match and mismatch. *)
let prop_hypercube_route_is_filter =
  let queries =
    [
      Examples.q2_triangle;
      parse "H(x,y) <- R(x,x), S(x,y), S(y,0)";
      parse "H(x,z) <- R(x,y), R(y,z), S(z,x,z)";
      parse "H(x) <- R(x,1), T(x), S(x,x,2)";
    ]
  in
  let gen =
    QCheck.Gen.(
      let* query = oneofl queries in
      let vars = List.sort_uniq String.compare (Ast.body_vars query) in
      let* shares = list_repeat (List.length vars) (int_range 1 3) in
      let* seed = int_range 0 1000 in
      let fact =
        let* rel = oneofl [ "R"; "S"; "T"; "U" ] in
        let* args = list_size (int_range 1 3) (int_range 0 4) in
        return (Fact.of_ints rel args)
      in
      let* facts = list_size (return 40) fact in
      return (query, List.combine vars shares, seed, facts))
  in
  let print (q, shares, seed, facts) =
    Fmt.str "%a shares=[%s] seed=%d facts=%a" Ast.pp q
      (String.concat ";"
         (List.map (fun (v, s) -> Printf.sprintf "%s=%d" v s) shares))
      seed
      Fmt.(list ~sep:sp Fact.pp)
      facts
  in
  QCheck.Test.make ~name:"hypercube routing = per-node filter" ~count:200
    (QCheck.make ~print gen)
    (fun (query, shares, seed, facts) ->
      let policy, _ = Policy.hypercube ~seed ~name:"hc" ~query ~shares () in
      List.for_all
        (fun f ->
          Policy.responsible_nodes policy f
          = List.filter
              (fun n -> Policy.responsible policy n f)
              (Policy.nodes policy))
        facts)

let () =
  Alcotest.run "lamp_distribution"
    [
      ( "grid",
        [
          Alcotest.test_case "roundtrip" `Quick test_grid_roundtrip;
          Alcotest.test_case "matching" `Quick test_grid_matching;
          Alcotest.test_case "errors" `Quick test_grid_errors;
        ] );
      ( "example 4.1",
        [
          Alcotest.test_case "loc-inst" `Quick test_example_4_1_loc_inst;
          Alcotest.test_case "distributed eval" `Quick
            test_example_4_1_distributed_eval;
        ] );
      ( "hash",
        [
          Alcotest.test_case "partition" `Quick test_hash_policy_partition;
          Alcotest.test_case "unlisted" `Quick test_hash_policy_unlisted;
          Alcotest.test_case "join correct" `Quick test_hash_policy_join_correct;
          Alcotest.test_case "hash_values pinned" `Quick test_hash_values_pinned;
        ] );
      ( "hypercube",
        [
          Alcotest.test_case "grid size" `Quick test_hypercube_size;
          Alcotest.test_case "replication" `Quick test_hypercube_replication;
          Alcotest.test_case "valuations meet" `Quick test_hypercube_valuations_meet;
          Alcotest.test_case "eval correct" `Quick test_hypercube_eval_correct;
          Alcotest.test_case "self join" `Quick test_hypercube_self_join;
          Alcotest.test_case "constants" `Quick test_hypercube_constants;
          Alcotest.test_case "bad shares" `Quick test_hypercube_rejects_bad_shares;
        ] );
      ( "range",
        [
          Alcotest.test_case "customer example" `Quick test_range_policy;
          Alcotest.test_case "multiple thresholds" `Quick
            test_range_policy_multiple_thresholds;
          Alcotest.test_case "covers instance" `Quick
            test_range_policy_covers_instance;
        ] );
      ( "domain guided",
        [
          Alcotest.test_case "assignment union" `Quick test_domain_guided;
          Alcotest.test_case "broadcast all" `Quick test_broadcast_all;
        ] );
      ("loads", [ Alcotest.test_case "loads" `Quick test_loads ]);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_distributed_subset;
            prop_hypercube_correct_any_seed;
            prop_broadcast_always_correct;
            prop_hypercube_route_is_filter;
          ] );
    ]
