open Lamp_relational
open Lamp_cq
open Lamp_mpc

let instance = Alcotest.testable Instance.pp Instance.equal
let parse = Parser.query
let rng () = Random.State.make [| 77 |]

let check_valid q d =
  match Decomposition.validate q d with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "invalid decomposition: %s" msg

let four_cycle = parse "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)"
let chain = parse "H(x0,x3) <- R1(x0,x1), R2(x1,x2), R3(x2,x3)"

(* ------------------------------------------------------------------ *)
(* Decomposition construction and validity                             *)

let test_singleton_valid () =
  check_valid Examples.q2_triangle (Decomposition.singleton Examples.q2_triangle);
  Alcotest.(check int) "width = all atoms" 3
    (Decomposition.width (Decomposition.singleton Examples.q2_triangle))

let test_of_join_forest_valid () =
  match Hypergraph.gyo chain with
  | None -> Alcotest.fail "chain is acyclic"
  | Some forest ->
    let d = Decomposition.of_join_forest forest in
    check_valid chain d;
    Alcotest.(check int) "width 1" 1 (Decomposition.width d)

let test_min_fill_triangle () =
  let d = Decomposition.min_fill Examples.q2_triangle in
  check_valid Examples.q2_triangle d;
  (* The triangle has no tree decomposition of primal width < 3, so one
     bag holds all three atoms. *)
  Alcotest.(check int) "width 3" 3 (Decomposition.width d)

let test_min_fill_four_cycle () =
  let d = Decomposition.min_fill four_cycle in
  check_valid four_cycle d;
  Alcotest.(check bool) "width <= 3" true (Decomposition.width d <= 3);
  Alcotest.(check bool) "width >= 2" true (Decomposition.width d >= 2)

let test_min_fill_acyclic () =
  let d = Decomposition.min_fill chain in
  check_valid chain d

let test_validate_missing_atom () =
  (* A decomposition covering only two of the triangle's atoms. *)
  let bad =
    [
      {
        Decomposition.bag =
          {
            Decomposition.vars = Decomposition.Sset.of_list [ "x"; "y"; "z" ];
            atoms = [ Ast.atom "R" [ Ast.Var "x"; Ast.Var "y" ] ];
          };
        children = [];
      };
    ]
  in
  match Decomposition.validate Examples.q2_triangle bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "must reject missing atoms"

let test_validate_running_intersection () =
  (* Two sibling bags sharing y under a root without y. *)
  let bag vars atoms = { Decomposition.vars = Decomposition.Sset.of_list vars; atoms } in
  let r = Ast.atom "R" [ Ast.Var "x"; Ast.Var "y" ] in
  let s = Ast.atom "S" [ Ast.Var "y"; Ast.Var "z" ] in
  let q = parse "H(x) <- R(x,y), S(y,z)" in
  let broken =
    [
      {
        Decomposition.bag = bag [ "x" ] [];
        children =
          [
            { Decomposition.bag = bag [ "x"; "y" ] [ r ]; children = [] };
            { Decomposition.bag = bag [ "y"; "z" ] [ s ]; children = [] };
          ];
      };
    ]
  in
  match Decomposition.validate q broken with
  | Error msg ->
    Alcotest.(check bool) "mentions running intersection" true
      (String.length msg > 0)
  | Ok () -> Alcotest.fail "must reject broken running intersection"

(* ------------------------------------------------------------------ *)
(* GYM over decompositions                                             *)

let triangle_instance () =
  Workload.triangle_skew_free ~rng:(rng ()) ~m:80 ~domain:15

let test_gym_ghd_triangle () =
  let i = triangle_instance () in
  let result, stats, width =
    Gym_ghd.run ~p:8 Examples.q2_triangle i
  in
  Alcotest.check instance "triangle via GHD"
    (Lamp_cq.Eval.eval Examples.q2_triangle i)
    result;
  Alcotest.(check int) "single bag" 3 width;
  Alcotest.(check bool) "at least one round" true (Stats.rounds stats >= 1)

let test_gym_ghd_four_cycle () =
  let rng = rng () in
  let i =
    List.fold_left
      (fun acc rel ->
        Instance.union acc
          (Generate.random_relation ~rng ~rel ~arity:2 ~size:60 ~domain:10 ()))
      Instance.empty [ "R"; "S"; "T"; "U" ]
  in
  let result, stats, width = Gym_ghd.run ~p:8 four_cycle i in
  Alcotest.check instance "4-cycle via GHD" (Lamp_cq.Eval.eval four_cycle i) result;
  Alcotest.(check bool) "bags joined over tree" true (Stats.rounds stats >= 2);
  Alcotest.(check bool) "nontrivial width" true (width >= 2)

let test_gym_ghd_acyclic_default () =
  let rng = rng () in
  let i =
    Workload.acyclic_chain ~rng ~m:60 ~domain:10 ~rels:[ "R1"; "R2"; "R3" ]
  in
  let result, _, width = Gym_ghd.run ~p:4 chain i in
  Alcotest.check instance "chain via GHD" (Lamp_cq.Eval.eval chain i) result;
  Alcotest.(check int) "per-atom bags" 1 width

(* Three per-atom bags on two servers: the HyperCube slices wrap and
   one server runs two bags. Every bag's grid is one cell holding all
   of E, and two bags on one server are two loads: round 1 ships E
   three times, twice to the shared server. *)
let test_gym_ghd_bags_outnumber_servers () =
  let q = Parser.query "H(x,w) <- E(x,y), E(y,z), E(z,w)" in
  let i =
    Generate.random_relation ~rng:(rng ()) ~rel:"E" ~arity:2 ~size:40
      ~domain:10 ()
  in
  let m = Instance.cardinal i in
  let result, stats, _ = Gym_ghd.run ~p:2 q i in
  Alcotest.check instance "path via wrapped slices" (Lamp_cq.Eval.eval q i)
    result;
  match stats.Stats.rounds with
  | first :: _ ->
    Alcotest.(check int) "round 1 ships E once per bag" (3 * m)
      first.Stats.total_received;
    Alcotest.(check int) "the shared server receives E twice" (2 * m)
      first.Stats.max_received
  | [] -> Alcotest.fail "no rounds"

let test_gym_ghd_explicit_decomposition () =
  let i = triangle_instance () in
  let d = Decomposition.singleton Examples.q2_triangle in
  let result, _, _ =
    Gym_ghd.run ~decomposition:d ~p:8 Examples.q2_triangle i
  in
  Alcotest.check instance "explicit singleton"
    (Lamp_cq.Eval.eval Examples.q2_triangle i)
    result

let test_gym_ghd_rejects_invalid () =
  let bad =
    [
      {
        Decomposition.bag =
          {
            Decomposition.vars = Decomposition.Sset.of_list [ "x"; "y" ];
            atoms = [ Ast.atom "R" [ Ast.Var "x"; Ast.Var "y" ] ];
          };
        children = [];
      };
    ]
  in
  Alcotest.check_raises "invalid decomposition" (Invalid_argument "")
    (fun () ->
      try
        ignore
          (Gym_ghd.run ~decomposition:bad ~p:4 Examples.q2_triangle
             Instance.empty)
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let cyclic_queries =
  [
    Examples.q2_triangle;
    four_cycle;
    parse "H(x,y,z) <- R(x,y), S(y,z), T(z,x), U(x,z)";
  ]

let acyclic_queries =
  [ chain; parse "H(x) <- R1(x,y), R2(x,z)"; parse "H(x,y) <- R1(x,y)" ]

let prop_min_fill_valid =
  QCheck.Test.make ~name:"min-fill decompositions are valid" ~count:50
    (QCheck.make (QCheck.Gen.oneofl (cyclic_queries @ acyclic_queries)))
    (fun q -> Result.is_ok (Decomposition.validate q (Decomposition.min_fill q)))

let workload_for q =
  let rng = Random.State.make [| 1234 |] in
  List.fold_left
    (fun acc (a : Ast.atom) ->
      Instance.union acc
        (Generate.random_relation ~rng ~rel:a.Ast.rel ~arity:(List.length a.Ast.terms)
           ~size:40 ~domain:8 ()))
    Instance.empty (Ast.body q)

let prop_gym_ghd_matches_eval =
  QCheck.Test.make ~name:"GYM over GHD = naive evaluation" ~count:30
    (QCheck.pair
       (QCheck.make (QCheck.Gen.oneofl (cyclic_queries @ acyclic_queries)))
       (QCheck.make QCheck.Gen.(int_range 1 16)))
    (fun (q, p) ->
      let i = workload_for q in
      let result, _, _ = Gym_ghd.run ~p q i in
      Instance.equal result (Lamp_cq.Eval.eval q i))

let () =
  Alcotest.run "lamp_decomposition"
    [
      ( "decomposition",
        [
          Alcotest.test_case "singleton" `Quick test_singleton_valid;
          Alcotest.test_case "of join forest" `Quick test_of_join_forest_valid;
          Alcotest.test_case "min-fill triangle" `Quick test_min_fill_triangle;
          Alcotest.test_case "min-fill 4-cycle" `Quick test_min_fill_four_cycle;
          Alcotest.test_case "min-fill acyclic" `Quick test_min_fill_acyclic;
          Alcotest.test_case "rejects missing atom" `Quick test_validate_missing_atom;
          Alcotest.test_case "rejects broken intersection" `Quick
            test_validate_running_intersection;
        ] );
      ( "gym over ghd",
        [
          Alcotest.test_case "triangle" `Quick test_gym_ghd_triangle;
          Alcotest.test_case "4-cycle" `Quick test_gym_ghd_four_cycle;
          Alcotest.test_case "acyclic default" `Quick test_gym_ghd_acyclic_default;
          Alcotest.test_case "bags outnumber servers" `Quick
            test_gym_ghd_bags_outnumber_servers;
          Alcotest.test_case "explicit decomposition" `Quick
            test_gym_ghd_explicit_decomposition;
          Alcotest.test_case "rejects invalid" `Quick test_gym_ghd_rejects_invalid;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_min_fill_valid; prop_gym_ghd_matches_eval ] );
    ]
