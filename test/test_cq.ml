open Lamp_relational
open Lamp_cq
module Generic_join = Lamp_oracle.Generic_join

let instance = Alcotest.testable Instance.pp Instance.equal
let query = Alcotest.testable Ast.pp Ast.equal

let parse = Parser.query
let inst = Instance.of_string

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)

let test_parse_basic () =
  let q = parse "H(x,z) <- R(x,y), R(y,z)" in
  Alcotest.(check string) "head rel" "H" (Ast.head q).Ast.rel;
  Alcotest.(check int) "two atoms" 2 (List.length (Ast.body q));
  Alcotest.(check (list string)) "vars" [ "x"; "y"; "z" ] (Ast.vars q)

let test_parse_constants () =
  let q = parse "H(x) <- R(x, 42), S(x, 'a')" in
  match Ast.body q with
  | [ r; s ] ->
    Alcotest.(check bool) "int const" true
      (Ast.term_equal (List.nth r.Ast.terms 1) (Ast.Const (Value.int 42)));
    Alcotest.(check bool) "str const" true
      (Ast.term_equal (List.nth s.Ast.terms 1) (Ast.Const (Value.str "a")))
  | _ -> Alcotest.fail "expected two atoms"

let test_parse_negation_diseq () =
  let q = parse "H(x,y,z) <- E(x,y), E(y,z), !E(z,x), x != y" in
  Alcotest.(check int) "negated" 1 (List.length (Ast.negated q));
  Alcotest.(check int) "diseq" 1 (List.length (Ast.diseq q));
  let q' = parse "H(x,y,z) <- E(x,y), E(y,z), not E(z,x), x != y" in
  Alcotest.check query "! and not agree" q q'

let test_parse_boolean_head () =
  let q = parse "H() <- R(x,x), T(x)" in
  Alcotest.(check bool) "boolean" true (Ast.is_boolean q)

let test_parse_arrow_variants () =
  Alcotest.check query "<- vs :-" (parse "H(x) <- R(x)") (parse "H(x) :- R(x)")

let test_parse_errors () =
  List.iter
    (fun s ->
      match parse s with
      | _ -> Alcotest.failf "expected parse error for %S" s
      | exception Parser.Parse_error _ -> ())
    [
      "H(x)";                  (* no arrow *)
      "H(x) <- R(x,";          (* unclosed atom *)
      "H(x) <- R(x) extra";    (* trailing garbage *)
      "H(x,y) <- R(x)";        (* unsafe: y not in body *)
      "H(x) <- !R(x)";         (* unsafe: x only in negated atom *)
      "H() <- R(x), y != z";   (* unsafe inequality *)
    ]

let test_parse_roundtrip_examples () =
  List.iter
    (fun q -> Alcotest.check query "roundtrip" q (parse (Ast.to_string q)))
    [
      Examples.q2_triangle;
      Examples.open_triangle;
      Examples.triangles_distinct;
      Examples.q1_example_4_11;
      parse "H(x) <- R(x, 7), S(x, 'abc')";
    ]

let test_ucq_parse () =
  let qs = Parser.ucq "H(x) <- R(x); H(x) <- S(x)" in
  Alcotest.(check int) "two disjuncts" 2 (List.length qs)

(* ------------------------------------------------------------------ *)
(* AST classification                                                  *)

let test_is_full () =
  Alcotest.(check bool) "triangle is full" true (Ast.is_full Examples.q2_triangle);
  Alcotest.(check bool) "projection is not" false
    (Ast.is_full (parse "H(x) <- R(x,y)"))

let test_self_join () =
  Alcotest.(check bool) "self join" true
    (Ast.has_self_join Examples.qe_example_4_1);
  Alcotest.(check bool) "no self join" false
    (Ast.has_self_join Examples.q2_triangle)

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

let test_eval_join () =
  let i = inst "R(1,2). R(3,4). S(2,5). S(2,6)" in
  let r = Eval.eval Examples.q1_join i in
  Alcotest.check instance "join result" (inst "H(1,2,5). H(1,2,6)") r

let test_eval_triangle () =
  let i = inst "R(1,2). S(2,3). T(3,1). R(2,3). S(9,9)" in
  Alcotest.check instance "one triangle" (inst "H(1,2,3)")
    (Eval.eval Examples.q2_triangle i)

let test_eval_example_4_1 () =
  (* Qe on Ie; the paper's Example 4.1 (the text's H(a,b) is H(a,a):
     deriving H(a,b) would need the absent fact S(b,a)). *)
  let ie = inst "R(a,b). R(b,a). R(b,c). S(a,a). S(c,a)" in
  Alcotest.check instance "Qe(Ie)" (inst "H(a,a). H(a,c)")
    (Eval.eval Examples.qe_example_4_1 ie)

let test_eval_self_join_repeated_var () =
  let q = parse "H(x) <- R(x,x)" in
  let i = inst "R(1,1). R(1,2). R(2,2)" in
  Alcotest.check instance "diagonal" (inst "H(1). H(2)") (Eval.eval q i)

let test_eval_constants () =
  let q = parse "H(x) <- R(x, 2)" in
  let i = inst "R(1,2). R(3,4). R(5,2)" in
  Alcotest.check instance "const filter" (inst "H(1). H(5)") (Eval.eval q i)

let test_eval_diseq () =
  let i = inst "E(1,2). E(2,1). E(1,1)" in
  let with_diseq = parse "H(x,y) <- E(x,y), x != y" in
  Alcotest.check instance "filters loop" (inst "H(1,2). H(2,1)")
    (Eval.eval with_diseq i)

let test_eval_negation () =
  (* Open triangles: E(1,2), E(2,3) with E(3,1) absent. *)
  let i = inst "E(1,2). E(2,3). E(3,4)" in
  let r = Eval.eval Examples.open_triangle i in
  Alcotest.(check bool) "contains (1,2,3)" true
    (Instance.mem (Fact.of_ints "H" [ 1; 2; 3 ]) r);
  let closed = inst "E(1,2). E(2,3). E(3,1)" in
  Alcotest.(check bool) "closed triangle excluded" false
    (Instance.mem (Fact.of_ints "H" [ 1; 2; 3 ])
       (Eval.eval Examples.open_triangle closed))

let test_eval_cartesian () =
  let q = parse "H(x,y) <- R(x), S(y)" in
  let i = inst "R(1). R(2). S(3). S(4)" in
  Alcotest.(check int) "product" 4 (Instance.cardinal (Eval.eval q i))

let test_eval_boolean () =
  let q = Examples.q2_example_4_11 in
  Alcotest.(check bool) "holds" true (Eval.holds q (inst "R(1,1). T(1)"));
  Alcotest.(check bool) "fails" false (Eval.holds q (inst "R(1,2). T(2)"));
  Alcotest.check instance "derives H()" (inst "H()")
    (Eval.eval q (inst "R(1,1). T(1)"))

let test_eval_empty_relation () =
  Alcotest.check instance "empty input" Instance.empty
    (Eval.eval Examples.q1_join Instance.empty)

let test_eval_larger_join () =
  (* Chain join on a path graph: H(x,w) <- E(x,y),E(y,z),E(z,w). *)
  let q = parse "H(x,w) <- E(x,y), E(y,z), E(z,w)" in
  let n = 50 in
  let i =
    List.init n (fun k -> Fact.of_ints "E" [ k; k + 1 ]) |> Instance.of_facts
  in
  Alcotest.(check int) "path count" (n - 2) (Instance.cardinal (Eval.eval q i))

(* ------------------------------------------------------------------ *)
(* Generic (worst-case optimal) join                                   *)

let test_generic_triangle () =
  let i = inst "R(1,2). S(2,3). T(3,1). R(2,3). S(9,9)" in
  Alcotest.check instance "triangle" (Eval.eval Examples.q2_triangle i)
    (Generic_join.eval Examples.q2_triangle i)

let test_generic_constants_repeated () =
  let q = parse "H(x) <- R(x,x), S(x, 7)" in
  let i = inst "R(1,1). R(2,3). R(4,4). S(1,7). S(4,8)" in
  Alcotest.check instance "constants + repeated vars" (Eval.eval q i)
    (Generic_join.eval q i)

let test_generic_diseq () =
  let q = parse "H(x,y) <- E(x,y), x != y" in
  let i = inst "E(1,1). E(1,2). E(2,1)" in
  Alcotest.check instance "inequalities" (Eval.eval q i) (Generic_join.eval q i)

let test_generic_custom_order () =
  let i = inst "R(1,2). S(2,3). T(3,1)" in
  List.iter
    (fun order ->
      Alcotest.check instance "any order works"
        (Eval.eval Examples.q2_triangle i)
        (Generic_join.eval ~order Examples.q2_triangle i))
    [ [ "x"; "y"; "z" ]; [ "z"; "y"; "x" ]; [ "y"; "z"; "x" ] ]

let test_generic_bad_order () =
  Alcotest.check_raises "incomplete order" (Invalid_argument "")
    (fun () ->
      try
        ignore
          (Generic_join.eval ~order:[ "x" ] Examples.q2_triangle Instance.empty)
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_generic_rejects_negation () =
  Alcotest.check_raises "CQ-neg rejected" (Invalid_argument "")
    (fun () ->
      try ignore (Generic_join.eval Examples.open_triangle Instance.empty)
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* ------------------------------------------------------------------ *)
(* Cyclic example queries (4-cycle, k-clique)                          *)

let test_four_cycle_query () =
  let q = Examples.q_four_cycle in
  Alcotest.(check int) "four atoms" 4 (List.length (Ast.body q));
  (* One directed 4-cycle 1→2→3→4→1, plus a chord that closes nothing. *)
  let i =
    inst "R(1,2). S(2,3). T(3,4). U(4,1). R(2,3). S(1,4)"
  in
  let out = Eval.eval q i in
  Alcotest.(check int) "one cycle" 1 (Instance.cardinal out);
  Alcotest.check instance "wcoj agrees"
    out
    (Eval.eval ~strategy:Eval.Wcoj q i)

let test_clique_query () =
  Alcotest.(check (list string)) "triangle rels" [ "E12"; "E13"; "E23" ]
    (Examples.clique_rels 3);
  Alcotest.(check int) "k=4 has C(4,2) atoms" 6
    (List.length (Ast.body (Examples.q_clique 4)));
  Alcotest.(check int) "rels match atoms" 6
    (List.length (Examples.clique_rels 4));
  (* K4 on nodes 1..4 (directed both ways in every edge relation) plus
     an extra vertex attached by a single edge. *)
  let edges =
    [ (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4); (4, 5) ]
  in
  let facts =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun (a, b) -> [ Fact.of_ints r [ a; b ]; Fact.of_ints r [ b; a ] ])
          edges)
      (Examples.clique_rels 4)
  in
  let i = Instance.of_facts facts in
  let out = Eval.eval (Examples.q_clique 4) i in
  (* The single K4 appears once per vertex ordering: 4! = 24. *)
  Alcotest.(check int) "K4 orderings" 24 (Instance.cardinal out);
  Alcotest.check instance "wcoj agrees" out
    (Eval.eval ~strategy:Eval.Wcoj (Examples.q_clique 4) i)

(* ------------------------------------------------------------------ *)
(* Minimal valuations                                                  *)

let test_minimal_example_4_5 () =
  let q = Examples.q_example_4_3 in
  let a = Value.str "a" and b = Value.str "b" in
  let v1 = Valuation.of_list [ ("x", a); ("y", b); ("z", a) ] in
  let v2 = Valuation.of_list [ ("x", a); ("y", a); ("z", a) ] in
  Alcotest.(check bool) "V1 not minimal" false (Minimal.is_minimal q v1);
  Alcotest.(check bool) "V2 minimal" true (Minimal.is_minimal q v2)

let test_minimal_plain_join () =
  (* Queries without self-joins: every valuation is minimal. *)
  let q = Examples.q1_join in
  let v =
    Valuation.of_list
      [ ("x", Value.int 1); ("y", Value.int 2); ("z", Value.int 3) ]
  in
  Alcotest.(check bool) "minimal" true (Minimal.is_minimal q v)

let test_minimal_valuations_count () =
  let q = Examples.q_example_4_3 in
  let universe = [ Value.str "a"; Value.str "b" ] in
  let minimal = Minimal.minimal_valuations q ~universe in
  (* Minimal valuations over {a,b}: those avoiding the Example 4.5
     pattern. All 8 valuations (x,y,z) ∈ {a,b}³; V minimal unless its
     facts strictly include those of a same-head smaller valuation. *)
  List.iter
    (fun v ->
      Alcotest.(check bool) "reported minimal" true (Minimal.is_minimal q v))
    minimal;
  Alcotest.(check bool) "some valuation is non-minimal" true
    (List.length minimal < 8)

let test_minimal_rejects_negation () =
  Alcotest.check_raises "CQ¬ rejected" (Invalid_argument "")
    (fun () ->
      try
        ignore
          (Minimal.is_minimal Examples.open_triangle
             (Valuation.of_list
                [ ("x", Value.int 1); ("y", Value.int 2); ("z", Value.int 3) ]))
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_minimal_images_dedup () =
  let q = Examples.q_example_4_3 in
  let universe = [ Value.str "a"; Value.str "b" ] in
  let images = Minimal.minimal_images q ~universe in
  let vals = Minimal.minimal_valuations q ~universe in
  Alcotest.(check bool) "images <= valuations" true
    (List.length images <= List.length vals)

(* ------------------------------------------------------------------ *)
(* Containment                                                         *)

let test_containment_fig1b () =
  let q1 = Examples.q1_example_4_11
  and q2 = Examples.q2_example_4_11
  and q3 = Examples.q3_example_4_11
  and q4 = Examples.q4_example_4_11 in
  (* Figure 1(b): Q1 ⊆ Q2 ⊆ Q4 and Q1 ⊆ Q3 ⊆ Q4, no reverse. *)
  Alcotest.(check bool) "Q1 ⊆ Q2" true (Containment.contained q1 q2);
  Alcotest.(check bool) "Q2 ⊆ Q4" true (Containment.contained q2 q4);
  Alcotest.(check bool) "Q1 ⊆ Q3" true (Containment.contained q1 q3);
  Alcotest.(check bool) "Q3 ⊆ Q4" true (Containment.contained q3 q4);
  Alcotest.(check bool) "Q4 ⊄ Q2" false (Containment.contained q4 q2);
  Alcotest.(check bool) "Q2 ⊄ Q1" false (Containment.contained q2 q1);
  Alcotest.(check bool) "Q4 ⊄ Q3" false (Containment.contained q4 q3);
  Alcotest.(check bool) "Q2 ⊄ Q3" false (Containment.contained q2 q3);
  Alcotest.(check bool) "Q3 ⊄ Q2" false (Containment.contained q3 q2)

let test_containment_head_mismatch () =
  Alcotest.(check bool) "different head arity" false
    (Containment.contained (parse "H(x) <- R(x,y)") (parse "H(x,y) <- R(x,y)"))

let test_containment_with_constants () =
  let specific = parse "H(x) <- R(x, 1)" in
  let general = parse "H(x) <- R(x, y)" in
  Alcotest.(check bool) "specific ⊆ general" true
    (Containment.contained specific general);
  Alcotest.(check bool) "general ⊄ specific" false
    (Containment.contained general specific)

let test_minimize () =
  let q = parse "H(x) <- R(x,y), R(x,z)" in
  let m = Containment.minimize q in
  Alcotest.(check int) "one atom" 1 (List.length (Ast.body m));
  Alcotest.(check bool) "equivalent" true (Containment.equivalent q m);
  (* A core query stays put. *)
  Alcotest.check query "triangle is a core" Examples.q2_triangle
    (Containment.minimize Examples.q2_triangle)

let test_ucq_containment () =
  let left = Parser.ucq "H(x) <- R(x,x); H(x) <- R(x,y), S(y)" in
  let right = Parser.ucq "H(x) <- R(x,y)" in
  Alcotest.(check bool) "each disjunct contained" true
    (Containment.ucq_contained left right);
  Alcotest.(check bool) "reverse fails" false
    (Containment.ucq_contained right left)

let test_refute_negation () =
  let q1 = parse "H(x) <- E(x,y), !E(y,x)" in
  let q2 = parse "H(x) <- E(x,x)" in
  let universe = [ Value.str "a"; Value.str "b" ] in
  (match Containment.refute ~universe q1 q2 with
  | Containment.Counterexample i ->
    Alcotest.(check bool) "witnesses non-containment" true
      (not (Instance.subset (Eval.eval q1 i) (Eval.eval q2 i)))
  | Containment.No_counterexample_found -> Alcotest.fail "expected refutation");
  (* Contained direction: no counterexample exists at all. *)
  let q3 = parse "H(x) <- E(x,y), E(y,x), !E(x,x)" in
  let q4 = parse "H(x) <- E(x,y)" in
  match Containment.refute ~universe q3 q4 with
  | Containment.No_counterexample_found -> ()
  | Containment.Counterexample _ -> Alcotest.fail "q3 ⊆ q4 must hold"

let test_refute_bound () =
  Alcotest.check_raises "fact space too large" (Invalid_argument "")
    (fun () ->
      try
        ignore
          (Containment.refute
             ~universe:(List.init 10 Value.int)
             (parse "H(x) <- E(x,y), !E(y,x)")
             (parse "H(x) <- E(x,x)"))
      with Invalid_argument _ -> raise (Invalid_argument ""))

(* ------------------------------------------------------------------ *)
(* Hypergraph                                                          *)

let close msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %f, got %f)" msg expected actual)
    true
    (Float.abs (expected -. actual) < 1e-6)

let test_tau_star () =
  close "triangle" 1.5 (Hypergraph.tau_star Examples.q2_triangle);
  close "join" 1.0 (Hypergraph.tau_star Examples.q1_join);
  close "product" 2.0 (Hypergraph.tau_star (parse "H(x,y) <- R(x), S(y)"))

let test_rho_star () =
  close "triangle AGM" 1.5 (Hypergraph.rho_star Examples.q2_triangle);
  close "join" 2.0 (Hypergraph.rho_star Examples.q1_join)

let test_share_exponents () =
  let t, exps = Hypergraph.share_exponents Examples.q2_triangle in
  close "t" (2.0 /. 3.0) t;
  List.iter (fun (_, e) -> close "exponent" (1.0 /. 3.0) e) exps

let test_acyclicity () =
  Alcotest.(check bool) "join acyclic" true (Hypergraph.is_acyclic Examples.q1_join);
  Alcotest.(check bool) "triangle cyclic" false
    (Hypergraph.is_acyclic Examples.q2_triangle);
  Alcotest.(check bool) "path acyclic" true
    (Hypergraph.is_acyclic (parse "H(x,w) <- E(x,y), F(y,z), G(z,w)"));
  Alcotest.(check bool) "star acyclic" true
    (Hypergraph.is_acyclic (parse "H(x) <- R(x,a), S(x,b), T(x,c)"));
  Alcotest.(check bool) "4-cycle cyclic" false
    (Hypergraph.is_acyclic (parse "H(x) <- R(x,y), S(y,z), T(z,w), U(w,x)"))

let test_join_tree () =
  let q = parse "H(x,w) <- E(x,y), F(y,z), G(z,w)" in
  match Hypergraph.gyo q with
  | None -> Alcotest.fail "path must be acyclic"
  | Some forest ->
    let atoms = List.concat_map Hypergraph.join_tree_atoms forest in
    Alcotest.(check int) "all atoms in forest" 3 (List.length atoms);
    Alcotest.(check int) "single tree" 1 (List.length forest)

let test_join_forest_components () =
  let q = parse "H(x,y) <- R(x), S(y)" in
  match Hypergraph.gyo q with
  | None -> Alcotest.fail "disconnected acyclic"
  | Some forest -> Alcotest.(check int) "two trees" 2 (List.length forest)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

let small_value_gen =
  QCheck.Gen.(oneof [ map Value.int (int_range 0 3) ])

let small_instance_gen =
  let open QCheck.Gen in
  let fact_gen =
    let* rel = oneofl [ "R"; "S" ] in
    let arity = if rel = "S" then 1 else 2 in
    let* args = list_repeat arity small_value_gen in
    return (Fact.of_list rel args)
  in
  map Instance.of_facts (list_size (int_range 0 10) fact_gen)

let small_instance_arb =
  QCheck.make ~print:(Fmt.str "%a" Instance.pp) small_instance_gen

(* Random positive CQ over R/2 and S/1 with safe head. *)
let cq_gen =
  let open QCheck.Gen in
  let var = oneofl [ "x"; "y"; "z" ] in
  let atom_gen =
    oneof
      [
        (let* v1 = var and* v2 = var in
         return (Ast.atom "R" [ Ast.Var v1; Ast.Var v2 ]));
        (let* v = var in
         return (Ast.atom "S" [ Ast.Var v ]));
      ]
  in
  let* body = list_size (int_range 1 3) atom_gen in
  let body_vars =
    List.concat_map Ast.atom_vars body |> List.sort_uniq String.compare
  in
  let* keep = list_repeat (List.length body_vars) bool in
  let head_vars =
    List.filteri (fun i _ -> List.nth keep i) body_vars
  in
  return
    (Ast.make
       ~head:(Ast.atom "H" (List.map (fun v -> Ast.Var v) head_vars))
       ~body ())

let cq_arb = QCheck.make ~print:Ast.to_string cq_gen

let prop_eval_monotone =
  QCheck.Test.make ~name:"positive CQs are monotone" ~count:200
    (QCheck.triple cq_arb small_instance_arb small_instance_arb)
    (fun (q, i, j) ->
      Instance.subset (Eval.eval q i) (Eval.eval q (Instance.union i j)))

let prop_containment_reflexive =
  QCheck.Test.make ~name:"containment is reflexive" ~count:100 cq_arb
    (fun q -> Containment.contained q q)

let prop_containment_sound =
  QCheck.Test.make ~name:"containment implies result inclusion" ~count:100
    (QCheck.triple cq_arb cq_arb small_instance_arb)
    (fun (q1, q2, i) ->
      QCheck.assume
        (List.length (Ast.head q1).Ast.terms
        = List.length (Ast.head q2).Ast.terms);
      (not (Containment.contained q1 q2))
      || Instance.subset (Eval.eval q1 i) (Eval.eval q2 i))

let prop_minimize_equivalent =
  QCheck.Test.make ~name:"minimize preserves semantics" ~count:100
    (QCheck.pair cq_arb small_instance_arb)
    (fun (q, i) ->
      Instance.equal (Eval.eval q i) (Eval.eval (Containment.minimize q) i))

let prop_minimal_valuations_cover =
  (* Proposition 4.6's engine: every derived fact is derived by a
     minimal valuation. *)
  QCheck.Test.make ~name:"every output fact has a minimal derivation"
    ~count:100
    (QCheck.pair cq_arb small_instance_arb)
    (fun (q, i) ->
      let universe = Value.Set.elements (Instance.adom i) in
      let minimal = Minimal.minimal_valuations q ~universe in
      Instance.facts (Eval.eval q i)
      |> List.for_all (fun f ->
             List.exists
               (fun v ->
                 Fact.equal (Valuation.head_fact v q) f
                 && Instance.subset (Valuation.body_facts v q) i)
               minimal))

let prop_full_query_valuations_minimal =
  (* For full CQs the head pins every variable, so all valuations are
     minimal (the fast path behind the paper's NP cases). *)
  QCheck.Test.make ~name:"full CQs: every valuation is minimal" ~count:100
    cq_arb
    (fun q ->
      (* Rebuild with a full head. *)
      let full =
        Ast.make
          ~head:(Ast.atom "H" (List.map (fun v -> Ast.Var v) (Ast.body_vars q)))
          ~body:(Ast.body q) ()
      in
      let universe = [ Value.int 0; Value.int 1 ] in
      let count_all = ref 0 in
      Valuation.enumerate ~vars:(Ast.vars full) ~universe (fun _ ->
          incr count_all);
      List.length (Minimal.minimal_valuations full ~universe) = !count_all)

let prop_generic_join_matches_eval =
  QCheck.Test.make ~name:"generic join = backtracking evaluation" ~count:150
    (QCheck.pair cq_arb small_instance_arb)
    (fun (q, i) ->
      Instance.equal (Eval.eval q i) (Generic_join.eval q i))

let prop_eval_parse_roundtrip =
  QCheck.Test.make ~name:"pp/parse roundtrip preserves evaluation" ~count:100
    (QCheck.pair cq_arb small_instance_arb)
    (fun (q, i) ->
      let q' = Parser.query (Ast.to_string q) in
      Instance.equal (Eval.eval q i) (Eval.eval q' i))

let () =
  Alcotest.run "lamp_cq"
    [
      ( "parser",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "constants" `Quick test_parse_constants;
          Alcotest.test_case "negation and diseq" `Quick test_parse_negation_diseq;
          Alcotest.test_case "boolean head" `Quick test_parse_boolean_head;
          Alcotest.test_case "arrow variants" `Quick test_parse_arrow_variants;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_parse_roundtrip_examples;
          Alcotest.test_case "ucq" `Quick test_ucq_parse;
        ] );
      ( "ast",
        [
          Alcotest.test_case "is_full" `Quick test_is_full;
          Alcotest.test_case "self join" `Quick test_self_join;
        ] );
      ( "eval",
        [
          Alcotest.test_case "join" `Quick test_eval_join;
          Alcotest.test_case "triangle" `Quick test_eval_triangle;
          Alcotest.test_case "example 4.1" `Quick test_eval_example_4_1;
          Alcotest.test_case "repeated var" `Quick test_eval_self_join_repeated_var;
          Alcotest.test_case "constants" `Quick test_eval_constants;
          Alcotest.test_case "inequalities" `Quick test_eval_diseq;
          Alcotest.test_case "negation" `Quick test_eval_negation;
          Alcotest.test_case "cartesian" `Quick test_eval_cartesian;
          Alcotest.test_case "boolean" `Quick test_eval_boolean;
          Alcotest.test_case "empty" `Quick test_eval_empty_relation;
          Alcotest.test_case "chain join" `Quick test_eval_larger_join;
        ] );
      ( "generic join",
        [
          Alcotest.test_case "triangle" `Quick test_generic_triangle;
          Alcotest.test_case "constants/repeated" `Quick
            test_generic_constants_repeated;
          Alcotest.test_case "inequalities" `Quick test_generic_diseq;
          Alcotest.test_case "custom orders" `Quick test_generic_custom_order;
          Alcotest.test_case "bad order" `Quick test_generic_bad_order;
          Alcotest.test_case "rejects negation" `Quick test_generic_rejects_negation;
        ] );
      ( "cyclic examples",
        [
          Alcotest.test_case "4-cycle" `Quick test_four_cycle_query;
          Alcotest.test_case "k-clique" `Quick test_clique_query;
        ] );
      ( "minimal",
        [
          Alcotest.test_case "example 4.5" `Quick test_minimal_example_4_5;
          Alcotest.test_case "no self join" `Quick test_minimal_plain_join;
          Alcotest.test_case "enumeration" `Quick test_minimal_valuations_count;
          Alcotest.test_case "rejects negation" `Quick test_minimal_rejects_negation;
          Alcotest.test_case "image dedup" `Quick test_minimal_images_dedup;
        ] );
      ( "containment",
        [
          Alcotest.test_case "figure 1(b)" `Quick test_containment_fig1b;
          Alcotest.test_case "head mismatch" `Quick test_containment_head_mismatch;
          Alcotest.test_case "constants" `Quick test_containment_with_constants;
          Alcotest.test_case "minimize" `Quick test_minimize;
          Alcotest.test_case "ucq" `Quick test_ucq_containment;
          Alcotest.test_case "refute with negation" `Quick test_refute_negation;
          Alcotest.test_case "refute bound" `Quick test_refute_bound;
        ] );
      ( "hypergraph",
        [
          Alcotest.test_case "tau*" `Quick test_tau_star;
          Alcotest.test_case "rho*" `Quick test_rho_star;
          Alcotest.test_case "share exponents" `Quick test_share_exponents;
          Alcotest.test_case "acyclicity" `Quick test_acyclicity;
          Alcotest.test_case "join tree" `Quick test_join_tree;
          Alcotest.test_case "join forest" `Quick test_join_forest_components;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_eval_monotone;
            prop_containment_reflexive;
            prop_containment_sound;
            prop_minimize_equivalent;
            prop_minimal_valuations_cover;
            prop_full_query_valuations_minimal;
            prop_generic_join_matches_eval;
            prop_eval_parse_roundtrip;
          ] );
    ]
