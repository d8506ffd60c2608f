(* Randomized equivalence suite for the interned-value engine: the
   compiled-plan CQ evaluator against both the pre-interning reference
   evaluator and an independent brute-force oracle, and the incremental
   Datalog fixpoint against the instance-based reference engine —
   across negation, disequalities, constants and duplicate atoms. The
   reference engines live in the test-only [lamp_oracle] library. *)

open Lamp_relational
open Lamp_cq
module Dl = Lamp_datalog
module Cq_reference = Lamp_oracle.Cq_reference
module Datalog_reference = Lamp_oracle.Datalog_reference
module Generic_join = Lamp_oracle.Generic_join

let instance = Alcotest.testable Instance.pp Instance.equal
let parse = Parser.query

(* ------------------------------------------------------------------ *)
(* Interner                                                            *)

let test_intern_roundtrip () =
  let values =
    [
      Value.int 0; Value.int (-7); Value.int max_int;
      Value.str ""; Value.str "a"; Value.str "\003delta_";
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) "roundtrip" true
        (Value.equal v (Intern.value (Intern.id v))))
    values;
  List.iter
    (fun v -> Alcotest.(check int) "stable" (Intern.id v) (Intern.id v))
    values

let test_intern_density () =
  (* Fresh values get consecutive ids: the compiled engine's packed
     keys and bitset rows rely on density. *)
  let base = Intern.size () in
  let ids =
    List.init 64 (fun i -> Intern.id (Value.str (Fmt.str "density-%d" i)))
  in
  List.iteri
    (fun i id -> Alcotest.(check int) "dense" (base + i) id)
    ids

let test_intern_tuple () =
  let t = [| Value.int 3; Value.str "x"; Value.int 3 |] in
  let ids = Intern.tuple t in
  Alcotest.(check bool) "untuple" true
    (Tuple.equal t (Intern.untuple ids));
  Alcotest.(check int) "componentwise" ids.(0) (Intern.id (Value.int 3))

(* ------------------------------------------------------------------ *)
(* Instance batch constructors                                         *)

let test_of_facts_equiv () =
  let facts =
    [
      Fact.of_list "R" [ Value.int 1; Value.int 2 ];
      Fact.of_list "R" [ Value.int 1; Value.int 2 ];
      Fact.of_list "S" [ Value.str "a" ];
      Fact.of_list "R" [ Value.int 2; Value.int 1 ];
    ]
  in
  let one_by_one = List.fold_left (fun i f -> Instance.add f i) Instance.empty facts in
  Alcotest.check instance "of_facts" one_by_one (Instance.of_facts facts);
  let ts = Tuple.Set.of_list (Instance.tuple_list one_by_one "R") in
  Alcotest.check instance "of_tuple_set"
    (Instance.filter (fun f -> Fact.rel f = "R") one_by_one)
    (Instance.of_tuple_set "R" ts)

(* ------------------------------------------------------------------ *)
(* Brute-force CQ oracle                                               *)

(* Independent of both engines: enumerate every assignment of the
   query's variables to active-domain values. Exponential — only for
   tiny random instances. *)
let brute_force q db =
  let adom = Value.Set.elements (Instance.adom db) in
  let vars = Ast.vars q in
  let term_val env = function
    | Ast.Const c -> c
    | Ast.Var v -> List.assoc v env
  in
  let atom_holds env (a : Ast.atom) =
    Instance.mem (Fact.of_list a.Ast.rel (List.map (term_val env) a.Ast.terms)) db
  in
  let satisfies env =
    List.for_all (atom_holds env) (Ast.body q)
    && (not (List.exists (atom_holds env) (Ast.negated q)))
    && List.for_all
         (fun (t1, t2) -> not (Value.equal (term_val env t1) (term_val env t2)))
         (Ast.diseq q)
  in
  let rec assignments env = function
    | [] -> if satisfies env then [ env ] else []
    | v :: rest ->
      List.concat_map (fun c -> assignments ((v, c) :: env) rest) adom
  in
  let head = Ast.head q in
  Instance.of_facts
    (List.map
       (fun env -> Fact.of_list head.Ast.rel (List.map (term_val env) head.Ast.terms))
       (assignments [] vars))

(* ------------------------------------------------------------------ *)
(* Random CQs (negation, diseq, constants) and instances               *)

let small_value_gen = QCheck.Gen.(map Value.int (int_range 0 4))

let small_instance_gen =
  let open QCheck.Gen in
  let fact_gen =
    let* rel = oneofl [ "R"; "S"; "T" ] in
    let arity = if rel = "T" then 1 else 2 in
    let* args = list_repeat arity small_value_gen in
    return (Fact.of_list rel args)
  in
  map Instance.of_facts (list_size (int_range 0 14) fact_gen)

(* A safe random query: a positive body over a small variable pool
   (so every head / negated / disequal variable can be drawn from it),
   then optional negated atoms, disequalities and constants. *)
let cq_gen =
  let open QCheck.Gen in
  let term_gen vars =
    frequency
      [ (4, map (fun v -> Ast.Var v) (oneofl vars));
        (1, map (fun c -> Ast.Const c) small_value_gen);
      ]
  in
  let atom_gen vars =
    let* rel = oneofl [ "R"; "S"; "T" ] in
    let arity = if rel = "T" then 1 else 2 in
    let* terms = list_repeat arity (term_gen vars) in
    return (Ast.atom rel terms)
  in
  let* vars = oneofl [ [ "x"; "y" ]; [ "x"; "y"; "z" ] ] in
  let* body = list_size (int_range 1 3) (atom_gen vars) in
  let body_vars =
    List.sort_uniq compare (List.concat_map Ast.atom_vars body)
  in
  (* Ensure at least one variable is positively bound. *)
  let* body, body_vars =
    if body_vars <> [] then return (body, body_vars)
    else return (Ast.atom "T" [ Ast.Var "x" ] :: body, [ "x" ])
  in
  let* negated =
    frequency
      [ (2, return []);
        (1, map (fun a -> [ a ]) (atom_gen body_vars));
      ]
  in
  (* Negated atoms must only use positively bound variables — true by
     construction since they draw from [body_vars]. *)
  let* diseq =
    if List.length body_vars < 2 then return []
    else
      frequency
        [ (2, return []);
          ( 1,
            let* v1 = oneofl body_vars in
            let* v2 = oneofl body_vars in
            return (if v1 = v2 then [] else [ (Ast.Var v1, Ast.Var v2) ]) );
        ]
  in
  let* head_vars =
    oneof [ return body_vars; map (fun v -> [ v ]) (oneofl body_vars) ]
  in
  return
    (Ast.make ~negated ~diseq
       ~head:(Ast.atom "H" (List.map (fun v -> Ast.Var v) head_vars))
       ~body ())

let cq_arb = QCheck.make ~print:Ast.to_string cq_gen

let small_instance_arb =
  QCheck.make ~print:(Fmt.str "%a" Instance.pp) small_instance_gen

let prop_compiled_matches_reference =
  QCheck.Test.make ~name:"compiled CQ eval = reference eval" ~count:400
    (QCheck.pair cq_arb small_instance_arb)
    (fun (q, db) -> Instance.equal (Eval.eval q db) (Cq_reference.eval q db))

let prop_compiled_matches_brute_force =
  QCheck.Test.make ~name:"compiled CQ eval = brute force" ~count:200
    (QCheck.pair cq_arb small_instance_arb)
    (fun (q, db) -> Instance.equal (Eval.eval q db) (brute_force q db))

let prop_valuations_match =
  QCheck.Test.make ~name:"compiled valuations = reference valuations" ~count:200
    (QCheck.pair cq_arb small_instance_arb)
    (fun (q, db) ->
      let sort vs = List.sort Valuation.compare vs in
      let via_fold fold = sort (fold q db (fun v acc -> v :: acc) []) in
      List.equal
        (fun a b -> Valuation.compare a b = 0)
        (via_fold Eval.fold_valuations)
        (via_fold Cq_reference.fold_valuations))

(* ------------------------------------------------------------------ *)
(* Db.extend: appending a disjoint instance ≡ loading the union        *)

let prop_db_extend_matches_union =
  QCheck.Test.make ~name:"Db.extend = of_instance of the union" ~count:300
    (QCheck.triple cq_arb small_instance_arb small_instance_arb)
    (fun (q, a, b) ->
      let b = Instance.diff b a in
      let answers db =
        List.map
          (fun strategy -> Eval.run (Eval.prepare ~strategy q db) db)
          [ Eval.Binary; Eval.Wcoj ]
      in
      let rebuilt = Plan.Db.of_instance (Instance.union a b) in
      let same db =
        List.equal Instance.equal (answers db) (answers rebuilt)
        && Instance.equal (Plan.Db.to_instance db) (Plan.Db.to_instance rebuilt)
      in
      let mem db f =
        Plan.Db.mem db ~rel:(Fact.rel f) (Intern.tuple (Fact.args f))
      in
      (* Queried first: the column indexes the plans built must catch up
         with the appended tuples. *)
      let queried = Plan.Db.of_instance a in
      ignore (answers queried);
      Plan.Db.extend queried b;
      (* [mem] first gives A's stores their duplicate tables, which the
         extend must then record B's tuples into. *)
      let checked = Plan.Db.of_instance a in
      Instance.iter (fun f -> ignore (mem checked f)) a;
      Plan.Db.extend checked b;
      same queried && same checked
      && Instance.fold (fun f ok -> ok && mem checked f) b true)

(* ------------------------------------------------------------------ *)
(* Worst-case-optimal backend: Wcoj ≡ binary ≡ Generic_join            *)

let prop_wcoj_matches_binary =
  QCheck.Test.make ~name:"wcoj eval = binary eval (full CQ with neg/diseq)"
    ~count:400
    (QCheck.pair cq_arb small_instance_arb)
    (fun (q, db) ->
      Instance.equal (Eval.eval ~strategy:Eval.Wcoj q db) (Eval.eval q db))

let prop_wcoj_matches_generic_join =
  (* Generic_join is the value-level oracle; it only accepts positive
     bodies, so CQ¬ samples pass trivially. *)
  QCheck.Test.make ~name:"wcoj eval = Generic_join oracle (positive CQ)"
    ~count:400
    (QCheck.pair cq_arb small_instance_arb)
    (fun (q, db) ->
      match Ast.negated q with
      | _ :: _ -> true
      | [] ->
          Instance.equal
            (Eval.eval ~strategy:Eval.Wcoj q db)
            (Generic_join.eval q db))

let prop_wcoj_valuations_match =
  QCheck.Test.make ~name:"wcoj valuations = binary valuations" ~count:200
    (QCheck.pair cq_arb small_instance_arb)
    (fun (q, db) ->
      let sort vs = List.sort Valuation.compare vs in
      let via strategy =
        sort (Eval.fold_valuations ~strategy q db (fun v acc -> v :: acc) [])
      in
      List.equal
        (fun a b -> Valuation.compare a b = 0)
        (via Eval.Wcoj) (via Eval.Binary))

let prop_wcoj_trace_invariant =
  (* Enabling lamp.obs tracing must never change results — both
     backends, same instance, trace on vs off. *)
  QCheck.Test.make ~name:"wcoj eval unchanged by tracing" ~count:100
    (QCheck.pair cq_arb small_instance_arb)
    (fun (q, db) ->
      let off = Eval.eval ~strategy:Eval.Wcoj q db in
      Lamp_obs.Trace.set_enabled true;
      let on =
        Fun.protect
          ~finally:(fun () -> Lamp_obs.Trace.set_enabled false)
          (fun () -> Eval.eval ~strategy:Eval.Wcoj q db)
      in
      Instance.equal off on)

let test_wcoj_counters_tick () =
  (* The lamp.obs counters on the WCOJ path record work while tracing
     is on and stay frozen while it is off. *)
  let db = Instance.of_string "R(1,2). R(2,3). R(3,1). S(1,2). S(2,3). S(3,1). T(1,2). T(2,3). T(3,1)." in
  let q = parse "H(x,y,z) <- R(x,y), S(y,z), T(z,x)" in
  let probes = Lamp_obs.Trace.counter "cq.wcoj_probes" in
  let emitted = Lamp_obs.Trace.counter "cq.wcoj_emitted" in
  Lamp_obs.Trace.set_enabled false;
  let p0 = Lamp_obs.Trace.value probes in
  ignore (Eval.eval ~strategy:Eval.Wcoj q db);
  Alcotest.(check int) "frozen while off" p0 (Lamp_obs.Trace.value probes);
  Lamp_obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Lamp_obs.Trace.set_enabled false)
    (fun () ->
      let out = Eval.eval ~strategy:Eval.Wcoj q db in
      Alcotest.(check int) "triangle count" 3 (Instance.cardinal out);
      Alcotest.(check bool) "probes tick" true
        (Lamp_obs.Trace.value probes > p0);
      Alcotest.(check bool) "emitted ticks" true
        (Lamp_obs.Trace.value emitted > 0))

let test_default_order_deterministic () =
  (* Most-constrained-first with name tie-breaks: a pure function of
     the query, identical across calls and across atom orderings that
     keep the coverage counts. *)
  let q = parse "H(x,y,z) <- R(x,y), S(y,z), T(z,x)" in
  let o1 = Generic_join.default_order q in
  let o2 = Generic_join.default_order q in
  Alcotest.(check (list string)) "stable" o1 o2;
  Alcotest.(check (list string)) "name ties ascending" [ "x"; "y"; "z" ] o1;
  let q' = parse "H(x,y,z) <- T(z,x), R(x,y), S(y,z)" in
  Alcotest.(check (list string))
    "atom order irrelevant" o1
    (Generic_join.default_order q');
  (* w is covered once, the cycle vars twice: w must come last. *)
  let q2 = parse "H(x,w) <- R(x,y), S(y,x), T(x,w)" in
  Alcotest.(check (list string))
    "coverage before names" [ "x"; "y"; "w" ]
    (Generic_join.default_order q2)

(* ------------------------------------------------------------------ *)
(* Duplicate-atom regression                                           *)

(* order_atoms used to remove the chosen atom with [List.filter (!=)]:
   a body containing the same atom twice — physically shared, as a
   generated query easily produces — lost all duplicates in one step,
   silently dropping join steps from the plan. *)
let test_duplicate_atom_plan () =
  let a = Ast.atom "R" [ Ast.Var "x"; Ast.Var "y" ] in
  let q =
    Ast.make ~head:(Ast.atom "H" [ Ast.Var "x"; Ast.Var "y" ]) ~body:[ a; a ] ()
  in
  Alcotest.(check int) "both duplicates kept" 2 (Plan.atom_count (Plan.make q));
  let db = Instance.of_string "R(1,2). R(2,3)." in
  Alcotest.check instance "duplicate-atom eval"
    (Cq_reference.eval q db) (Eval.eval q db)

let test_duplicate_atom_distinct_vars () =
  (* Same relation twice with different variables must survive too. *)
  let q = parse "H(x,z) <- R(x,y), R(y,z)" in
  Alcotest.(check int) "two steps" 2 (Plan.atom_count (Plan.make q));
  let db = Instance.of_string "R(1,2). R(2,3). R(3,1)." in
  Alcotest.check instance "composition"
    (Cq_reference.eval q db) (Eval.eval q db)

(* ------------------------------------------------------------------ *)
(* Datalog: incremental engine vs reference engine                     *)

let check_program ?(strategies = [ Dl.Eval.Naive; Dl.Eval.Seminaive ]) program db
    =
  let expect = Datalog_reference.run program db in
  List.iter
    (fun strategy ->
      Alcotest.check instance "vs reference"
        expect
        (Dl.Eval.run ~strategy program db))
    strategies

let test_datalog_canned () =
  let rng = Random.State.make [| 7 |] in
  let g = Generate.random_graph ~rng ~nodes:18 ~edges:40 () in
  check_program Dl.Canned.transitive_closure g;
  check_program (Dl.Program.parse "P(x,y) <- E(x,y)\nP(x,y) <- P(x,z), E(z,y)") g

let test_datalog_negation_strata () =
  let rng = Random.State.make [| 8 |] in
  let g = Generate.random_graph ~rng ~nodes:12 ~edges:25 () in
  (* Unreachable pairs: negation over a recursively computed stratum. *)
  let p =
    Dl.Program.parse
      "TC(x,y) <- E(x,y)\n\
       TC(x,y) <- TC(x,z), E(z,y)\n\
       Node(x) <- E(x,y)\n\
       Node(y) <- E(x,y)\n\
       Sep(x,y) <- Node(x), Node(y), !TC(x,y), x != y"
  in
  check_program p g

(* Random two-stratum programs: a randomly shaped recursive first
   stratum, then a rule with negation and/or a disequality over it. *)
let stratified_case_gen =
  let open QCheck.Gen in
  let* recursive =
    oneofl
      [
        "P(x,y) <- P(x,z), E(z,y)";    (* left-linear *)
        "P(x,y) <- E(x,z), P(z,y)";    (* right-linear *)
        "P(x,y) <- P(x,z), P(z,y)";    (* nonlinear *)
      ]
  in
  let* second =
    oneofl
      [
        "Q(x,y) <- P(x,y), !E(x,y)";
        "Q(x,y) <- P(x,y), !E(y,x), x != y";
        "Q(x) <- P(x,x)";
      ]
  in
  let* seed = int_range 0 10_000 in
  let* nodes = int_range 4 12 in
  let* edges = int_range 4 30 in
  return (Fmt.str "P(x,y) <- E(x,y)\n%s\n%s" recursive second, seed, nodes, edges)

let prop_datalog_random_stratified =
  QCheck.Test.make ~name:"datalog run = run_reference (random stratified)"
    ~count:60
    (QCheck.make
       ~print:(fun (p, s, n, e) -> Fmt.str "%s [seed=%d n=%d e=%d]" p s n e)
       stratified_case_gen)
    (fun (text, seed, nodes, edges) ->
      let program = Dl.Program.parse text in
      let rng = Random.State.make [| seed |] in
      let g = Generate.random_graph ~rng ~nodes ~edges () in
      let expect = Datalog_reference.run program g in
      Instance.equal expect (Dl.Eval.run ~strategy:Dl.Eval.Naive program g)
      && Instance.equal expect
           (Dl.Eval.run ~strategy:Dl.Eval.Seminaive program g))

let prop_datalog_seminaive_matches_naive =
  QCheck.Test.make ~name:"seminaive = naive (random graphs)" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 14))
    (fun (seed, nodes) ->
      let rng = Random.State.make [| seed |] in
      let g = Generate.random_graph ~rng ~nodes ~edges:(2 * nodes) () in
      let p = Dl.Canned.transitive_closure in
      Instance.equal
        (Dl.Eval.run ~strategy:Dl.Eval.Naive p g)
        (Dl.Eval.run ~strategy:Dl.Eval.Seminaive p g))

let () =
  Alcotest.run "lamp_engine"
    [
      ( "intern",
        [
          Alcotest.test_case "roundtrip" `Quick test_intern_roundtrip;
          Alcotest.test_case "density" `Quick test_intern_density;
          Alcotest.test_case "tuple" `Quick test_intern_tuple;
        ] );
      ( "instance",
        [ Alcotest.test_case "batch constructors" `Quick test_of_facts_equiv ] );
      ( "plans",
        [
          Alcotest.test_case "duplicate shared atom" `Quick
            test_duplicate_atom_plan;
          Alcotest.test_case "duplicate rel, distinct vars" `Quick
            test_duplicate_atom_distinct_vars;
        ] );
      ( "wcoj",
        [
          Alcotest.test_case "obs counters tick" `Quick test_wcoj_counters_tick;
          Alcotest.test_case "default_order deterministic" `Quick
            test_default_order_deterministic;
        ] );
      ( "datalog",
        [
          Alcotest.test_case "canned vs reference" `Quick test_datalog_canned;
          Alcotest.test_case "negation strata" `Quick
            test_datalog_negation_strata;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_compiled_matches_reference;
            prop_compiled_matches_brute_force;
            prop_valuations_match;
            prop_db_extend_matches_union;
            prop_wcoj_matches_binary;
            prop_wcoj_matches_generic_join;
            prop_wcoj_valuations_match;
            prop_wcoj_trace_invariant;
            prop_datalog_random_stratified;
            prop_datalog_seminaive_matches_naive;
          ] );
    ]
