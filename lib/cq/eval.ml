open Lamp_relational

(* The evaluator compiles the query to a plan for the selected backend
   and runs it over the instance's interned view (Plan.Db): integer
   comparisons in the inner loop, Valuation.t only materialized at the
   leaves. Every entry point below, and the query service's plan cache,
   compiles through [prepare]. *)

(* Selectable plan backend: [Binary] is the seed backtracking pipeline
   over compiled {!Plan}s; [Wcoj] is the leapfrog worst-case-optimal
   join of {!Wcoj}, which avoids the intermediate-result blowup on
   cyclic queries. Both run on the same interned [Plan.Db] indexes and
   produce identical instances — the property suite checks them against
   each other and against the test oracle's value-level generic join. *)
type strategy =
  | Binary
  | Wcoj

let strategy_name = function
  | Binary -> "binary"
  | Wcoj -> "wcoj"

let strategy_of_string = function
  | "binary" -> Ok Binary
  | "wcoj" -> Ok Wcoj
  | s -> Error (Fmt.str "unknown plan strategy %S (binary|wcoj)" s)

(* A query compiled for one backend. Both fold the same Plan.Db column
   indexes and hand each satisfying register assignment to the
   callback. The query service keeps one per plan id, so it stays a
   bare plan, not a record of closures. *)
type prepared =
  | Binary_plan of Plan.t
  | Wcoj_plan of Wcoj.t

let prepare ?(strategy = Binary) q db =
  let counts = Plan.Db.count db in
  match strategy with
  | Binary -> Binary_plan (Plan.make ~counts q)
  | Wcoj -> Wcoj_plan (Wcoj.make ~counts q)

let atom_count = function
  | Binary_plan p -> Plan.atom_count p
  | Wcoj_plan w -> Wcoj.atom_count w

let run prepared db =
  let head_rel, tuples =
    match prepared with
    | Binary_plan p ->
      ( Plan.head_rel p,
        Plan.fold p db (fun regs acc -> Plan.head_tuple p regs :: acc) [] )
    | Wcoj_plan w ->
      ( Wcoj.head_rel w,
        Wcoj.fold w db (fun regs acc -> Wcoj.head_tuple w regs :: acc) [] )
  in
  match tuples with
  | [] -> Instance.empty
  | _ ->
    Instance.of_tuple_set head_rel
      (Tuple.Set.of_list (List.rev_map Intern.untuple tuples))

let fold_valuations ?strategy q instance f init =
  let db = Plan.Db.of_instance instance in
  match prepare ?strategy q db with
  | Binary_plan p ->
    Plan.fold p db (fun regs acc -> f (Plan.valuation p regs) acc) init
  | Wcoj_plan w ->
    Wcoj.fold w db (fun regs acc -> f (Wcoj.valuation w regs) acc) init

let valuations ?strategy q instance =
  List.rev (fold_valuations ?strategy q instance (fun v acc -> v :: acc) [])

let eval ?strategy q instance =
  let db = Plan.Db.of_instance instance in
  run (prepare ?strategy q db) db

let eval_ucq ?strategy qs instance =
  let db = Plan.Db.of_instance instance in
  List.fold_left
    (fun acc q -> Instance.union acc (run (prepare ?strategy q db) db))
    Instance.empty qs

let holds ?strategy q instance =
  let exception Found in
  try
    fold_valuations ?strategy q instance (fun _ () -> raise Found) ();
    false
  with Found -> true

let derives ?strategy q instance fact =
  let exception Found in
  try
    fold_valuations ?strategy q instance
      (fun v () ->
        if Fact.equal (Valuation.head_fact v q) fact then raise Found)
      ();
    false
  with Found -> true
