open Lamp_relational

(* Frozen constants for canonical databases. The prefix cannot clash
   with user constants produced by the parser (quoted strings cannot
   start with \001). *)
let freeze_prefix = "\001"

let freeze_term = function
  | Ast.Var v -> Ast.Const (Value.str (freeze_prefix ^ v))
  | Ast.Const _ as t -> t

let freeze_atom (a : Ast.atom) =
  let frozen = List.map freeze_term a.Ast.terms in
  let values =
    List.map (function Ast.Const c -> c | Ast.Var _ -> assert false) frozen
  in
  Fact.of_list a.Ast.rel values

let canonical_instance q =
  List.fold_left
    (fun acc a -> Instance.add (freeze_atom a) acc)
    Instance.empty (Ast.body q)

let canonical_head q = freeze_atom (Ast.head q)

let require_positive what q =
  if not (Ast.is_positive q) then
    invalid_arg
      (Fmt.str
         "Containment.%s: exact containment is implemented for positive CQs \
          (use refute for CQ¬ / inequalities)"
         what)

let contained q1 q2 =
  require_positive "contained" q1;
  require_positive "contained" q2;
  List.length (Ast.head q1).Ast.terms = List.length (Ast.head q2).Ast.terms
  && Eval.derives q2 (canonical_instance q1) (canonical_head q1)

let equivalent q1 q2 = contained q1 q2 && contained q2 q1

let ucq_contained qs1 qs2 =
  List.for_all (fun q1 -> List.exists (fun q2 -> contained q1 q2) qs2) qs1

(* Core computation: repeatedly drop a body atom when the smaller query
   remains contained in the original (the reverse containment is
   automatic because dropping atoms relaxes the query). *)
let minimize q =
  require_positive "minimize" q;
  let rec shrink q =
    let body = Ast.body q in
    let try_drop a =
      let body' = List.filter (fun b -> b != a) body in
      if body' = [] then None
      else
        match Ast.make ~head:(Ast.head q) ~body:body' () with
        | q' -> if contained q' q then Some q' else None
        | exception Ast.Unsafe _ -> None
    in
    match List.find_map try_drop body with
    | Some q' -> shrink q'
    | None -> q
  in
  shrink q

type verdict =
  | No_counterexample_found
  | Counterexample of Instance.t

(* Bounded counterexample search for containment of queries with
   negation or inequalities. All facts over the body schema and the
   given universe are enumerated and their subsets searched (smallest
   first). Sound for refutation; completeness holds only up to the
   bound — faithful to the coNEXPTIME lower bound of Theorem 4.9, which
   shows exponential-size counterexamples are unavoidable. *)
let refute ?(max_facts = 14) ~universe q1 q2 =
  let schema = Schema.union (Ast.body_schema q1) (Ast.body_schema q2) in
  let universe =
    Value.Set.elements
      (Value.Set.union
         (Value.Set.of_list universe)
         (Value.Set.union (Ast.constants q1) (Ast.constants q2)))
  in
  let rec tuples arity =
    if arity = 0 then [ [] ]
    else
      let rest = tuples (arity - 1) in
      List.concat_map (fun v -> List.map (fun t -> v :: t) rest) universe
  in
  let all_facts =
    List.concat_map
      (fun (rel, arity) -> List.map (Fact.of_list rel) (tuples arity))
      (Schema.to_list schema)
  in
  let all_facts = Array.of_list all_facts in
  let n = Array.length all_facts in
  if n > max_facts then
    invalid_arg
      (Fmt.str
         "Containment.refute: %d candidate facts exceed max_facts = %d; \
          shrink the universe or raise the bound"
         n max_facts);
  let is_counterexample i =
    let r1 = Eval.eval q1 i and r2 = Eval.eval q2 i in
    not (Instance.subset r1 r2)
  in
  (* Enumerate subsets in order of increasing popcount so the returned
     counterexample is minimal in size. *)
  let masks = List.init (1 lsl n) (fun m -> m) in
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go m 0
  in
  let sorted = List.sort (fun a b -> Int.compare (popcount a) (popcount b)) masks in
  let instance_of_mask m =
    let rec go i acc =
      if i >= n then acc
      else if m land (1 lsl i) <> 0 then go (i + 1) (Instance.add all_facts.(i) acc)
      else go (i + 1) acc
    in
    go 0 Instance.empty
  in
  let rec search = function
    | [] -> No_counterexample_found
    | m :: rest ->
      let i = instance_of_mask m in
      if is_counterexample i then Counterexample i else search rest
  in
  search sorted
