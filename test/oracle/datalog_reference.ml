(* The instance-based Datalog engine the library ran before the
   incremental one: a full Index.create per rule (variant) per
   iteration over [Cq_reference], persistent-set unions everywhere.
   The equivalence suite and the e12 benchmark compare
   [Lamp_datalog.Eval.run] against it. Rule variants and the ADom
   materialization are its own copies, so it shares no code with the
   engine it checks. *)

open Lamp_relational
open Lamp_cq
open Lamp_datalog
module Sset = Set.Make (String)

let delta_prefix = "\003delta_"

let materialize_adom instance =
  Value.Set.fold
    (fun v acc -> Instance.add (Fact.of_list "ADom" [ v ]) acc)
    (Instance.adom instance)
    instance

(* Semi-naive rule variants: for every occurrence of a recursive
   predicate in a rule's positive body, a copy of the rule where that
   occurrence reads only the last iteration's delta, materialized under
   a reserved relation name. *)
let recursive_heads rules =
  List.fold_left
    (fun acc r -> Sset.add (Ast.head r).Ast.rel acc)
    Sset.empty rules

let variants recursive r =
  let body = Ast.body r in
  List.concat
    (List.mapi
       (fun i (a : Ast.atom) ->
         if not (Sset.mem a.Ast.rel recursive) then []
         else
           [
             Ast.make ~negated:(Ast.negated r) ~diseq:(Ast.diseq r)
               ~head:(Ast.head r)
               ~body:
                 (List.mapi
                    (fun j (b : Ast.atom) ->
                      if i = j then
                        Ast.atom (delta_prefix ^ b.Ast.rel) b.Ast.terms
                      else b)
                    body)
               ();
           ])
       body)

let naive_fixpoint_ref rules db =
  let rec iterate db =
    let additions =
      List.fold_left
        (fun acc r -> Instance.union acc (Cq_reference.eval r db))
        Instance.empty rules
    in
    if Instance.subset additions db then db
    else iterate (Instance.union db additions)
  in
  iterate db

let seminaive_fixpoint_ref rules db =
  let recursive = recursive_heads rules in
  let rule_variants = List.map (fun r -> (r, variants recursive r)) rules in
  let rename_delta delta =
    Instance.fold
      (fun f acc ->
        Instance.add (Fact.make (delta_prefix ^ Fact.rel f) (Fact.args f)) acc)
      delta Instance.empty
  in
  let initial =
    List.fold_left
      (fun acc r -> Instance.union acc (Cq_reference.eval r db))
      Instance.empty rules
  in
  let rec iterate total delta =
    if Instance.is_empty delta then total
    else begin
      let view = Instance.union total (rename_delta delta) in
      let additions =
        List.fold_left
          (fun acc (_, vs) ->
            List.fold_left
              (fun acc v -> Instance.union acc (Cq_reference.eval v view))
              acc vs)
          Instance.empty rule_variants
      in
      let fresh = Instance.diff additions total in
      iterate (Instance.union total fresh) fresh
    end
  in
  iterate (Instance.union db initial) (Instance.diff initial db)

let run ?(strategy = Eval.Seminaive) program instance =
  let db =
    if Program.uses_adom program then materialize_adom instance else instance
  in
  let layers = Stratify.layers program in
  let fixpoint =
    match strategy with
    | Eval.Naive -> naive_fixpoint_ref
    | Eval.Seminaive -> seminaive_fixpoint_ref
  in
  List.fold_left (fun db rules -> fixpoint rules db) db layers
