open Lamp_relational
open Lamp_cq

let eval query policy instance =
  List.fold_left
    (fun acc node ->
      Instance.union acc (Eval.eval query (Policy.loc_inst policy instance node)))
    Instance.empty (Policy.nodes policy)

let eval_ucq queries policy instance =
  List.fold_left
    (fun acc node ->
      Instance.union acc
        (Eval.eval_ucq queries (Policy.loc_inst policy instance node)))
    Instance.empty (Policy.nodes policy)

let max_load policy instance =
  List.fold_left
    (fun acc node ->
      max acc (Instance.cardinal (Policy.loc_inst policy instance node)))
    0 (Policy.nodes policy)

let total_load policy instance =
  List.fold_left
    (fun acc node ->
      acc + Instance.cardinal (Policy.loc_inst policy instance node))
    0 (Policy.nodes policy)
