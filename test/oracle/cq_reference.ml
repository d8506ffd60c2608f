(* The backtracking CQ evaluator the library ran before compiled plans:
   Valuation.t maps, Index columns, a greedy join order. The randomized
   equivalence suite checks [Lamp_cq.Eval] against it and the e12/e16
   benchmarks measure the compiled engine's speedup over it. *)

open Lamp_relational
open Lamp_cq

(* Greedy join order: start from the smallest relation, then
   repeatedly pick an atom sharing a variable with the already-bound
   set (preferring small relations), falling back to the smallest
   unconnected atom for cartesian products. The chosen atom is
   removed by position: removing with [List.filter (!=)] dropped all
   physically shared duplicates of the chosen atom at once, silently
   skipping their join steps. *)
let order_atoms idx atoms =
  let module Sset = Set.Make (String) in
  let size a = Index.count idx ~rel:a.Ast.rel in
  let remove_nth n l = List.filteri (fun i _ -> i <> n) l in
  let rec pick bound remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let indexed = List.mapi (fun i a -> (i, a)) remaining in
      let connected, rest =
        List.partition
          (fun (_, a) ->
            List.exists (fun v -> Sset.mem v bound) (Ast.atom_vars a)
            || Ast.atom_vars a = [])
          indexed
      in
      let pool = if connected <> [] then connected else rest in
      let best =
        List.fold_left
          (fun best (i, a) ->
            match best with
            | None -> Some (i, a)
            | Some (_, b) -> if size a < size b then Some (i, a) else best)
          None pool
      in
      (match best with
      | None -> List.rev acc
      | Some (i, a) ->
        let bound =
          List.fold_left (fun s v -> Sset.add v s) bound (Ast.atom_vars a)
        in
        pick bound (remove_nth i remaining) (a :: acc))
  in
  pick Sset.empty atoms []

(* Unify a tuple with an atom under a partial valuation. *)
let match_tuple valuation (a : Ast.atom) tuple =
  if Tuple.arity tuple <> List.length a.Ast.terms then None
  else
    let rec go i terms valuation =
      match terms with
      | [] -> Some valuation
      | Ast.Const c :: rest ->
        if Value.equal c tuple.(i) then go (i + 1) rest valuation else None
      | Ast.Var v :: rest -> (
        match Valuation.find v valuation with
        | Some value ->
          if Value.equal value tuple.(i) then go (i + 1) rest valuation
          else None
        | None -> go (i + 1) rest (Valuation.bind v tuple.(i) valuation))
    in
    go 0 a.Ast.terms valuation

(* Candidate tuples for an atom: probe the index on the first bound
   position, scan the relation when nothing is bound. *)
let candidates idx valuation (a : Ast.atom) =
  let rec bound_pos i = function
    | [] -> None
    | Ast.Const c :: _ -> Some (i, c)
    | Ast.Var v :: rest -> (
      match Valuation.find v valuation with
      | Some value -> Some (i, value)
      | None -> bound_pos (i + 1) rest)
  in
  match bound_pos 0 a.Ast.terms with
  | Some (pos, value) -> Index.lookup idx ~rel:a.Ast.rel ~pos ~value
  | None -> Index.all idx ~rel:a.Ast.rel

let fold_valuations_idx q idx f init =
  let ordered = order_atoms idx (Ast.body q) in
  let instance = Index.instance idx in
  let rec go valuation atoms acc =
    match atoms with
    | [] ->
      if
        Valuation.satisfies_diseq valuation q
        && Valuation.satisfies_negation valuation q instance
      then f valuation acc
      else acc
    | a :: rest ->
      List.fold_left
        (fun acc tuple ->
          match match_tuple valuation a tuple with
          | Some valuation -> go valuation rest acc
          | None -> acc)
        acc (candidates idx valuation a)
  in
  go Valuation.empty ordered init

let fold_valuations q instance f init =
  fold_valuations_idx q (Index.create instance) f init

let eval_idx q idx =
  fold_valuations_idx q idx
    (fun v acc -> Instance.add (Valuation.head_fact v q) acc)
    Instance.empty

let eval q instance = eval_idx q (Index.create instance)
