open Lamp_relational
open Lamp_cq
module Sset = Set.Make (String)

(* Worst-case optimal ("generic") join in the style of NPRR /
   Leapfrog-Triejoin: variables are eliminated one at a time, and the
   candidate values for each variable are obtained by intersecting the
   value sets offered by every atom containing it — iterating the
   smallest set and probing the others, which is what bounds the work by
   the AGM output bound m^ρ* instead of the intermediate-result sizes of
   binary join plans. Chu–Balazinska–Suciu pair exactly this local
   algorithm with the HyperCube reshuffle. *)

let check_query q =
  if Ast.has_negation q then
    invalid_arg "Generic_join.eval: negated atoms are not supported \
                 (inequalities are)"

(* Default variable order: most constrained first — variables covered
   by more body atoms are eliminated earlier. Fully deterministic, a
   pure function of the query: covering counts are computed once into
   an association list keyed by the (sorted) output of [Ast.body_vars],
   and ties are broken by variable name, ascending. Nothing here reads
   a hash table or other iteration-order-dependent structure, so the
   order — and therefore the exact sequence of intersections — is
   stable across runs and OCaml versions. The [Wcoj] property suite
   relies on this module as its value-level oracle; a nondeterministic
   order would make failures of the equivalence properties
   unreproducible. *)
let default_order q =
  let counts =
    List.map
      (fun v ->
        ( v,
          List.length
            (List.filter (fun a -> List.mem v (Ast.atom_vars a)) (Ast.body q))
        ))
      (Ast.body_vars q)
  in
  let count v = List.assoc v counts in
  List.sort
    (fun v1 v2 ->
      let c = Int.compare (count v2) (count v1) in
      if c <> 0 then c else String.compare v1 v2)
    (Ast.body_vars q)

(* Candidate tuples of an atom compatible with the current valuation:
   probe the index on the first bound position when one exists. *)
let candidates idx valuation (a : Ast.atom) =
  let rec bound_pos i = function
    | [] -> None
    | Ast.Const c :: _ -> Some (i, c)
    | Ast.Var v :: rest -> (
      match Valuation.find v valuation with
      | Some value -> Some (i, value)
      | None -> bound_pos (i + 1) rest)
  in
  let pool =
    match bound_pos 0 a.Ast.terms with
    | Some (pos, value) -> Index.lookup idx ~rel:a.Ast.rel ~pos ~value
    | None -> Index.all idx ~rel:a.Ast.rel
  in
  List.filter
    (fun tup ->
      Tuple.arity tup = List.length a.Ast.terms
      &&
      let ok = ref true in
      List.iteri
        (fun i term ->
          match term with
          | Ast.Const c -> if not (Value.equal c tup.(i)) then ok := false
          | Ast.Var v -> (
            match Valuation.find v valuation with
            | Some value -> if not (Value.equal value tup.(i)) then ok := false
            | None -> ()))
        a.Ast.terms;
      !ok)
    pool

(* Values atom [a] offers for variable [v] under the valuation: the
   values at v's positions in the compatible tuples (consistent across
   repeated occurrences). *)
let offered idx valuation (a : Ast.atom) v =
  let positions =
    List.mapi (fun i t -> (i, t)) a.Ast.terms
    |> List.filter_map (fun (i, t) ->
           match t with Ast.Var u when u = v -> Some i | _ -> None)
  in
  List.fold_left
    (fun acc tup ->
      match positions with
      | [] -> acc
      | p0 :: rest ->
        let candidate = tup.(p0) in
        if List.for_all (fun p -> Value.equal tup.(p) candidate) rest then
          Value.Set.add candidate acc
        else acc)
    Value.Set.empty
    (candidates idx valuation a)

let fold ?order q idx f init =
  check_query q;
  let order = match order with Some o -> o | None -> default_order q in
  (if
     List.sort String.compare order
     <> List.sort String.compare (Ast.body_vars q)
   then invalid_arg "Generic_join: order must enumerate the body variables");
  let atoms_with v =
    List.filter (fun a -> List.mem v (Ast.atom_vars a)) (Ast.body q)
  in
  let rec go valuation vars acc =
    match vars with
    | [] ->
      (* All variables bound; verify atoms with no variables (ground)
         and the inequalities. *)
      let grounded =
        List.for_all
          (fun a -> candidates idx valuation a <> [])
          (List.filter (fun a -> Ast.atom_vars a = []) (Ast.body q))
      in
      if grounded && Valuation.satisfies_diseq valuation q then f valuation acc
      else acc
    | v :: rest ->
      (* Intersect the value sets of every atom containing v, smallest
         first. *)
      (match atoms_with v with
      | [] -> acc (* impossible: body variables occur in some atom *)
      | atoms ->
        let sets = List.map (fun a -> offered idx valuation a v) atoms in
        let sorted =
          List.sort (fun s1 s2 -> Int.compare (Value.Set.cardinal s1) (Value.Set.cardinal s2)) sets
        in
        match sorted with
        | [] -> acc
        | smallest :: others ->
          Value.Set.fold
            (fun value acc ->
              if List.for_all (Value.Set.mem value) others then
                go (Valuation.bind v value valuation) rest acc
              else acc)
            smallest acc)
  in
  go Valuation.empty order init

let eval ?order q instance =
  let idx = Index.create instance in
  fold ?order q idx
    (fun valuation acc -> Instance.add (Valuation.head_fact valuation q) acc)
    Instance.empty
