open Lamp_cq
module Smap = Map.Make (String)
module Sset = Set.Make (String)

exception Not_stratifiable of string

(* Stratum numbers by fixpoint: a head predicate sits at least as high
   as every positive IDB body predicate and strictly higher than every
   negated IDB body predicate. Divergence beyond the predicate count
   witnesses a negative cycle. *)
let strata program =
  let idb = Sset.of_list (Program.idb program) in
  let n = Sset.cardinal idb in
  let stratum = ref (Sset.fold (fun p acc -> Smap.add p 0 acc) idb Smap.empty) in
  let get p = Option.value ~default:0 (Smap.find_opt p !stratum) in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun r ->
        let head = (Ast.head r).Ast.rel in
        let bump target =
          if target > get head then begin
            if target > n then
              raise
                (Not_stratifiable
                   (Fmt.str "cycle through negation involving %s" head));
            stratum := Smap.add head target !stratum;
            changed := true
          end
        in
        List.iter
          (fun (a : Ast.atom) ->
            if Sset.mem a.Ast.rel idb then bump (get a.Ast.rel))
          (Ast.body r);
        List.iter
          (fun (a : Ast.atom) ->
            if Sset.mem a.Ast.rel idb then bump (get a.Ast.rel + 1))
          (Ast.negated r))
      (Program.rules program)
  done;
  !stratum

let is_stratifiable program =
  match strata program with
  | _ -> true
  | exception Not_stratifiable _ -> false

(* Rules grouped by the stratum of their head, in evaluation order. *)
let layers program =
  let stratum = strata program in
  let get p = Option.value ~default:0 (Smap.find_opt p stratum) in
  let max_stratum =
    Smap.fold (fun _ s acc -> max s acc) stratum 0
  in
  List.init (max_stratum + 1) (fun level ->
      List.filter
        (fun r -> get (Ast.head r).Ast.rel = level)
        (Program.rules program))
  |> List.filter (fun rules -> rules <> [])
