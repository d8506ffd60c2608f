open Lamp_lp
module Sset = Set.Make (String)

type t = {
  vertices : string list;
  edges : (Ast.atom * Sset.t) list;
}

let of_query q =
  let edges =
    List.map (fun a -> (a, Sset.of_list (Ast.atom_vars a))) (Ast.body q)
  in
  let vertices =
    List.fold_left (fun acc (_, vs) -> Sset.union acc vs) Sset.empty edges
    |> Sset.elements
  in
  { vertices; edges }

let vertex_index hg =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace tbl v i) hg.vertices;
  tbl

let int_edges hg =
  let tbl = vertex_index hg in
  List.map
    (fun (_, vs) -> List.map (Hashtbl.find tbl) (Sset.elements vs))
    hg.edges

(* Atoms without variables contribute empty hyperedges, which the LP
   layer rejects; they are irrelevant to packings and shares. *)
let nonempty_int_edges hg = List.filter (fun e -> e <> []) (int_edges hg)

let tau_star q =
  let hg = of_query q in
  match nonempty_int_edges hg with
  | [] -> 0.0
  | edges ->
    (Packing.edge_packing ~vertices:(List.length hg.vertices) ~edges)
      .Packing.value

let rho_star q =
  let hg = of_query q in
  match nonempty_int_edges hg with
  | [] -> 0.0
  | edges ->
    (Packing.edge_cover ~vertices:(List.length hg.vertices) ~edges)
      .Packing.value

let share_exponents q =
  let hg = of_query q in
  match nonempty_int_edges hg with
  | [] -> (1.0, [])
  | edges ->
    let t, exps =
      Packing.hypercube_exponents ~vertices:(List.length hg.vertices) ~edges
    in
    (t, List.mapi (fun i v -> (v, exps.(i))) hg.vertices)

(* ------------------------------------------------------------------ *)
(* GYO ear removal and join trees                                      *)

type join_tree = {
  atom : Ast.atom;
  vars : Sset.t;
  children : join_tree list;
}

let rec join_tree_atoms t =
  t.atom :: List.concat_map join_tree_atoms t.children

(* GYO: repeatedly find an "ear" — an edge e with a witness edge w such
   that every vertex of e shared with the rest of the hypergraph also
   lies in w — remove the ear and attach it below the witness. A
   hypergraph is acyclic iff this reduces it to a single edge (per
   connected component). *)
let gyo q =
  let hg = of_query q in
  let nodes =
    List.mapi
      (fun i (atom, vars) -> (i, atom, vars, ref ([] : int list)))
      hg.edges
  in
  let alive = Hashtbl.create 16 in
  List.iter (fun (i, _, _, _) -> Hashtbl.replace alive i ()) nodes;
  let get i = List.find (fun (j, _, _, _) -> j = i) nodes in
  let living () =
    List.filter (fun (i, _, _, _) -> Hashtbl.mem alive i) nodes
  in
  let find_ear () =
    let live = living () in
    let rest_vars except =
      List.fold_left
        (fun acc (j, _, vs, _) -> if j = except then acc else Sset.union acc vs)
        Sset.empty live
    in
    let is_witness shared (_, _, wvars, _) = Sset.subset shared wvars in
    List.find_map
      (fun (i, _, vs, _) ->
        if List.length live <= 1 then None
        else
          let shared = Sset.inter vs (rest_vars i) in
          (* An edge sharing nothing with the rest is a fully reduced
             component: keep it as a root instead of attaching it to an
             unrelated witness. *)
          if Sset.is_empty shared then None
          else
          match
            List.find_opt
              (fun ((j, _, _, _) as w) -> j <> i && is_witness shared w)
              live
          with
          | Some (j, _, _, _) -> Some (i, j)
          | None -> None)
      live
  in
  let rec reduce () =
    match find_ear () with
    | Some (ear, witness) ->
      Hashtbl.remove alive ear;
      let _, _, _, children = get witness in
      children := ear :: !children;
      reduce ()
    | None -> ()
  in
  reduce ();
  let live = living () in
  (* Acyclic iff one edge per connected component survives; components
     of the *query* hypergraph are counted on the original edges. *)
  let rec build i =
    let _, atom, vars, children = get i in
    { atom; vars; children = List.map build !children }
  in
  let component_count =
    (* Union-find over edges sharing variables. *)
    let parent = Array.init (List.length hg.edges) (fun i -> i) in
    let rec find i = if parent.(i) = i then i else find parent.(i) in
    let union i j =
      let ri = find i and rj = find j in
      if ri <> rj then parent.(ri) <- rj
    in
    List.iteri
      (fun i (_, vi) ->
        List.iteri
          (fun j (_, vj) ->
            if i < j && not (Sset.is_empty (Sset.inter vi vj)) then union i j)
          hg.edges)
      hg.edges;
    List.length
      (List.sort_uniq Int.compare
         (List.mapi (fun i _ -> find i) hg.edges))
  in
  if List.length live = component_count then
    Some (List.map (fun (i, _, _, _) -> build i) live)
  else None

let is_acyclic q = Option.is_some (gyo q)
