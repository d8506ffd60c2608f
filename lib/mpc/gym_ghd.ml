open Lamp_relational
open Lamp_distribution
open Lamp_cq
module Sset = Decomposition.Sset

(* GYM over a tree decomposition (Section 3.2 / [6]): round 1 evaluates
   every bag's join by HyperCube on its own slice of the cluster; the
   rounds after it are GYM's over the bag results, whose tree is acyclic
   by the running-intersection property. *)

let bag_rel i = Fmt.str "\006bag%d" i

(* Bag [i]'s copy of an input relation: what its HyperCube sends stays
   apart from another bag's on a server both slices cover. *)
let input_rel i rel = Fmt.str "\006in%d:%s" i rel

let bag_pseudo_atom i (b : Decomposition.bag) =
  Ast.atom (bag_rel i) (List.map (fun v -> Ast.Var v) (Sset.elements b.vars))

let bag_query i (b : Decomposition.bag) =
  Ast.make ~head:(bag_pseudo_atom i b) ~body:b.Decomposition.atoms ()

type cube = {
  offset : int;  (* the slice's first server *)
  size : int;  (* its grid's cells *)
  policy : Policy.t;
  renames : (string * string) list;  (* input relation -> bag's copy *)
  query : Ast.t;  (* the bag's join over its copies *)
}

(* Round 1: bag [i] takes servers [i * p_bag ...] for its HyperCube grid,
   p_bag = p / #bags. When bags outnumber servers, the slices wrap and
   their loads add. *)
let hypercube_round ~seed ~p instance bags =
  let p_bag = max 1 (p / Array.length bags) in
  let cube i (b : Decomposition.bag) =
    let bq = bag_query i b in
    let shares, _ =
      Shares.optimize ~objective:Shares.Max_load ~p:p_bag
        ~sizes:(fun (a : Ast.atom) ->
          Tuple.Set.cardinal (Instance.tuples instance a.Ast.rel))
        bq
    in
    let policy, grid = Policy.hypercube ~seed ~name:"hypercube" ~query:bq ~shares () in
    let renames =
      List.sort_uniq compare
        (List.map (fun (a : Ast.atom) -> (a.Ast.rel, input_rel i a.Ast.rel)) b.atoms)
    in
    {
      offset = i * p_bag mod p;
      size = Grid.size grid;
      policy;
      renames;
      query =
        Ast.make ~head:(Ast.head bq)
          ~body:
            (List.map
               (fun (a : Ast.atom) -> { a with Ast.rel = List.assoc a.Ast.rel renames })
               b.atoms)
          ();
    }
  in
  let cubes = Array.mapi cube bags in
  let on_slice c s = (s - c.offset + p) mod p < c.size in
  {
    Cluster.communicate =
      (fun _ local ->
        Instance.fold
          (fun f acc ->
            Array.fold_left
              (fun acc c ->
                match Policy.responsible_nodes c.policy f with
                | [] -> acc
                | cells ->
                  let copy = Fact.make (List.assoc (Fact.rel f) c.renames) (Fact.args f) in
                  List.fold_left
                    (fun acc cell -> ((c.offset + cell) mod p, copy) :: acc)
                    acc cells)
              acc cubes)
          local []);
    compute =
      (fun s ~received ~previous:_ ->
        Array.fold_left
          (fun acc c ->
            if on_slice c s then Instance.union acc (Eval.eval c.query received)
            else acc)
          Instance.empty cubes);
  }

let run ?(seed = 0) ?decomposition ?executor ?faults ?job ~p q instance =
  if not (Ast.is_positive q) then
    invalid_arg "Gym_ghd.run: defined for positive CQs";
  let decomposition =
    match decomposition with
    | Some d -> d
    | None -> (
      match Hypergraph.gyo q with
      | Some forest -> Decomposition.of_join_forest forest
      | None -> Decomposition.min_fill q)
  in
  (match Decomposition.validate q decomposition with
  | Ok () -> ()
  | Error msg -> invalid_arg (Fmt.str "Gym_ghd.run: invalid decomposition: %s" msg));
  Lamp_obs.Sketch.set_context "gym_ghd";
  (* Bags numbered in pre-order; GYM's tree has one pseudo-atom each. *)
  let bags = ref [] in
  let rec pseudo_tree (t : Decomposition.t) =
    let i = List.length !bags in
    bags := t.Decomposition.bag :: !bags;
    {
      Hypergraph.atom = bag_pseudo_atom i t.Decomposition.bag;
      vars = t.Decomposition.bag.vars;
      children = List.map pseudo_tree t.Decomposition.children;
    }
  in
  let forest = List.map pseudo_tree decomposition in
  let bags = Array.of_list (List.rev !bags) in
  let gym = Yannakakis.plan ~seed forest in
  (* Both the slices and GYM's hashing are functions of p: a permanent
     crash restarts the job on the survivors. *)
  let cluster, () =
    Cluster.run_job ?executor ?faults ?job ~name:"gym_ghd" ~on_crash:`Restart
      ~p instance (fun ~p ->
        ( Array.append
            [| hypercube_round ~seed ~p instance bags |]
            (Yannakakis.rounds gym ~p),
          () ))
  in
  ( Yannakakis.output gym (Ast.head q) cluster,
    Cluster.stats cluster,
    Decomposition.width decomposition )
