open Lamp_relational
open Lamp_distribution
open Lamp_cq

(* Named-column relations: the working representation of the Yannakakis
   passes. Columns are variable names; rows are value tuples. *)
module Rel = struct
  type t = {
    cols : string list;
    rows : Tuple.Set.t;
  }

  let cardinal r = Tuple.Set.cardinal r.rows

  let col_positions cols wanted =
    List.map
      (fun c ->
        match List.find_index (String.equal c) cols with
        | Some i -> i
        | None -> invalid_arg (Fmt.str "Yannakakis: unknown column %s" c))
      wanted

  let positions r cols = col_positions r.cols cols
  let key_of_row positions row = List.map (fun i -> row.(i)) positions

  let project_rows positions rows =
    Tuple.Set.of_list
      (Tuple.Set.fold
         (fun row acc -> Array.of_list (key_of_row positions row) :: acc)
         rows [])

  let semijoin r1 r2 =
    let shared = List.filter (fun c -> List.mem c r2.cols) r1.cols in
    if shared = [] then if Tuple.Set.is_empty r2.rows then { r1 with rows = Tuple.Set.empty } else r1
    else begin
      let pos1 = positions r1 shared and pos2 = positions r2 shared in
      let keys = Hashtbl.create 64 in
      Tuple.Set.iter
        (fun row -> Hashtbl.replace keys (key_of_row pos2 row) ())
        r2.rows;
      {
        r1 with
        rows =
          Tuple.Set.filter
            (fun row -> Hashtbl.mem keys (key_of_row pos1 row))
            r1.rows;
      }
    end

  let join r1 r2 =
    let shared = List.filter (fun c -> List.mem c r2.cols) r1.cols in
    let extra = List.filter (fun c -> not (List.mem c r1.cols)) r2.cols in
    let pos1 = positions r1 shared
    and pos2 = positions r2 shared
    and pos_extra = positions r2 extra in
    (* Each r2 row indexed by its key, carrying the columns it adds. *)
    let index = Hashtbl.create 64 in
    Tuple.Set.iter
      (fun row ->
        let key = key_of_row pos2 row in
        let prev = Option.value ~default:[] (Hashtbl.find_opt index key) in
        Hashtbl.replace index key
          (Array.of_list (key_of_row pos_extra row) :: prev))
      r2.rows;
    let rows =
      Tuple.Set.fold
        (fun row1 acc ->
          match Hashtbl.find_opt index (key_of_row pos1 row1) with
          | None -> acc
          | Some matches ->
            List.fold_left
              (fun acc added -> Array.append row1 added :: acc)
              acc matches)
        r1.rows []
    in
    { cols = r1.cols @ extra; rows = Tuple.Set.of_list rows }
end

(* The relation of a body atom: tuples of the atom's relation that match
   its constants and repeated variables, projected onto its distinct
   variables (in first-occurrence order). *)
let atom_cols (a : Ast.atom) =
  List.fold_left
    (fun acc t ->
      match t with
      | Ast.Var v when not (List.mem v acc) -> v :: acc
      | _ -> acc)
    [] a.Ast.terms
  |> List.rev

let atom_relation instance (a : Ast.atom) =
  let cols = atom_cols a in
  let arity = List.length a.Ast.terms in
  let tuples =
    Tuple.Set.filter
      (fun tup -> Tuple.arity tup = arity)
      (Instance.tuples instance a.Ast.rel)
  in
  if List.length cols = arity then { Rel.cols; rows = tuples }
  else begin
    (* Every term checked against its constant, or against the first
       occurrence of its variable. *)
    let first v =
      Option.get
        (List.find_index
           (function Ast.Var w -> String.equal v w | Ast.Const _ -> false)
           a.Ast.terms)
    in
    let checks =
      List.mapi
        (fun i t ->
          match t with
          | Ast.Const c -> fun tup -> Value.equal c tup.(i)
          | Ast.Var v ->
            let j = first v in
            fun tup -> Value.equal tup.(j) tup.(i))
        a.Ast.terms
    in
    {
      Rel.cols;
      rows =
        Rel.project_rows (List.map first cols)
          (Tuple.Set.filter (fun tup -> List.for_all (fun ok -> ok tup) checks) tuples);
    }
  end

type reduced_tree = {
  atom : Ast.atom;
  mutable rel : Rel.t;
  children : reduced_tree list;
}

let rec of_join_tree instance (t : Hypergraph.join_tree) =
  {
    atom = t.Hypergraph.atom;
    rel = atom_relation instance t.Hypergraph.atom;
    children = List.map (of_join_tree instance) t.Hypergraph.children;
  }

(* Bottom-up then top-down semi-join passes: afterwards no relation
   contains a dangling tuple (the "full reducer"). *)
let rec reduce_up node =
  List.iter reduce_up node.children;
  List.iter
    (fun child -> node.rel <- Rel.semijoin node.rel child.rel)
    node.children

let rec reduce_down node =
  List.iter
    (fun child ->
      child.rel <- Rel.semijoin child.rel node.rel;
      reduce_down child)
    node.children

let full_reduce node =
  reduce_up node;
  reduce_down node

let rec join_up node =
  List.fold_left
    (fun acc child -> Rel.join acc (join_up child))
    node.rel node.children

(* The head's facts over rows whose columns hold every head variable. *)
let head_facts (head : Ast.atom) cols rows =
  let value_of = function
    | Ast.Const c -> fun _ -> c
    | Ast.Var v -> (
      match List.find_index (String.equal v) cols with
      | Some i -> fun row -> row.(i)
      | None -> assert false)
  in
  let args = Array.of_list (List.map value_of head.Ast.terms) in
  Instance.of_tuple_set head.Ast.rel
    (Tuple.Set.of_list
       (List.fold_left
          (fun acc rows ->
            Tuple.Set.fold
              (fun row acc -> Array.map (fun f -> f row) args :: acc)
              rows acc)
          [] rows))

exception Cyclic

let eval_acyclic q instance =
  if not (Ast.is_positive q) then
    invalid_arg "Yannakakis.eval_acyclic: defined for positive CQs";
  match Hypergraph.gyo q with
  | None -> raise Cyclic
  | Some forest ->
    let trees = List.map (of_join_tree instance) forest in
    List.iter full_reduce trees;
    let joined =
      match trees with
      | [] -> { Rel.cols = []; rows = Tuple.Set.singleton [||] }
      | first :: rest ->
        List.fold_left
          (fun acc tree -> Rel.join acc (join_up tree))
          (join_up first) rest
    in
    head_facts (Ast.head q) joined.Rel.cols [ joined.Rel.rows ]

(* Sizes before/after full reduction, per atom — the quantity behind
   Yannakakis' guarantee that intermediate results stay bounded. *)
let reduction_report q instance =
  match Hypergraph.gyo q with
  | None -> raise Cyclic
  | Some forest ->
    let trees = List.map (of_join_tree instance) forest in
    let before =
      let rec sizes node =
        (node.atom, Rel.cardinal node.rel)
        :: List.concat_map sizes node.children
      in
      List.concat_map sizes trees
    in
    List.iter full_reduce trees;
    let after =
      let rec sizes node =
        (node.atom, Rel.cardinal node.rel)
        :: List.concat_map sizes node.children
      in
      List.concat_map sizes trees
    in
    List.map2 (fun (a, b) (_, c) -> (a, b, c)) before after

(* ------------------------------------------------------------------ *)
(* GYM: Yannakakis in MPC (Section 3.2 / [6]).                         *)

(* GYM is a plan of binary ops over the numbered join forest: semi-join
   up, semi-join down, join edge. Node [k]'s relation lives on the
   servers as facts of one relation, one fragment per server. An op
   routes both operands on their shared columns; each server applies the
   op to what it received, and the result replaces the target's
   fragment. The source is only read, so it stays where it is through
   [previous] — except a join's child, which nothing reads again. *)
type op = {
  join : bool;  (* [Rel.join], else [Rel.semijoin] *)
  target : int;
  source : int;
  seed : int;
  target_cols : string list;
  source_cols : string list;
  target_key : int list;  (* the shared columns, in the target's order *)
  source_key : int list;
}

type step = {
  ops : op list;
  keep : int list;  (* nodes carried through [previous] *)
}

type plan = {
  atoms : Ast.atom array;  (* node [k]'s atom, numbered in pre-order *)
  names : string array;  (* node [k]'s relation on the servers *)
  steps : step array;  (* one per round *)
  roots : (int * string list) list;  (* each tree's root, final columns *)
}

type numbered = { id : int; kids : numbered list }

let plan ?(seed = 0) forest =
  let atoms = ref [] and count = ref 0 in
  let rec number (t : Hypergraph.join_tree) =
    let id = !count in
    incr count;
    atoms := t.Hypergraph.atom :: !atoms;
    { id; kids = List.map number t.Hypergraph.children }
  in
  let roots = List.map number forest in
  let atoms = Array.of_list (List.rev !atoms) in
  let n = Array.length atoms in
  let cols = Array.map atom_cols atoms in
  let alive = Array.make n true in
  let op ~join ~seed target source =
    let shared =
      List.filter (fun c -> List.mem c cols.(source)) cols.(target)
    in
    let o =
      {
        join;
        target;
        source;
        seed;
        target_cols = cols.(target);
        source_cols = cols.(source);
        target_key = Rel.col_positions cols.(target) shared;
        source_key = Rel.col_positions cols.(source) shared;
      }
    in
    if join then begin
      cols.(target) <-
        cols.(target)
        @ List.filter (fun c -> not (List.mem c cols.(target))) cols.(source);
      alive.(source) <- false
    end;
    o
  in
  (* No round reads its own output: a parent is reduced by one child per
     round, a level's downward semi-joins share one round, and the join
     edges run one per round, in post-order. *)
  let steps = ref [] in
  let round ops =
    if ops <> [] then begin
      let targets = List.map (fun o -> o.target) ops in
      let keep =
        List.filter
          (fun k -> alive.(k) && not (List.mem k targets))
          (List.init n Fun.id)
      in
      steps := { ops; keep } :: !steps
    end
  in
  let rec at_level level nd =
    if level = 1 then [ nd ] else List.concat_map (at_level (level - 1)) nd.kids
  in
  let level_nodes level = List.concat_map (at_level level) roots in
  let rec depth nd = 1 + List.fold_left (fun a k -> max a (depth k)) 0 nd.kids in
  let max_depth = List.fold_left (fun a t -> max a (depth t)) 0 roots in
  for level = max_depth - 1 downto 1 do
    let nodes = level_nodes level in
    let width = List.fold_left (fun a nd -> max a (List.length nd.kids)) 0 nodes in
    for j = 0 to width - 1 do
      round
        (List.filter_map
           (fun nd ->
             Option.map
               (fun kid -> op ~join:false ~seed:(seed + (level * 31)) nd.id kid.id)
               (List.nth_opt nd.kids j))
           nodes)
    done
  done;
  for level = 1 to max_depth - 1 do
    round
      (List.concat_map
         (fun nd ->
           List.map
             (fun kid ->
               op ~join:false ~seed:(seed + 1000 + (level * 31)) kid.id nd.id)
             nd.kids)
         (level_nodes level))
  done;
  let rec edges nd =
    List.iter edges nd.kids;
    List.iter
      (fun kid -> round [ op ~join:true ~seed:(seed + 2000) nd.id kid.id ])
      nd.kids
  in
  List.iter edges roots;
  {
    atoms;
    names = Array.init n (Fmt.str "\006n%d");
    steps = Array.of_list (List.rev !steps);
    roots = List.map (fun nd -> (nd.id, cols.(nd.id))) roots;
  }

(* Node [k]'s fragment in a server's local: before GYM's first round the
   local still holds the input, and the fragment is the atom's
   relation. *)
let fragment plan ~fresh local k =
  if fresh then (atom_relation local plan.atoms.(k)).Rel.rows
  else Instance.tuples local plan.names.(k)

let rounds plan ~p =
  Array.mapi
    (fun r step ->
      let fresh = r = 0 in
      (* Each op's two operands travel under relations of their own, so
         two ops shipping the same node to one server are two loads. *)
      let ops =
        List.mapi
          (fun j o -> (o, Fmt.str "\006op%d<" j, Fmt.str "\006op%d>" j))
          step.ops
      in
      {
        Cluster.communicate =
          (fun _ local ->
            let ship acc ~seed ~tag key k =
              Tuple.Set.fold
                (fun row acc ->
                  ( Policy.hash_values ~seed ~buckets:p
                      (List.map (Array.get row) key),
                    Fact.make tag row )
                  :: acc)
                (fragment plan ~fresh local k)
                acc
            in
            List.fold_left
              (fun acc (o, tag_t, tag_s) ->
                let acc = ship acc ~seed:o.seed ~tag:tag_t o.target_key o.target in
                ship acc ~seed:o.seed ~tag:tag_s o.source_key o.source)
              [] ops);
        compute =
          (fun _ ~received ~previous ->
            let kept =
              List.fold_left
                (fun acc k ->
                  Instance.add_tuple_set plan.names.(k)
                    (fragment plan ~fresh previous k)
                    acc)
                Instance.empty step.keep
            in
            List.fold_left
              (fun acc (o, tag_t, tag_s) ->
                let r1 =
                  { Rel.cols = o.target_cols; rows = Instance.tuples received tag_t }
                and r2 =
                  { Rel.cols = o.source_cols; rows = Instance.tuples received tag_s }
                in
                let r = if o.join then Rel.join r1 r2 else Rel.semijoin r1 r2 in
                Instance.add_tuple_set plan.names.(o.target) r.Rel.rows acc)
              kept ops);
      })
    plan.steps

(* The answer. One tree's result is projected onto the head on every
   server. Several trees are projected on every server onto the columns
   the head or another tree reads, gathered, and joined on the
   coordinator (they share no round). *)
let output plan head cluster =
  let fresh = Array.length plan.steps = 0 in
  let fragments k =
    Array.to_list (Array.map (fun l -> fragment plan ~fresh l k) (Cluster.locals cluster))
  in
  match plan.roots with
  | [ (k, cols) ] -> head_facts head cols (fragments k)
  | roots ->
    let head_vars =
      List.filter_map (function Ast.Var v -> Some v | Ast.Const _ -> None)
        head.Ast.terms
    in
    let tree (k, cols) =
      let needed =
        List.filter
          (fun c ->
            List.mem c head_vars
            || List.exists (fun (k', cols') -> k' <> k && List.mem c cols') roots)
          cols
      in
      let pos = Rel.col_positions cols needed in
      {
        Rel.cols = needed;
        rows =
          List.fold_left
            (fun acc rows -> Tuple.Set.union acc (Rel.project_rows pos rows))
            Tuple.Set.empty (fragments k);
      }
    in
    let joined =
      match List.map tree roots with
      | [] -> { Rel.cols = []; rows = Tuple.Set.singleton [||] }
      | first :: rest -> List.fold_left Rel.join first rest
    in
    head_facts head joined.Rel.cols [ joined.Rel.rows ]

let gym ?seed ?forest ?executor ?faults ?job ~p q instance =
  if p < 1 then invalid_arg "Yannakakis.gym: p < 1";
  Lamp_obs.Sketch.set_context "gym";
  let forest =
    match forest with
    | Some f -> f
    | None -> ( match Hypergraph.gyo q with Some f -> f | None -> raise Cyclic)
  in
  let plan = plan ?seed forest in
  (* Every op rehashes its operands: a permanent crash shrinks onto the
     survivors. *)
  let cluster, () =
    Cluster.run_job ?executor ?faults ?job ~name:"gym" ~on_crash:`Shrink ~p
      instance (fun ~p -> (rounds plan ~p, ()))
  in
  (output plan (Ast.head q) cluster, Cluster.stats cluster)
