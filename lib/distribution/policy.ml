open Lamp_relational
open Lamp_cq

type kind =
  | Explicit
  | Hash
  | Hypercube
  | Domain_guided
  | Custom

type t = {
  name : string;
  kind : kind;
  nodes : Node.t list;
  universe : Value.Set.t option;
  responsible : Node.t -> Fact.t -> bool;
  route : (Fact.t -> Node.t list) option;
      (* The responsible nodes of a fact, ascending, computed directly
         instead of asking every node. *)
}

let make ?(kind = Custom) ?universe ~name ~nodes responsible =
  if nodes = [] then invalid_arg "Policy.make: empty network";
  { name; kind; nodes; universe; responsible; route = None }

let name t = t.name
let kind t = t.kind
let nodes t = t.nodes
let universe t = t.universe
let responsible t node fact = t.responsible node fact

let responsible_nodes t fact =
  match t.route with
  | Some route -> route fact
  | None -> List.filter (fun n -> t.responsible n fact) t.nodes

let loc_inst t instance node =
  Instance.filter (fun f -> t.responsible node f) instance

let with_universe u t = { t with universe = Some u }

let pp ppf t =
  Fmt.pf ppf "%s (%d nodes)" t.name (List.length t.nodes)

(* ------------------------------------------------------------------ *)
(* Constructors                                                        *)

let explicit ?universe ~name assignments =
  if assignments = [] then invalid_arg "Policy.explicit: empty network";
  let table =
    List.fold_left
      (fun acc (node, facts) ->
        let prev = Option.value ~default:Fact.Set.empty (Node.Map.find_opt node acc) in
        Node.Map.add node (Fact.Set.union prev (Fact.Set.of_list facts)) acc)
      Node.Map.empty assignments
  in
  let universe =
    match universe with
    | Some u -> u
    | None ->
      Node.Map.fold
        (fun _ facts acc ->
          Fact.Set.fold (fun f acc -> Value.Set.union (Fact.adom f) acc) facts acc)
        table Value.Set.empty
  in
  let nodes = List.map fst (Node.Map.bindings table) in
  let responsible node fact =
    match Node.Map.find_opt node table with
    | Some facts -> Fact.Set.mem fact facts
    | None -> false
  in
  make ~kind:Explicit ~universe ~name ~nodes responsible

let bucket_of_key ~seed ~buckets key =
  if buckets < 1 then invalid_arg "Policy.hash_values: buckets < 1";
  Hashtbl.seeded_hash (seed land max_int) key mod buckets

(* Routing runs once per shipped fact, so neither case builds a list:
   one value hashes its own string, and a tuple's strings wait on the
   stack until the joined key is allocated. *)
let hash_value ~seed ~buckets v =
  bucket_of_key ~seed ~buckets (Value.to_string v)

let hash_values ~seed ~buckets = function
  | [ v ] -> hash_value ~seed ~buckets v
  | vs ->
    (* [v1 ^ "\000" ^ ... ^ vk], blitted into a NUL-filled buffer. *)
    let rec join pos = function
      | [] -> Bytes.make (max 0 (pos - 1)) '\000'
      | v :: rest ->
        let s = Value.to_string v in
        let key = join (pos + String.length s + 1) rest in
        Bytes.blit_string s 0 key pos (String.length s);
        key
    in
    bucket_of_key ~seed ~buckets (Bytes.unsafe_to_string (join 0 vs))

type unlisted =
  | Drop
  | Broadcast

let hash_by_position ?universe ?(seed = 0) ?(unlisted = Drop) ~name ~p positions
    =
  if p < 1 then invalid_arg "Policy.hash_by_position: p < 1";
  let find rel = List.assoc_opt rel positions in
  let responsible node fact =
    match find (Fact.rel fact) with
    | Some pos ->
      let args = Fact.args fact in
      pos < Array.length args
      && hash_value ~seed ~buckets:p args.(pos) = node
    | None -> ( match unlisted with Drop -> false | Broadcast -> true)
  in
  make ~kind:Hash ?universe ~name ~nodes:(Node.range p) responsible

let hypercube ?universe ?(seed = 0) ~name ~query ~shares () =
  if not (Ast.is_positive query) then
    invalid_arg "Policy.hypercube: defined for positive CQs";
  let vars = Ast.body_vars query in
  let share_of v =
    match List.assoc_opt v shares with
    | Some s when s >= 1 -> s
    | Some _ -> invalid_arg "Policy.hypercube: shares must be >= 1"
    | None -> invalid_arg (Fmt.str "Policy.hypercube: no share for variable %s" v)
  in
  let dims = Array.of_list (List.map share_of vars) in
  let grid = Grid.make dims in
  let var_index = List.mapi (fun i v -> (v, i)) vars in
  let hash_var v value =
    let i = List.assoc v var_index in
    hash_value ~seed:(seed + (31 * i)) ~buckets:dims.(i) value
  in
  (* The partial coordinate pinned by matching a fact against an atom:
     every variable of the atom is hashed on the fact's value at its
     position; [None] when the fact cannot instantiate the atom. *)
  let partial_of_atom (a : Ast.atom) fact =
    let args = Fact.args fact in
    if List.length a.Ast.terms <> Array.length args then None
    else begin
      let partial = Array.make (List.length vars) None in
      let ok = ref true in
      List.iteri
        (fun j term ->
          match term with
          | Ast.Const c -> if not (Value.equal c args.(j)) then ok := false
          | Ast.Var v -> (
            let i = List.assoc v var_index in
            let bucket = hash_var v args.(j) in
            match partial.(i) with
            | Some b when b <> bucket -> ok := false
            | _ -> partial.(i) <- Some bucket))
        a.Ast.terms;
      if !ok then Some partial else None
    end
  in
  let responsible node fact =
    List.exists
      (fun a ->
        a.Ast.rel = Fact.rel fact
        &&
        match partial_of_atom a fact with
        | None -> false
        | Some partial ->
          let found = ref false in
          Grid.matching grid partial (fun n -> if n = node then found := true);
          !found)
      (Ast.body query)
  in
  (* The same nodes in one pass: one partial coordinate per matching
     atom, one grid enumeration each, merged into ascending order — the
     order of the per-node filter over [nodes]. *)
  let route fact =
    let rel = Fact.rel fact in
    let cells = ref [] in
    List.iter
      (fun a ->
        if a.Ast.rel = rel then
          match partial_of_atom a fact with
          | None -> ()
          | Some partial ->
            Grid.matching grid partial (fun n -> cells := n :: !cells))
      (Ast.body query);
    List.sort_uniq Int.compare !cells
  in
  let t =
    make ~kind:Hypercube ?universe ~name ~nodes:(Node.range (Grid.size grid))
      responsible
  in
  ({ t with route = Some route }, grid)

let hypercube_replication ~query ~shares fact =
  (* Replication factor of a fact: number of grid nodes it reaches. *)
  let t, _ = hypercube ~name:"tmp" ~query ~shares () in
  List.length (responsible_nodes t fact)

(* Primary horizontal fragmentation by range (the paper's Customer /
   area-code example in Section 4.1): facts of the listed relation go to
   the node owning the range their key column falls into; thresholds
   split the value order into |thresholds| + 1 ranges. *)
let range ?universe ?(unlisted = Drop) ~name ~rel ~pos thresholds =
  if thresholds = [] then invalid_arg "Policy.range: no thresholds";
  let sorted = List.sort Value.compare thresholds in
  let p = List.length sorted + 1 in
  let node_of v =
    let rec go i = function
      | [] -> i
      | t :: rest -> if Value.compare v t < 0 then i else go (i + 1) rest
    in
    go 0 sorted
  in
  let responsible node fact =
    if Fact.rel fact = rel then
      pos < Fact.arity fact && node_of (Fact.args fact).(pos) = node
    else match unlisted with Drop -> false | Broadcast -> true
  in
  make ~kind:Hash ?universe ~name ~nodes:(Node.range p) responsible

let domain_guided ?universe ~name ~nodes assignment =
  if nodes = [] then invalid_arg "Policy.domain_guided: empty network";
  let responsible node fact =
    Value.Set.exists
      (fun v -> Node.Set.mem node (assignment v))
      (Fact.adom fact)
  in
  make ~kind:Domain_guided ?universe ~name ~nodes responsible

let broadcast_all ?universe ~name ~p () =
  if p < 1 then invalid_arg "Policy.broadcast_all: p < 1";
  make ~kind:Custom ?universe ~name ~nodes:(Node.range p) (fun _ _ -> true)
