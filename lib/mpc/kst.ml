open Lamp_relational
open Lamp_distribution
open Lamp_cq

(* A server keeps its query-relevant facts for round 2 in its local
   state, renamed with this prefix, beside its round-1 answers: round 2
   routes the one and keeps the other, even when the head relation is
   also a body relation. *)
let stage_prefix = "kst!"
let plen = String.length stage_prefix
let stage rel = stage_prefix ^ rel

let is_staged rel =
  String.length rel > plen && String.starts_with ~prefix:stage_prefix rel

let unstage rel = String.sub rel plen (String.length rel - plen)

(* One heavy configuration: a set S of variables pinned to heavy values
   (c_heavy, sorted by variable), plus a HyperCube subgrid over the
   remaining light variables (c_dims), laid out at servers
   [(c_offset + linear index) mod p]. *)
type combo = {
  c_heavy : (string * Value.t) list;
  c_dims : (string * int) array;
  c_offset : int;
}

(* [args] can instantiate the atom: arity, constants and repeated
   variables all agree. *)
let compatible a args =
  let terms = a.Ast.terms in
  List.length terms = Array.length args
  &&
  let ok = ref true and seen = Hashtbl.create 4 in
  List.iteri
    (fun i t ->
      match t with
      | Ast.Const c -> if not (Value.equal c args.(i)) then ok := false
      | Ast.Var v -> (
        match Hashtbl.find_opt seen v with
        | Some j -> if not (Value.equal args.(j) args.(i)) then ok := false
        | None -> Hashtbl.add seen v i))
    terms;
  !ok

(* Variable bindings of a compatible atom instantiation, sorted. *)
let bindings a args =
  let b = ref [] in
  List.iteri
    (fun i t -> match t with Ast.Var v -> b := (v, args.(i)) :: !b | _ -> ())
    a.Ast.terms;
  List.sort_uniq compare !b

(* The tuple belongs to this configuration in this atom's role exactly
   when its heavy signature is S restricted to the atom's variables,
   with the configuration's values. Light positions need no check: a
   variable whose binding were heavy would appear in [hsig] and fail
   the subset test. *)
let combo_matches combo bnd hsig =
  List.for_all (fun (v, _) -> List.mem_assoc v combo.c_heavy) hsig
  && List.for_all
       (fun (v, value) ->
         match List.assoc_opt v bnd with
         | None -> true
         | Some x -> Value.equal x value)
       combo.c_heavy

(* Servers of the configuration's subgrid responsible for the tuple:
   dimensions whose variable the atom binds are pinned to the hashed
   coordinate, the others are replicated over. *)
let cells ~seed ~p combo bnd =
  let nd = Array.length combo.c_dims in
  let rec go i lin acc =
    if i = nd then ((combo.c_offset + lin) mod p) :: acc
    else
      let v, share = combo.c_dims.(i) in
      match List.assoc_opt v bnd with
      | Some x ->
        let bucket =
          Policy.hash_value ~seed:(seed + 131 + i) ~buckets:share x
        in
        go (i + 1) ((lin * share) + bucket) acc
      | None ->
        let r = ref acc in
        for c = 0 to share - 1 do
          r := go (i + 1) ((lin * share) + c) !r
        done;
        !r
  in
  go 0 0 []

let run ?(seed = 0) ?threshold ?executor ?faults ?job ~p query instance =
  if p <= 0 then invalid_arg "Kst.run: p must be positive";
  if not (Ast.is_positive query) then
    invalid_arg "Kst.run: positive conjunctive queries only";
  Lamp_obs.Sketch.set_context "kst";
  let atoms = query.Ast.body in
  List.iter
    (fun a ->
      let n = List.length a.Ast.terms in
      if n < 1 || n > 2 then
        invalid_arg "Kst.run: body atoms must be unary or binary")
    atoms;
  let vars = List.sort_uniq String.compare (Ast.body_vars query) in
  let body_rels = List.sort_uniq String.compare (List.map (fun a -> a.Ast.rel) atoms) in
  let m =
    List.fold_left
      (fun acc rel -> max acc (Tuple.Set.cardinal (Instance.tuples instance rel)))
      1 body_rels
  in
  (* Columns in which each variable occurs, for its heavy-hitter set. *)
  let occurrences v =
    List.sort_uniq compare
      (List.concat_map
         (fun a ->
           List.mapi (fun i t -> (i, t)) a.Ast.terms
           |> List.filter_map (fun (i, t) ->
                  match t with
                  | Ast.Var v' when String.equal v v' -> Some (a.Ast.rel, i)
                  | _ -> None))
         atoms)
  in
  let deg_tbl = Hashtbl.create 8 in
  let degree rel pos c =
    let key = (rel, pos) in
    let map =
      match Hashtbl.find_opt deg_tbl key with
      | Some map -> map
      | None ->
        let map = Skew.degrees instance ~rel ~pos in
        Hashtbl.add deg_tbl key map;
        map
    in
    match Value.Map.find_opt c map with Some d -> d | None -> 0
  in
  let sizes a = Tuple.Set.cardinal (Instance.tuples instance a.Ast.rel) in
  (* The whole plan — threshold, heavy-hitter sets, the configuration
     list and every subgrid — depends on p. *)
  let plan ~p =
    (* Doubling the degree threshold until the configuration count
       fits the cap bounds the replication of all-light atoms into
       the subgrids; values pushed back under the threshold fall
       through to the one-round light plan, which is always sound. *)
    let cap = max 8 (2 * int_of_float (sqrt (float_of_int p))) in
    let rec settle threshold =
      let heavy =
        List.map
          (fun v ->
            ( v,
              List.fold_left
                (fun acc (rel, pos) ->
                  Value.Set.union acc
                    (Skew.heavy_hitters instance ~rel ~pos ~threshold))
                Value.Set.empty (occurrences v) ))
          vars
      in
      let hvars =
        List.filter (fun (_, s) -> not (Value.Set.is_empty s)) heavy
      in
      let hv = Array.of_list hvars in
      let nh = Array.length hv in
      let configs = ref [] in
      for mask = 1 to (1 lsl nh) - 1 do
        let sel = ref [] in
        for i = nh - 1 downto 0 do
          if mask land (1 lsl i) <> 0 then
            sel :=
              (fst hv.(i), Value.Set.elements (snd hv.(i))) :: !sel
        done;
        let rec prod acc = function
          | [] -> configs := List.rev acc :: !configs
          | (v, values) :: rest ->
            List.iter (fun x -> prod ((v, x) :: acc) rest) values
        in
        prod [] !sel
      done;
      let configs = List.rev !configs in
      if List.length configs > cap && threshold < m then
        settle (threshold * 2)
      else (heavy, configs)
    in
    let threshold0 =
      match threshold with
      | Some t -> max 1 t
      | None -> Skew.default_threshold ~m ~p
    in
    let heavy, configs = settle threshold0 in
    let heavy_of v =
      match List.assoc_opt v heavy with
      | Some s -> s
      | None -> Value.Set.empty
    in
    let ncombos = List.length configs in
    let p_res = max 1 (p / max 1 ncombos) in
    (* Subgrid shares of one configuration: HyperCube over the
       residual query (heavy variables frozen to their values), with
       sizes estimated from column degrees. *)
    let dims_of config =
      let svars = List.map fst config in
      let l = List.filter (fun v -> not (List.mem v svars)) vars in
      if l = [] then [||]
      else begin
        let subst = function
          | Ast.Var v as t -> (
            match List.assoc_opt v config with
            | Some x -> Ast.Const x
            | None -> t)
          | t -> t
        in
        let body =
          List.map
            (fun a -> Ast.atom a.Ast.rel (List.map subst a.Ast.terms))
            atoms
        in
        let head = Ast.atom "Hres" (List.map (fun v -> Ast.Var v) l) in
        let rq = Ast.make ~head ~body () in
        let rsizes a =
          let consts =
            List.mapi (fun i t -> (i, t)) a.Ast.terms
            |> List.filter_map (fun (i, t) ->
                   match t with Ast.Const c -> Some (i, c) | _ -> None)
          in
          match consts with
          | [] -> sizes a
          | cs ->
            List.fold_left
              (fun acc (i, c) -> min acc (degree a.Ast.rel i c))
              max_int cs
        in
        let shares, _ =
          Shares.optimize ~objective:Shares.Max_load ~p:p_res ~sizes:rsizes
            rq
        in
        Array.of_list
          (List.map
             (fun v ->
               ( v,
                 match List.assoc_opt v shares with
                 | Some s -> max 1 s
                 | None -> 1 ))
             l)
      end
    in
    let combos, _ =
      List.fold_left
        (fun (acc, off) config ->
          let dims = dims_of config in
          let size = Array.fold_left (fun g (_, s) -> g * s) 1 dims in
          ( { c_heavy = config; c_dims = dims; c_offset = off mod p } :: acc,
            off + size ))
        ([], 0) configs
    in
    let combos = List.rev combos in
    let shares, _ = Shares.optimize ~objective:Shares.Max_load ~p ~sizes query in
    let policy, _ =
      Policy.hypercube ~seed ~name:"kst-light" ~query ~shares ()
    in
    let atoms_of rel = List.filter (fun a -> String.equal a.Ast.rel rel) atoms in
    (* Variable bindings of every atom the fact can instantiate; empty
       for facts the query ignores. *)
    let roles f =
      let args = Fact.args f in
      List.filter_map
        (fun a -> if compatible a args then Some (bindings a args) else None)
        (atoms_of (Fact.rel f))
    in
    let light_binding b =
      List.for_all (fun (v, x) -> not (Value.Set.mem x (heavy_of v))) b
    in
    let evaluate received = Eval.eval ~strategy:Eval.Wcoj query received in
    (* Round 1: light roles run the one-round HyperCube. A server's
       own query-relevant facts stay where they are, under a staged
       name, for round 2 to route — local state, not messages. *)
    let light_round =
      {
        Cluster.communicate =
          (fun _ local ->
            Instance.fold
              (fun f acc ->
                if List.exists light_binding (roles f) then
                  List.fold_left
                    (fun acc dst -> (dst, f) :: acc)
                    acc
                    (Policy.responsible_nodes policy f)
                else acc)
              local []);
        compute =
          (fun _ ~received ~previous ->
            if ncombos = 0 then evaluate received
            else
              List.fold_left
                (fun acc rel ->
                  let atoms = atoms_of rel in
                  Instance.add_tuple_set (stage rel)
                    (Tuple.Set.filter
                       (fun args ->
                         List.exists (fun a -> compatible a args) atoms)
                       (Instance.tuples previous rel))
                    acc)
                (evaluate received) (Instance.relations previous));
      }
    in
    (* Round 2: staged tuples fan out to every configuration whose
       heavy assignment matches one of their atom roles, pinned by the
       light coordinates; round-1 answers stay in [previous]. *)
    let heavy_round =
      {
        Cluster.communicate =
          (fun _ local ->
            Instance.fold
              (fun f acc ->
                let rel = Fact.rel f in
                if is_staged rel then begin
                  let g = Fact.make (unstage rel) (Fact.args f) in
                  let dsts =
                    List.concat_map
                      (fun b ->
                        let hsig =
                          List.filter
                            (fun (v, x) -> Value.Set.mem x (heavy_of v))
                            b
                        in
                        List.concat_map
                          (fun c ->
                            if combo_matches c b hsig then cells ~seed ~p c b
                            else [])
                          combos)
                      (roles g)
                  in
                  List.fold_left
                    (fun acc dst -> (dst, g) :: acc)
                    acc
                    (List.sort_uniq compare dsts)
                end
                else acc)
              local []);
        compute =
          (fun _ ~received ~previous ->
            Instance.union
              (Instance.filter
                 (fun f -> not (is_staged (Fact.rel f)))
                 previous)
              (evaluate received));
      }
    in
    (* Without a heavy configuration nothing is staged and the plan is
       the one-round HyperCube. *)
    ( (if ncombos = 0 then [| light_round |]
       else [| light_round; heavy_round |]),
      ncombos )
  in
  (* Staged tuples stay at their round-1 servers and the subgrid layout
     is a function of p — both cross-round rendezvous break under a
     topology change, so a permanent crash restarts the job from round
     0 on the survivors. *)
  let cluster, ncombos =
    Cluster.run_job ?executor ?faults ?job ~name:"kst" ~on_crash:`Restart ~p
      instance plan
  in
  (Cluster.union_all cluster, Cluster.stats cluster, ncombos)
