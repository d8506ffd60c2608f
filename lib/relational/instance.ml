module Smap = Map.Make (String)

type t = Tuple.Set.t Smap.t

let empty = Smap.empty
let is_empty t = Smap.for_all (fun _ ts -> Tuple.Set.is_empty ts) t

let add fact t =
  let rel = Fact.rel fact in
  let prev =
    match Smap.find_opt rel t with
    | Some ts -> ts
    | None -> Tuple.Set.empty
  in
  Smap.add rel (Tuple.Set.add (Fact.args fact) prev) t

let remove fact t =
  match Smap.find_opt (Fact.rel fact) t with
  | None -> t
  | Some ts ->
    let ts = Tuple.Set.remove (Fact.args fact) ts in
    if Tuple.Set.is_empty ts then Smap.remove (Fact.rel fact) t
    else Smap.add (Fact.rel fact) ts t

let mem fact t =
  match Smap.find_opt (Fact.rel fact) t with
  | None -> false
  | Some ts -> Tuple.Set.mem (Fact.args fact) ts

let singleton fact = add fact empty

(* Bulk construction fast path: bucket tuples per relation first, then
   build each relation's set in one sort + dedup pass instead of one
   tree insertion per fact. This is the constructor on the MPC merge
   phase's hot path (Cluster.run_round builds every server's inbox with
   it each round). *)
let of_facts facts =
  match facts with
  | [] -> empty
  | _ ->
    let buckets : (string, Tuple.t list) Hashtbl.t = Hashtbl.create 8 in
    (* Facts come in runs of one relation: a run is collected apart and
       filed in its bucket when the relation changes. *)
    let flush rel run =
      if run <> [] then
        let prev = Option.value ~default:[] (Hashtbl.find_opt buckets rel) in
        Hashtbl.replace buckets rel (List.rev_append run prev)
    in
    let rel, run =
      List.fold_left
        (fun (rel, run) f ->
          let r = Fact.rel f in
          if r == rel || String.equal r rel then (rel, Fact.args f :: run)
          else begin
            flush rel run;
            (r, [ Fact.args f ])
          end)
        ("", []) facts
    in
    flush rel run;
    Hashtbl.fold
      (fun rel tups acc -> Smap.add rel (Tuple.Set.of_list tups) acc)
      buckets Smap.empty

let of_list = of_facts

let of_tuple_set rel ts =
  if Tuple.Set.is_empty ts then empty else Smap.singleton rel ts

let add_tuple_set rel ts t =
  if Tuple.Set.is_empty ts then t
  else
    let prev =
      match Smap.find_opt rel t with
      | Some prev -> prev
      | None -> Tuple.Set.empty
    in
    Smap.add rel (Tuple.Set.union prev ts) t

let tuples t rel =
  match Smap.find_opt rel t with
  | Some ts -> ts
  | None -> Tuple.Set.empty

let tuple_list t rel = Tuple.Set.elements (tuples t rel)

let relations t =
  Smap.fold
    (fun rel ts acc -> if Tuple.Set.is_empty ts then acc else rel :: acc)
    t []
  |> List.rev

let fold f t init =
  Smap.fold
    (fun rel ts acc ->
      Tuple.Set.fold (fun tup acc -> f (Fact.make rel tup) acc) ts acc)
    t init

let iter f t = fold (fun fact () -> f fact) t ()
let facts t = List.rev (fold (fun f acc -> f :: acc) t [])
let fact_set t = fold Fact.Set.add t Fact.Set.empty

let cardinal t = Smap.fold (fun _ ts acc -> acc + Tuple.Set.cardinal ts) t 0

let filter p t =
  Smap.filter_map
    (fun rel ts ->
      let ts = Tuple.Set.filter (fun tup -> p (Fact.make rel tup)) ts in
      if Tuple.Set.is_empty ts then None else Some ts)
    t

let union t1 t2 =
  Smap.union (fun _ ts1 ts2 -> Some (Tuple.Set.union ts1 ts2)) t1 t2

let inter t1 t2 =
  Smap.merge
    (fun _ o1 o2 ->
      match o1, o2 with
      | Some ts1, Some ts2 ->
        let ts = Tuple.Set.inter ts1 ts2 in
        if Tuple.Set.is_empty ts then None else Some ts
      | _ -> None)
    t1 t2

let diff t1 t2 =
  Smap.merge
    (fun _ o1 o2 ->
      match o1, o2 with
      | Some ts1, Some ts2 ->
        let ts = Tuple.Set.diff ts1 ts2 in
        if Tuple.Set.is_empty ts then None else Some ts
      | Some ts1, None -> Some ts1
      | None, _ -> None)
    t1 t2

let subset t1 t2 =
  Smap.for_all (fun rel ts1 -> Tuple.Set.subset ts1 (tuples t2 rel)) t1

let equal t1 t2 = subset t1 t2 && subset t2 t1

let compare t1 t2 =
  Fact.Set.compare (fact_set t1) (fact_set t2)

let adom t =
  fold (fun f acc -> Value.Set.union (Fact.adom f) acc) t Value.Set.empty

let restrict dom t =
  filter (fun f -> Value.Set.subset (Fact.adom f) dom) t

let schema t =
  Smap.fold
    (fun rel ts acc ->
      match Tuple.Set.choose_opt ts with
      | None -> acc
      | Some tup -> Schema.add rel ~arity:(Tuple.arity tup) acc)
    t Schema.empty

let pp ppf t =
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") Fact.pp) (facts t)

(* Textual format: facts separated by periods, semicolons or newlines,
   e.g. "R(a,b). R(b,c). S(a,a)". *)
let of_string s =
  let buf = Buffer.create 16 in
  let out = ref [] in
  let flush () =
    let part = String.trim (Buffer.contents buf) in
    Buffer.clear buf;
    if part <> "" then out := Fact.of_string part :: !out
  in
  String.iter
    (fun c ->
      match c with
      | '.' | ';' | '\n' -> flush ()
      | c -> Buffer.add_char buf c)
    s;
  flush ();
  of_facts (List.rev !out)
