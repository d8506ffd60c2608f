module Smap = Map.Make (String)

type t = int Smap.t

let empty = Smap.empty

let add name ~arity t =
  if arity < 0 then invalid_arg "Schema.add: negative arity"
  else
    match Smap.find_opt name t with
    | Some a when a <> arity ->
      invalid_arg
        (Fmt.str "Schema.add: %s redeclared with arity %d (was %d)" name arity
           a)
    | _ -> Smap.add name arity t

let of_list l =
  List.fold_left (fun t (name, arity) -> add name ~arity t) empty l

let arity t name = Smap.find_opt name t
let mem t name = Smap.mem name t
let relations t = List.map fst (Smap.bindings t)
let to_list t = Smap.bindings t

let conforms t fact =
  match arity t (Fact.rel fact) with
  | Some a -> a = Fact.arity fact
  | None -> false

let union t1 t2 =
  Smap.union
    (fun name a1 a2 ->
      if a1 = a2 then Some a1
      else
        invalid_arg
          (Fmt.str "Schema.union: %s has arities %d and %d" name a1 a2))
    t1 t2

let pp ppf t =
  let pp_rel ppf (name, arity) = Fmt.pf ppf "%s/%d" name arity in
  Fmt.pf ppf "{%a}" Fmt.(list ~sep:(any ", ") pp_rel) (Smap.bindings t)
