open Lamp_relational

(* Hash-based secondary index over an instance: for a relation and a
   column, maps each value to the tuples carrying it there. Columns are
   indexed lazily the first time the evaluator probes them. *)

type key = {
  rel : string;
  pos : int;
}

module Kmap = Map.Make (struct
  type t = key

  let compare k1 k2 =
    let c = String.compare k1.rel k2.rel in
    if c <> 0 then c else Int.compare k1.pos k2.pos
end)

type t = {
  instance : Instance.t;
  mutable columns : Tuple.t list Value.Map.t Kmap.t;
}

let create instance = { instance; columns = Kmap.empty }

let instance t = t.instance

let column t key =
  match Kmap.find_opt key t.columns with
  | Some col -> col
  | None ->
    let col =
      Tuple.Set.fold
        (fun tup acc ->
          if key.pos >= Tuple.arity tup then acc
          else
            let v = tup.(key.pos) in
            let prev = Option.value ~default:[] (Value.Map.find_opt v acc) in
            Value.Map.add v (tup :: prev) acc)
        (Instance.tuples t.instance key.rel)
        Value.Map.empty
    in
    t.columns <- Kmap.add key col t.columns;
    col

let lookup t ~rel ~pos ~value =
  match Value.Map.find_opt value (column t { rel; pos }) with
  | Some tuples -> tuples
  | None -> []

let all t ~rel = Tuple.Set.elements (Instance.tuples t.instance rel)

let count t ~rel = Tuple.Set.cardinal (Instance.tuples t.instance rel)
