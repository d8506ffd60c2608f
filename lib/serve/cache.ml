(* LRU via a monotone stamp per entry: on access an entry takes the
   next stamp; eviction scans for the minimum. The scan is O(capacity),
   fine for the dozens-of-plans caches this serves — no intrusive list
   needed. *)

type 'a entry = {
  value : 'a;
  mutable stamp : int;
}

type 'a t = {
  capacity : int;
  tbl : (string, 'a entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ?(capacity = 128) () =
  if capacity < 1 then invalid_arg "Cache.create: capacity < 1";
  {
    capacity;
    tbl = Hashtbl.create 64;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let touch t e =
  t.clock <- t.clock + 1;
  e.stamp <- t.clock

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, stamp) when stamp <= e.stamp -> acc
        | _ -> Some (k, e.stamp))
      t.tbl None
  in
  match victim with
  | Some (k, _) ->
    Hashtbl.remove t.tbl k;
    t.evictions <- t.evictions + 1
  | None -> ()

let find_or_add t key build =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    t.hits <- t.hits + 1;
    touch t e;
    (e.value, true)
  | None ->
    t.misses <- t.misses + 1;
    let v = build () in
    if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
    let e = { value = v; stamp = 0 } in
    touch t e;
    Hashtbl.replace t.tbl key e;
    (v, false)

let find t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
    t.hits <- t.hits + 1;
    touch t e;
    Some e.value
  | None ->
    t.misses <- t.misses + 1;
    None

let remove_if t pred =
  let doomed =
    Hashtbl.fold (fun k _ acc -> if pred k then k :: acc else acc) t.tbl []
  in
  List.iter (Hashtbl.remove t.tbl) doomed;
  let n = List.length doomed in
  t.evictions <- t.evictions + n;
  n

let length t = Hashtbl.length t.tbl
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
