let random_graph ?(rel = "E") ~rng ~nodes ~edges () =
  let rec add i acc =
    if i >= edges then acc
    else
      let a = Random.State.int rng nodes
      and b = Random.State.int rng nodes in
      add (i + 1) (Instance.add (Fact.of_ints rel [ a; b ]) acc)
  in
  add 0 Instance.empty

let matching ?(rel = "R") ~size ~offset () =
  let rec add i acc =
    if i >= size then acc
    else
      add (i + 1)
        (Instance.add (Fact.of_ints rel [ offset + i; offset + size + i ]) acc)
  in
  add 0 Instance.empty

(* Inverse-CDF sampling of a Zipf(s) law over [1, n]: heavy hitters are
   the small ranks. The CDF is precomputed once. *)
let zipf_sampler ~rng ~n ~s =
  let weights = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun i w ->
      total := !total +. w;
      cdf.(i) <- !total)
    weights;
  let total = !total in
  fun () ->
    let x = Random.State.float rng total in
    (* Binary search for the first index with cdf >= x. *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) >= x then search lo mid else search (mid + 1) hi
    in
    1 + search 0 (n - 1)

let skewed_star ?(rel = "R") ~hub ~size ~offset () =
  let rec add i acc =
    if i >= size then acc
    else add (i + 1) (Instance.add (Fact.of_ints rel [ hub; offset + i ]) acc)
  in
  add 0 Instance.empty

let random_relation ~rng ~rel ~arity ~size ~domain () =
  let rec add i acc =
    if i >= size then acc
    else
      let args = List.init arity (fun _ -> Random.State.int rng domain) in
      add (i + 1) (Instance.add (Fact.of_ints rel args) acc)
  in
  add 0 Instance.empty

let random_instance ~rng ~schema ~size ~domain () =
  let rels = Schema.to_list schema in
  match rels with
  | [] -> Instance.empty
  | _ ->
    let nrels = List.length rels in
    let rec add i acc =
      if i >= size then acc
      else
        let rel, arity = List.nth rels (Random.State.int rng nrels) in
        let args = List.init arity (fun _ -> Random.State.int rng domain) in
        add (i + 1) (Instance.add (Fact.of_ints rel args) acc)
    in
    add 0 Instance.empty
