open Lamp_relational
open Lamp_distribution

type key = Value.t list

type t = {
  map : Fact.t -> (key * Fact.t) list;
  reduce : key -> Instance.t -> Fact.t list;
}

type program = t list

module Kmap = Map.Make (struct
  type t = key

  let compare = List.compare Value.compare
end)

let group pairs =
  List.fold_left
    (fun acc (k, v) ->
      let prev = Option.value ~default:Instance.empty (Kmap.find_opt k acc) in
      Kmap.add k (Instance.add v prev) acc)
    Kmap.empty pairs

(* Sequential semantics: map every fact, group by key, reduce every
   group, output the union. *)
let run_job job instance =
  let pairs =
    Instance.fold (fun f acc -> List.rev_append (job.map f) acc) instance []
  in
  Kmap.fold
    (fun k group acc ->
      List.fold_left (fun acc f -> Instance.add f acc) acc (job.reduce k group))
    (group pairs) Instance.empty

let run program instance =
  List.fold_left (fun data job -> run_job job data) instance program

(* ------------------------------------------------------------------ *)
(* MPC translation: one MPC round per job. The map phase runs at each
   server during the communication phase, pairs travel to the reducer
   hashed from their key, and the reduce phase is the computation
   phase. Keys are materialized as an extra column so a server can
   regroup what it received. *)

(* A key-value pair in transit is encoded as a fact
   [__kv(arity_of_key, key..., rel_of_value, value...)]. *)
let encode_pair (k, v) =
  Fact.of_list "__kv"
    ((Value.int (List.length k) :: k)
    @ (Value.str (Fact.rel v) :: Array.to_list (Fact.args v)))

let decode_pair f =
  match Array.to_list (Fact.args f) with
  | Value.Int klen :: rest ->
    let rec split i acc rest =
      if i = 0 then (List.rev acc, rest)
      else
        match rest with
        | [] -> invalid_arg "Job.decode_pair: truncated key"
        | v :: rest -> split (i - 1) (v :: acc) rest
    in
    let key, rest = split klen [] rest in
    (match rest with
    | Value.Str rel :: args -> (key, Fact.of_list rel args)
    | _ -> invalid_arg "Job.decode_pair: malformed value")
  | _ -> invalid_arg "Job.decode_pair: malformed key length"

let run_job_mpc ?(seed = 0) ~p job cluster =
  Lamp_mpc.Cluster.run_round cluster
    {
      Lamp_mpc.Cluster.communicate =
        (fun _src local ->
          Instance.fold
            (fun f acc ->
              List.fold_left
                (fun acc (k, v) ->
                  (Policy.hash_values ~seed ~buckets:p k, encode_pair (k, v))
                  :: acc)
                acc (job.map f))
            local []);
      compute =
        (fun _ ~received ~previous:_ ->
          let pairs =
            Instance.fold (fun f acc -> decode_pair f :: acc) received []
          in
          Kmap.fold
            (fun k g acc ->
              List.fold_left
                (fun acc f -> Instance.add f acc)
                acc (job.reduce k g))
            (group pairs) Instance.empty);
    }

let run_mpc ?(seed = 0) ~p program instance =
  let cluster = Lamp_mpc.Cluster.create ~p instance in
  List.iter (fun job -> run_job_mpc ~seed ~p job cluster) program;
  (Lamp_mpc.Cluster.union_all cluster, Lamp_mpc.Cluster.stats cluster)
