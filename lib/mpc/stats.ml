type round_stats = {
  max_received : int;
  total_received : int;
}

type recovery = {
  round : int;
  crashed : int;
  replayed : int;
  retransmitted : int;
  duplicates : int;
  retries : int;
  speculated : int;
}

type t = {
  p : int;
  initial_max : int;
  rounds : round_stats list;
  recoveries : recovery list;
}

let rounds t = List.length t.rounds

let recovery_rounds t = List.length t.recoveries

let recovery_load t =
  List.fold_left
    (fun acc r -> acc + r.replayed + r.retransmitted + r.duplicates)
    0 t.recoveries

let crashes t = List.fold_left (fun acc r -> acc + r.crashed) 0 t.recoveries
let retries t = List.fold_left (fun acc r -> acc + r.retries) 0 t.recoveries

let speculations t =
  List.fold_left (fun acc r -> acc + r.speculated) 0 t.recoveries

let without_recoveries t = { t with recoveries = [] }

(* Checkpoint codecs, shared by every snapshotting consumer. *)

module Codec = Lamp_jobs.Codec

let w_round_stats w r =
  Codec.w_int w r.max_received;
  Codec.w_int w r.total_received

let r_round_stats r =
  let max_received = Codec.r_int r in
  let total_received = Codec.r_int r in
  { max_received; total_received }

let w_recovery w r =
  Codec.w_int w r.round;
  Codec.w_int w r.crashed;
  Codec.w_int w r.replayed;
  Codec.w_int w r.retransmitted;
  Codec.w_int w r.duplicates;
  Codec.w_int w r.retries;
  Codec.w_int w r.speculated

let r_recovery r =
  let round = Codec.r_int r in
  let crashed = Codec.r_int r in
  let replayed = Codec.r_int r in
  let retransmitted = Codec.r_int r in
  let duplicates = Codec.r_int r in
  let retries = Codec.r_int r in
  let speculated = Codec.r_int r in
  { round; crashed; replayed; retransmitted; duplicates; retries; speculated }

let max_load t =
  List.fold_left (fun acc r -> max acc r.max_received) t.initial_max t.rounds

let total_communication t =
  List.fold_left (fun acc r -> acc + r.total_received) 0 t.rounds

let replication_rate ~m t =
  if m = 0 then 0.0 else float_of_int (total_communication t) /. float_of_int m

(* The ε of the paper's load form L = m / p^(1-ε): 0 means perfectly
   balanced, 1 means one server holds everything. *)
let epsilon ~m t =
  let load = max_load t in
  if m = 0 || load = 0 || t.p = 1 then 0.0
  else
    let ratio = float_of_int m /. float_of_int load in
    1.0 -. (log ratio /. log (float_of_int t.p))

(* The one-line and per-round forms print exactly as before on a
   fault-free run: the recovery segment appears only when a recovery
   actually happened, keeping zero-fault output byte-identical. *)
let pp ppf t =
  Fmt.pf ppf "p=%d rounds=%d max_load=%d total_comm=%d" t.p (rounds t)
    (max_load t) (total_communication t);
  if t.recoveries <> [] then begin
    Fmt.pf ppf " recovery: rounds=%d load=%d crashes=%d retries=%d"
      (recovery_rounds t) (recovery_load t) (crashes t) (retries t);
    if speculations t > 0 then Fmt.pf ppf " speculations=%d" (speculations t)
  end

(* The paper's load target L = m / p^(1-ε): what a round *should* cost
   at skew ε. The skew reports compare their estimates against it. *)
let target_load ~m ~p ~epsilon =
  if p <= 0 then 0.0
  else float_of_int m /. (float_of_int p ** (1.0 -. epsilon))

let pp_rounds ppf t =
  Fmt.pf ppf "initial partition: max=%d@." t.initial_max;
  List.iteri
    (fun i r ->
      Fmt.pf ppf "round %d: max_received=%d total_received=%d@." (i + 1)
        r.max_received r.total_received)
    t.rounds;
  List.iter
    (fun r ->
      Fmt.pf ppf
        "round %d recovery: crashed=%d replayed=%d retransmitted=%d \
         duplicates=%d retries=%d speculated=%d@."
        r.round r.crashed r.replayed r.retransmitted r.duplicates r.retries
        r.speculated)
    t.recoveries
