open Lamp_relational
open Lamp_distribution
open Lamp_cq
module Supervisor = Lamp_jobs.Supervisor

let h ~seed ~p v = Policy.hash_value ~seed ~buckets:p v

(* ------------------------------------------------------------------ *)
(* Job plumbing shared by the cluster-backed multi-round algorithms: a
   fixed (per current topology) sequence of rounds over one cluster
   held in a ref, snapshotting and restoring through
   Cluster.snapshot/restore. [rounds_for] is re-consulted at every
   step with the cluster's current p, so a rebalanced job rebuilds its
   remaining rounds for the shrunk topology. *)
let cluster_script ?executor ?faults cluster ~rounds_for ~rebalance =
  {
    Supervisor.step =
      (fun k ->
        let rounds = rounds_for ~p:(Cluster.p !cluster) in
        let n = Array.length rounds in
        if k >= n then `Done
        else begin
          Cluster.run_round !cluster rounds.(k);
          if k = n - 1 then `Done else `Continue
        end);
    snapshot = (fun () -> Cluster.snapshot !cluster);
    restore =
      (fun ~round:_ payload ->
        cluster := Cluster.restore ?executor ?faults payload);
    rebalance;
  }

(* Survivor rebalancing for algorithms whose every round rehashes from
   scratch: shrink p → p−1, rehash the dead server's local onto the
   survivors, continue from the current round. *)
let rebalance_shrink cluster ~round ~dead =
  let c = !cluster in
  if dead < 0 || dead >= Cluster.p c || Cluster.p c <= 1 then `Continue
  else begin
    cluster := Cluster.shrink c ~round ~dead;
    `Continue
  end

(* Restart policy for algorithms that rendezvous across rounds on a
   p-dependent hash (data parked at h_p(z) in round 1 is met there in
   round 2): a topology change invalidates the parked placement, so the
   job restarts from round 0 on a fresh p−1 cluster. The dead server's
   resident facts are charged as replay traffic. *)
let rebalance_restart ?executor ?faults instance cluster ~round ~dead =
  let c = !cluster in
  let cp = Cluster.p c in
  if dead < 0 || dead >= cp || cp <= 1 then `Continue
  else begin
    let shipped = Instance.cardinal (Cluster.local c dead) in
    let fresh = Cluster.create ?executor ?faults ~p:(cp - 1) instance in
    Cluster.add_recovery fresh
      {
        Stats.round;
        crashed = 1;
        replayed = shipped;
        retransmitted = 0;
        duplicates = 0;
        retries = 0;
        speculated = 0;
      };
    cluster := fresh;
    `Restart
  end

let plan_of = function Some f -> f | None -> Lamp_faults.Plan.none

(* Example 3.1(2): the triangle by a cascade of two repartition joins.
   Round 1 joins R and S on y into K; round 2 joins K with T on the
   pair (x, z). T stays at its initial servers during round 1: it is
   kept from [previous], never sent. *)
let cascade_triangle ?(seed = 0) ?executor ?faults ?job ~p instance =
  Lamp_obs.Sketch.set_context "cascade";
  let k_query = Parser.query "K(x,y,z) <- R(x,y), S(y,z)" in
  let finish = Parser.query "H(x,y,z) <- K(x,y,z), T(z,x)" in
  let cluster = ref (Cluster.create ?executor ?faults ~p instance) in
  let rounds_for ~p =
    let round1_route fact =
      let args = Fact.args fact in
      match Fact.rel fact with
      | "R" -> [ h ~seed ~p args.(1) ]
      | "S" -> [ h ~seed ~p args.(0) ]
      | _ -> []
    in
    let pair_hash args i j =
      h ~seed:(seed + 7919) ~p
        (Value.str
           (Value.to_string args.(i) ^ "\000" ^ Value.to_string args.(j)))
    in
    [|
      {
        Cluster.communicate = Cluster.route_by round1_route;
        compute =
          (fun _ ~received ~previous ->
            Instance.union
              (Eval.eval k_query received)
              (Instance.of_tuple_set "T" (Instance.tuples previous "T")));
      };
      {
        Cluster.communicate =
          Cluster.route_by (fun fact ->
              let args = Fact.args fact in
              match Fact.rel fact with
              | "K" -> [ pair_hash args 0 2 ]
              | "T" -> [ pair_hash args 1 0 ]
              | _ -> []);
        compute = Cluster.eval_query finish;
      };
    |]
  in
  Cluster.supervise ?job ~name:"cascade_triangle" ~faults:(plan_of faults)
    (cluster_script ?executor ?faults cluster ~rounds_for
       ~rebalance:(fun ~round ~dead -> rebalance_shrink cluster ~round ~dead));
  (Cluster.union_all !cluster, Cluster.stats !cluster)

(* Two-round triangle resilient to join-attribute skew (Section 3.2):
   tuples whose y-value is heavy are taken out of the one-round
   HyperCube (which handles the light part at load ~ m/p^(2/3)) and
   processed by a semi-join plan anchored at T, whose routing keys x and
   z are assumed light — the paper's canonical heavy-hitter scenario.

   Round 1: light part → HyperCube cells; heavy R and a copy of T → h(x);
            heavy S → h(z) where it waits for round 2.
   Round 2: partial matches K(z,x,y) = Tc(z,x) ⋈ Rh(x,y) → h(z), meeting
            the heavy S there; S and the round-1 answers are kept from
            [previous], never sent. *)
let skew_resilient_triangle ?(seed = 0) ?threshold ?executor ?faults ?job ~p
    instance =
  Lamp_obs.Sketch.set_context "skew_resilient";
  let m_rel =
    List.fold_left
      (fun acc rel -> max acc (Tuple.Set.cardinal (Instance.tuples instance rel)))
      1 [ "R"; "S"; "T" ]
  in
  let triangle = Examples.q2_triangle in
  let k_query = Parser.query "K(z,x,y) <- Tc(z,x), Rh(x,y)" in
  let finish = Parser.query "H(x,y,z) <- K(z,x,y), Sh(y,z)" in
  let rename rel f = Fact.make rel (Fact.args f) in
  let heavy_count = ref 0 in
  (* The whole plan — threshold, heavy-hitter set, HyperCube shares,
     the parked-S rendezvous hash — depends on p, so it is rebuilt per
     topology (memoized: a restart after rebalancing replans for the
     survivor count). *)
  let plans = Hashtbl.create 2 in
  let rounds_for ~p =
    match Hashtbl.find_opt plans p with
    | Some rounds ->
      rounds
    | None ->
      (* Values above this degree would alone exceed the m/p^(2/3)
         load target of a HyperCube cell, so they are exactly the ones
         to take out of the one-round plan. *)
      let threshold =
        match threshold with
        | Some t -> t
        | None ->
          max 1
            (int_of_float
               (float_of_int m_rel /. Float.pow (float_of_int p) (2.0 /. 3.0)))
      in
      let heavy =
        Value.Set.union
          (Skew.heavy_hitters instance ~rel:"R" ~pos:1 ~threshold)
          (Skew.heavy_hitters instance ~rel:"S" ~pos:0 ~threshold)
      in
      let is_heavy_fact f =
        let args = Fact.args f in
        match Fact.rel f with
        | "R" -> Value.Set.mem args.(1) heavy
        | "S" -> Value.Set.mem args.(0) heavy
        | _ -> false
      in
      let shares, _ =
        Shares.optimize ~objective:Shares.Max_load ~p
          ~sizes:(fun a ->
            Tuple.Set.cardinal (Instance.tuples instance a.Ast.rel))
          triangle
      in
      let policy, _ =
        Policy.hypercube ~seed ~name:"light" ~query:triangle ~shares ()
      in
      let hz = h ~seed:(seed + 104729) ~p in
      let rounds =
        [|
          {
            Cluster.communicate =
              Cluster.route_by (fun fact ->
                  let args = Fact.args fact in
                  if is_heavy_fact fact then
                    match Fact.rel fact with
                    | "R" -> [ h ~seed ~p args.(0) ]
                    | "S" -> [ hz args.(1) ]
                    | _ -> []
                  else
                    let cells = Policy.responsible_nodes policy fact in
                    (* The heavy plan additionally needs T(z,x) at h(x). *)
                    if Fact.rel fact = "T" && not (Value.Set.is_empty heavy)
                    then h ~seed ~p args.(1) :: cells
                    else cells);
            compute =
              (fun _ ~received ~previous:_ ->
                (* Received heavy facts keep their original names; give
                   them their plan-local names before the local joins. *)
                let heavy_renamed =
                  Instance.fold
                    (fun f acc ->
                      if is_heavy_fact f then
                        match Fact.rel f with
                        | "R" -> Instance.add (rename "Rh" f) acc
                        | "S" -> Instance.add (rename "Sh" f) acc
                        | _ -> acc
                      else acc)
                    received Instance.empty
                in
                let t_copy =
                  Instance.fold
                    (fun f acc ->
                      if Fact.rel f = "T" then Instance.add (rename "Tc" f) acc
                      else acc)
                    received Instance.empty
                in
                let light_only =
                  Instance.filter (fun f -> not (is_heavy_fact f)) received
                in
                let k = Eval.eval k_query (Instance.union heavy_renamed t_copy) in
                Instance.union
                  (Eval.eval triangle light_only)
                  (Instance.union k
                     (Instance.filter (fun f -> Fact.rel f = "Sh") heavy_renamed)));
          };
          {
            Cluster.communicate =
              Cluster.route_by (fun fact ->
                  match Fact.rel fact with
                  | "K" -> [ hz (Fact.args fact).(0) ]
                  | _ -> []);
            compute =
              (fun _ ~received ~previous ->
                let kept rel =
                  Instance.of_tuple_set rel (Instance.tuples previous rel)
                in
                Instance.union (kept "H")
                  (Eval.eval finish (Instance.union received (kept "Sh"))));
          };
        |]
      in
      Hashtbl.add plans p rounds;
      heavy_count := Value.Set.cardinal heavy;
      rounds
  in
  let cluster = ref (Cluster.create ?executor ?faults ~p instance) in
  Cluster.supervise ?job ~name:"skew_resilient_triangle"
    ~faults:(plan_of faults)
    (cluster_script ?executor ?faults cluster ~rounds_for
       ~rebalance:(fun ~round ~dead ->
         (* Heavy S parks at h_p(z) in round 1 and is met there by K in
            round 2 — a cross-round rendezvous that a topology change
            breaks, so a permanent crash restarts the job from round 0
            on the survivors. *)
         rebalance_restart ?executor ?faults instance cluster ~round ~dead));
  (* Reflect the topology the run actually finished under. *)
  ignore (rounds_for ~p:(Cluster.p !cluster));
  (Cluster.union_all !cluster, Cluster.stats !cluster, !heavy_count)
