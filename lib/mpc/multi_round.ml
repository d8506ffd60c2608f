open Lamp_relational
open Lamp_distribution
open Lamp_cq

(* Example 3.1(2): the triangle by a cascade of two repartition joins.
   Round 1 joins R and S on y into K; round 2 joins K with T on the
   pair (x, z). T stays at its initial servers during round 1: it is
   kept from [previous], never sent. *)
let cascade_triangle ?(seed = 0) ?executor ?faults ?job ~p instance =
  Lamp_obs.Sketch.set_context "cascade";
  let k_query = Parser.query "K(x,y,z) <- R(x,y), S(y,z)" in
  let finish = Parser.query "H(x,y,z) <- K(x,y,z), T(z,x)" in
  (* The triangle's atoms are binary and K is ternary: a fact of
     another arity matches no atom and goes nowhere, as under
     HyperCube's policy. *)
  let plan ~p =
    let round1_route fact =
      match (Fact.rel fact, Fact.args fact) with
      | "R", [| _; y |] | "S", [| y; _ |] ->
        [ Policy.hash_value ~seed ~buckets:p y ]
      | _ -> []
    in
    ( [|
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
                match (Fact.rel fact, Fact.args fact) with
                | "K", [| x; _; z |] | "T", [| z; x |] ->
                  [ Policy.hash_values ~seed:(seed + 7919) ~buckets:p [ x; z ] ]
                | _ -> []);
          compute = Cluster.eval_query finish;
        };
      |],
      () )
  in
  (* Both rounds rehash from scratch: a permanent crash shrinks onto
     the survivors. *)
  let cluster, () =
    Cluster.run_job ?executor ?faults ?job ~name:"cascade_triangle"
      ~on_crash:`Shrink ~p instance plan
  in
  (Cluster.union_all cluster, Cluster.stats cluster)

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
  (* The whole plan — threshold, heavy-hitter set, HyperCube shares,
     the parked-S rendezvous hash — depends on p. *)
  let plan ~p =
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
      match (Fact.rel f, Fact.args f) with
      | "R", [| _; y |] | "S", [| y; _ |] -> Value.Set.mem y heavy
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
    let hz = Policy.hash_value ~seed:(seed + 104729) ~buckets:p in
    let rounds =
      [|
        {
          Cluster.communicate =
            Cluster.route_by (fun fact ->
                match (Fact.rel fact, Fact.args fact) with
                | "R", [| x; _ |] when is_heavy_fact fact ->
                  [ Policy.hash_value ~seed ~buckets:p x ]
                | "S", [| _; z |] when is_heavy_fact fact -> [ hz z ]
                (* The heavy plan additionally needs T(z,x) at h(x). *)
                | "T", [| _; x |] when not (Value.Set.is_empty heavy) ->
                  Policy.hash_value ~seed ~buckets:p x
                  :: Policy.responsible_nodes policy fact
                | _ -> Policy.responsible_nodes policy fact);
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
                match (Fact.rel fact, Fact.args fact) with
                | "K", [| z; _; _ |] -> [ hz z ]
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
    (rounds, Value.Set.cardinal heavy)
  in
  (* Heavy S parks at h_p(z) in round 1 and is met there by K in round
     2 — a cross-round rendezvous that a topology change breaks, so a
     permanent crash restarts the job from round 0 on the survivors. *)
  let cluster, heavy =
    Cluster.run_job ?executor ?faults ?job ~name:"skew_resilient_triangle"
      ~on_crash:`Restart ~p instance plan
  in
  (Cluster.union_all cluster, Cluster.stats cluster, heavy)
