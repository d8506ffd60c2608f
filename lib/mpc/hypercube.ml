open Lamp_relational
open Lamp_distribution
open Lamp_cq

let run ?(seed = 0) ?(materialize = true) ?strategy ?executor ?faults ?job
    ?shares ~p query instance =
  if not (Ast.is_positive query) then
    invalid_arg "Hypercube.run: defined for positive CQs";
  Lamp_obs.Sketch.set_context "hypercube";
  let optimize ~p =
    let sizes a = Tuple.Set.cardinal (Instance.tuples instance a.Ast.rel) in
    fst (Shares.optimize ~objective:Shares.Max_load ~p ~sizes query)
  in
  let grid shares =
    Policy.hypercube ~seed ~name:"hypercube" ~query ~shares ()
  in
  (* The cluster is the grid of the requested shares. A restart on the
     survivors re-optimizes the shares for them: the caller's shares,
     whose product is the old size, no longer fit. *)
  let shares0 = match shares with Some s -> s | None -> optimize ~p in
  let size0 = Grid.size (snd (grid shares0)) in
  let plan ~p =
    let shares = if p = size0 then shares0 else optimize ~p in
    let policy, _ = grid shares in
    ( [|
        {
          Cluster.communicate =
            Cluster.route_by (fun f -> Policy.responsible_nodes policy f);
          compute =
            (if materialize then Cluster.eval_query ?strategy query
             else fun _ ~received:_ ~previous:_ -> Instance.empty);
        };
      |],
      shares )
  in
  (* The grid is a function of p: losing a server means new shares, a
     new grid and a fresh replication of the input. *)
  let cluster, shares =
    Cluster.run_job ?executor ?faults ?job ~name:"hypercube" ~on_crash:`Restart
      ~p:size0 instance plan
  in
  (Cluster.union_all cluster, Cluster.stats cluster, shares)
