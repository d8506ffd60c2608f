open Lamp_relational
open Lamp_distribution
open Lamp_cq
module Codec = Lamp_jobs.Codec

let sizes_of_instance instance (a : Ast.atom) =
  Tuple.Set.cardinal (Instance.tuples instance a.Ast.rel)

let run ?(seed = 0) ?(materialize = true) ?strategy ?executor ?faults ?job
    ?shares ~p query instance =
  if not (Ast.is_positive query) then
    invalid_arg "Hypercube.run: defined for positive CQs";
  Lamp_obs.Sketch.set_context "hypercube";
  let p0 = p in
  let shares_for ~p =
    match shares with
    | Some s when p = p0 -> s
    | _ ->
      (* Re-optimized for the current server count — in particular for
         the p−1 survivors after a permanent crash, where the caller's
         explicit shares (whose product is the old p) no longer fit. *)
      fst
        (Shares.optimize ~objective:Shares.Max_load ~p
           ~sizes:(sizes_of_instance instance) query)
  in
  let p = ref p in
  let shares_used = ref (shares_for ~p:!p) in
  let build () =
    let policy, grid =
      Policy.hypercube ~seed ~name:"hypercube" ~query ~shares:!shares_used ()
    in
    (policy, Grid.size grid)
  in
  let cluster =
    let _, size = build () in
    ref (Cluster.create ?executor ?faults ~p:size instance)
  in
  Cluster.supervise ?job ~name:"hypercube"
    ~faults:(match faults with Some f -> f | None -> Lamp_faults.Plan.none)
    {
      Lamp_jobs.Supervisor.step =
        (fun k ->
          if k >= 1 then `Done
          else begin
            let policy, _ = build () in
            Cluster.run_round !cluster
              {
                Cluster.communicate =
                  Cluster.route_by (fun f -> Policy.responsible_nodes policy f);
                compute =
                  (if materialize then Cluster.eval_query ?strategy query
                   else fun _ ~received:_ ~previous:_ -> Instance.empty);
              };
            `Done
          end);
      snapshot =
        (fun () ->
          let w = Codec.writer () in
          Codec.w_int w !p;
          Codec.w_string w (Cluster.snapshot !cluster);
          Codec.contents w);
      restore =
        (fun ~round:_ payload ->
          let r = Codec.reader payload in
          p := Codec.r_int r;
          shares_used := shares_for ~p:!p;
          cluster := Cluster.restore ?executor ?faults (Codec.r_string r);
          Codec.r_end r);
      rebalance =
        (fun ~round ~dead ->
          (* The grid is a function of p: losing a server means new
             shares, a new grid and a fresh replication of the input —
             restart on the survivors. *)
          let cp = Cluster.p !cluster in
          if dead < 0 || dead >= cp || !p <= 1 then `Continue
          else begin
            let shipped = Instance.cardinal (Cluster.local !cluster dead) in
            p := !p - 1;
            shares_used := shares_for ~p:!p;
            let _, size = build () in
            let fresh = Cluster.create ?executor ?faults ~p:size instance in
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
          end);
    };
  (Cluster.union_all !cluster, Cluster.stats !cluster, !shares_used)
