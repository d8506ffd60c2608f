(* Deterministic fault injection and checkpoint/replay recovery.

   The headline property under test: under any seeded fault plan, every
   MPC algorithm recovers output and fault-free-portion statistics
   bit-identical to a clean run — on the sequential and pool backends
   alike — with all repair traffic accounted separately in
   [Stats.recoveries]. *)

open Lamp_relational
open Lamp_cq
open Lamp_mpc
module Plan = Lamp_faults.Plan
module Net = Lamp_faults.Net
module Disk = Lamp_faults.Disk
module Executor = Lamp_runtime.Executor
module Pool = Lamp_runtime.Pool

let instance = Alcotest.testable Instance.pp Instance.equal
let rng () = Random.State.make [| 2026 |]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* Plan: decisions are pure functions of (seed, coordinates)            *)

let test_plan_determinism () =
  let a = Plan.make ~seed:42 Plan.chaos in
  let b = Plan.make ~seed:42 Plan.chaos in
  for round = 1 to 5 do
    for server = 0 to 15 do
      Alcotest.(check bool) "same crash decision"
        (Plan.crashes a ~round ~server)
        (Plan.crashes b ~round ~server);
      for index = 0 to 3 do
        Alcotest.(check bool) "same message fate" true
          (Plan.fate a ~round ~src:server ~index
          = Plan.fate b ~round ~src:server ~index)
      done;
      Alcotest.(check int) "same transient count"
        (Plan.transient_failures a ~round ~phase:Plan.Compute ~task:server)
        (Plan.transient_failures b ~round ~phase:Plan.Compute ~task:server)
    done
  done

let test_plan_seed_sensitivity () =
  let a = Plan.make ~seed:1 { Plan.zero with crash = 0.5 } in
  let b = Plan.make ~seed:2 { Plan.zero with crash = 0.5 } in
  let differs = ref false in
  for round = 1 to 10 do
    for server = 0 to 19 do
      if Plan.crashes a ~round ~server <> Plan.crashes b ~round ~server then
        differs := true
    done
  done;
  Alcotest.(check bool) "different seeds decide differently" true !differs

let test_plan_extreme_fates () =
  let check_all spec expected name =
    let plan = Plan.make ~seed:3 spec in
    for round = 1 to 3 do
      for src = 0 to 3 do
        for index = 0 to 5 do
          Alcotest.(check bool) name true
            (Plan.fate plan ~round ~src ~index = expected)
        done
      done
    done
  in
  check_all { Plan.zero with drop = 1.0 } Plan.Drop "drop=1 always drops";
  check_all
    { Plan.zero with duplicate = 1.0 }
    Plan.Duplicate "dup=1 always duplicates";
  check_all { Plan.zero with delay = 1.0 } Plan.Delay "delay=1 always delays";
  check_all Plan.zero Plan.Deliver "zero spec always delivers";
  Alcotest.(check bool) "the empty plan never crashes anyone" false
    (Plan.crashes Plan.none ~round:1 ~server:0)

let test_plan_permute () =
  let l = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let id = Plan.permute (Plan.make ~seed:5 Plan.zero) ~round:1 ~lane:0 l in
  Alcotest.(check (list int)) "no reorder: identity" l id;
  let plan = Plan.make ~seed:5 { Plan.zero with reorder = true } in
  let p1 = Plan.permute plan ~round:1 ~lane:0 l in
  let p2 = Plan.permute plan ~round:1 ~lane:0 l in
  Alcotest.(check (list int)) "deterministic shuffle" p1 p2;
  Alcotest.(check (list int)) "a permutation" l (List.sort compare p1)

let test_plan_parse () =
  Alcotest.(check bool) "none" true (Plan.is_none (Plan.of_string "none"));
  Alcotest.(check bool) "empty" true (Plan.is_none (Plan.of_string ""));
  let chaos = Plan.of_string ~seed:9 "chaos" in
  Alcotest.(check bool) "chaos preset" true (Plan.spec chaos = Plan.chaos);
  Alcotest.(check int) "seed kept" 9 (Plan.seed chaos);
  let p = Plan.of_string "crash=0.25,dup=0.1,reorder" in
  let s = Plan.spec p in
  Alcotest.(check (float 1e-9)) "crash" 0.25 s.Plan.crash;
  Alcotest.(check (float 1e-9)) "dup" 0.1 s.Plan.duplicate;
  Alcotest.(check bool) "reorder" true s.Plan.reorder;
  List.iter
    (fun bad ->
      Alcotest.check_raises ("rejects " ^ bad) (Invalid_argument "") (fun () ->
          try ignore (Plan.of_string bad)
          with Invalid_argument _ -> raise (Invalid_argument "")))
    [ "crash=1.5"; "drop=0.5,dup=0.4,delay=0.3"; "bogus=1"; "crash=x" ]

let test_plan_roundtrip () =
  (* pp's output, seed suffix included, parses back to the same plan,
     so a logged plan can be passed back to --faults; a value %g would
     round (1/3) reads back exactly. *)
  List.iter
    (fun p ->
      let echo = Fmt.str "%a" Plan.pp p in
      let p2 = Plan.of_string echo in
      Alcotest.(check bool) (echo ^ " parses back") true
        (Plan.spec p2 = Plan.spec p && Plan.seed p2 = Plan.seed p))
    [
      Plan.make ~seed:5 { Plan.zero with crash = 0.1; duplicate = 0.2 };
      Plan.make ~seed:3
        {
          Plan.zero with
          kill_after = Some 2;
          perma = Some (1, 3);
          reorder = true;
        };
      Plan.make ~seed:11
        { Plan.chaos with speculate = 1.0 /. 3.0; kill_after = Some 0 };
      Plan.none;
    ];
  let net = Net.make ~seed:2 { Net.zero with stall = 1.0 /. 3.0; window = 64 } in
  Alcotest.(check bool) "net plan parses back exactly" true
    (Net.spec (Net.of_string (Fmt.str "%a" Net.pp net)) = Net.spec net);
  let disk =
    Disk.make ~seed:4
      { Disk.zero with rot = 1.0 /. 3.0; crash = Some (3, Disk.Torn_write 0.7) }
  in
  Alcotest.(check bool) "disk plan parses back exactly" true
    (Disk.spec (Disk.of_string (Fmt.str "%a" Disk.pp disk)) = Disk.spec disk)

let test_plan_transients_bounded () =
  let plan = Plan.make ~seed:11 { Plan.zero with transient = 0.9 } in
  let saw_failure = ref false in
  for task = 0 to 49 do
    let n = Plan.transient_failures plan ~round:1 ~phase:Plan.Compute ~task in
    Alcotest.(check bool) "0 <= failures < max_attempts" true
      (n >= 0 && n < Plan.max_attempts);
    if n > 0 then saw_failure := true;
    for attempt = 1 to Plan.max_attempts do
      let raised =
        try
          Plan.inject plan ~round:1 ~phase:Plan.Compute ~task ~attempt;
          false
        with Plan.Transient _ -> true
      in
      Alcotest.(check bool) "inject raises exactly on failing attempts"
        (attempt <= n) raised
    done
  done;
  Alcotest.(check bool) "a 0.9 rate does fail somewhere" true !saw_failure

(* ------------------------------------------------------------------ *)
(* Executor.with_retry                                                  *)

let test_with_retry_absorbs () =
  let calls = ref 0 in
  let v =
    Executor.with_retry ~retryable:Plan.is_transient (fun ~attempt ->
        incr calls;
        if attempt <= 2 then raise (Plan.Transient "flaky");
        attempt)
  in
  Alcotest.(check int) "succeeded on the third attempt" 3 v;
  Alcotest.(check int) "three calls" 3 !calls

let test_with_retry_exhausts () =
  let calls = ref 0 in
  Alcotest.check_raises "exhausted budget propagates" (Plan.Transient "always")
    (fun () ->
      Executor.with_retry ~max_attempts:3 ~retryable:Plan.is_transient
        (fun ~attempt:_ ->
          incr calls;
          raise (Plan.Transient "always")));
  Alcotest.(check int) "tried exactly max_attempts times" 3 !calls

let test_with_retry_nonretryable () =
  let calls = ref 0 in
  Alcotest.check_raises "non-retryable propagates immediately" Exit (fun () ->
      Executor.with_retry ~retryable:Plan.is_transient (fun ~attempt:_ ->
          incr calls;
          raise Exit));
  Alcotest.(check int) "not retried" 1 !calls;
  Alcotest.check_raises "max_attempts must be positive" (Invalid_argument "")
    (fun () ->
      try
        ignore
          (Executor.with_retry ~max_attempts:0 ~retryable:Plan.is_transient
             (fun ~attempt -> attempt))
      with Invalid_argument _ -> raise (Invalid_argument ""))

let test_with_retry_backoff () =
  let seen = ref [] in
  Executor.with_retry
    ~backoff:(fun k -> seen := k :: !seen)
    ~retryable:Plan.is_transient
    (fun ~attempt -> if attempt <= 2 then raise (Plan.Transient "x"));
  Alcotest.(check (list int)) "backoff called with each failed attempt" [ 2; 1 ]
    !seen

(* ------------------------------------------------------------------ *)
(* Cluster: destination validation names the offending fact             *)

let bad_round =
  {
    Cluster.communicate = Cluster.route_by (fun _ -> [ 7 ]);
    compute = Cluster.keep_received;
  }

let check_bad_destination_message c =
  match Cluster.run_round c bad_round with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
    List.iter
      (fun sub ->
        Alcotest.(check bool)
          (Fmt.str "error %S mentions %S" msg sub)
          true (contains ~sub msg))
      [ "R(1,2)"; "destination 7"; "p = 2" ]

let test_bad_destination_names_fact () =
  check_bad_destination_message (Cluster.create ~p:2 (Instance.of_string "R(1,2)"))

let test_bad_destination_names_fact_faulty_path () =
  check_bad_destination_message
    (Cluster.create
       ~faults:(Plan.make ~seed:1 Plan.zero)
       ~p:2
       (Instance.of_string "R(1,2)"))

(* ------------------------------------------------------------------ *)
(* Bit-identical recovery: every algorithm, several plans, both
   backends                                                             *)

let plans =
  [
    ("chaos@1", Plan.make ~seed:1 Plan.chaos);
    ("chaos@2", Plan.make ~seed:2 Plan.chaos);
    ("crashy@5", Plan.make ~seed:5 { Plan.zero with crash = 0.4 });
    ( "lossy@9",
      Plan.make ~seed:9
        { Plan.zero with drop = 0.2; duplicate = 0.2; delay = 0.2; reorder = true }
    );
    ("flaky@3", Plan.make ~seed:3 { Plan.zero with transient = 0.5 });
  ]

let chain3 = Parser.query "H(x0,x3) <- R1(x0,x1), R2(x1,x2), R3(x2,x3)"

let algorithms =
  [
    ( "repartition",
      fun ~executor ~faults ->
        Repartition_join.run ~executor ~faults ~p:8 (Workload.join_skew_free ~m:120)
    );
    ( "grid",
      fun ~executor ~faults ->
        Grid_join.run ~executor ~faults ~p:9 (Workload.join_skew_free ~m:120) );
    ( "hypercube",
      fun ~executor ~faults ->
        let i = Workload.triangle_skew_free ~rng:(rng ()) ~m:120 ~domain:30 in
        let r, s, _ =
          Hypercube.run ~executor ~faults ~p:8 Examples.q2_triangle i
        in
        (r, s) );
    ( "cascade",
      fun ~executor ~faults ->
        let i = Workload.triangle_skew_free ~rng:(rng ()) ~m:90 ~domain:25 in
        Multi_round.cascade_triangle ~executor ~faults ~p:8 i );
    ( "skew-resilient",
      fun ~executor ~faults ->
        let i =
          Workload.triangle_y_skew ~rng:(rng ()) ~m:120 ~domain:40
            ~heavy_fraction:0.4
        in
        let r, s, _ =
          Multi_round.skew_resilient_triangle ~executor ~faults ~p:8 i
        in
        (r, s) );
    ( "gym",
      fun ~executor ~faults ->
        let i =
          Workload.acyclic_chain ~rng:(rng ()) ~m:100 ~domain:25
            ~rels:[ "R1"; "R2"; "R3" ]
        in
        Yannakakis.gym ~executor ~faults ~p:6 chain3 i );
    ( "gym-ghd",
      fun ~executor ~faults ->
        let i = Workload.triangle_skew_free ~rng:(rng ()) ~m:90 ~domain:25 in
        let r, s, _ = Gym_ghd.run ~executor ~faults ~p:8 Examples.q2_triangle i in
        (r, s) );
    ( "kst",
      fun ~executor ~faults ->
        let i =
          Workload.triangle_y_skew ~rng:(rng ()) ~m:120 ~domain:40
            ~heavy_fraction:0.4
        in
        let r, s, _ =
          Kst.run ~threshold:8 ~executor ~faults ~p:8 Examples.q2_triangle i
        in
        (r, s) );
  ]

let same_clean_portion name pname clean stats =
  Alcotest.(check bool)
    (Fmt.str "%s fault-free portion identical under %s" name pname)
    true
    (stats.Stats.rounds = clean.Stats.rounds
    && stats.Stats.p = clean.Stats.p
    && stats.Stats.initial_max = clean.Stats.initial_max)

let check_recovery name run =
  let clean_out, clean_stats =
    run ~executor:Executor.sequential ~faults:Plan.none
  in
  Alcotest.(check bool) "clean run records no recoveries" true
    (clean_stats.Stats.recoveries = []);
  List.iter
    (fun (pname, plan) ->
      let out, stats = run ~executor:Executor.sequential ~faults:plan in
      Alcotest.check instance
        (Fmt.str "%s output bit-identical under %s" name pname)
        clean_out out;
      same_clean_portion name pname clean_stats stats)
    plans

let pool_plans = [ List.nth plans 0; List.nth plans 3; List.nth plans 4 ]

let test_recovery_pool () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let executor = Executor.pool pool in
      List.iter
        (fun (name, run) ->
          let clean_out, clean_stats =
            run ~executor:Executor.sequential ~faults:Plan.none
          in
          List.iter
            (fun (pname, plan) ->
              let _, seq_stats =
                run ~executor:Executor.sequential ~faults:plan
              in
              let pool_out, pool_stats = run ~executor ~faults:plan in
              Alcotest.check instance
                (Fmt.str "%s pool output = clean output under %s" name pname)
                clean_out pool_out;
              (* The pool draws the same faults and hence the same
                 recoveries: statistics are bit-identical across
                 backends, fault plan or not. *)
              Alcotest.(check bool)
                (Fmt.str "%s pool stats = seq stats under %s" name pname)
                true (pool_stats = seq_stats);
              same_clean_portion name pname clean_stats pool_stats)
            pool_plans)
        algorithms)

(* ------------------------------------------------------------------ *)
(* Zero-fault plans cost nothing; total crashes still recover           *)

let test_zero_fault_plan_noop () =
  let i = Workload.join_skew_free ~m:80 in
  let clean_out, clean_stats = Repartition_join.run ~p:4 i in
  let out, stats =
    Repartition_join.run ~faults:(Plan.make ~seed:123 Plan.zero) ~p:4 i
  in
  Alcotest.check instance "output identical" clean_out out;
  Alcotest.(check bool) "stats structurally identical" true (stats = clean_stats);
  Alcotest.(check string) "rendered stats byte-identical"
    (Fmt.str "%a" Stats.pp clean_stats)
    (Fmt.str "%a" Stats.pp stats);
  Alcotest.(check bool) "no recoveries recorded" true
    (stats.Stats.recoveries = [])

(* Every algorithm at Plan.none on the sequential backend, pinned by
   digests of its rendered output and Stats.t. The digests were
   recorded while fault-free rounds still ran on a separate code path,
   so they show that the one remaining round body reproduces that
   path's results. The cascade, skew-resilient and KST stats digests
   were re-pinned when those schedules stopped mailing their own state
   to themselves (it crosses rounds through [previous]): their loads
   fell, every output stayed the same. *)
let pinned_none =
  [
    ("repartition", "73f1165849d348a1dea7889d373cc2c8",
     "f6488edf738193031db33a228f50a270");
    ("grid", "73f1165849d348a1dea7889d373cc2c8",
     "f71d74f51630d7d307f90fc18407cf82");
    ("hypercube", "1b543f44e5585ef5fec707b18f5cc698",
     "38efef176cc0c36143e316471e5ddeb9");
    ("cascade", "3cb9a2b81806e944892c57206861b627",
     "f0134e8291b00c5bb39ea7cb364f2ef4");
    ("skew-resilient", "8b4aa449cc3f69605765b2dcc27983b0",
     "c7cef6ba73421e8345059a6fc2925092");
    ("gym", "d3b4b2e8bbcbd0a612cdd23c2109143f",
     "e0b82a5c2d531fceb166b06de9d861b4");
    ("gym-ghd", "3cb9a2b81806e944892c57206861b627",
     "2eed56146f07ca4f2c62370eaba72184");
    ("kst", "8b4aa449cc3f69605765b2dcc27983b0",
     "54e5d1937e82027feb5c5b44eca59c97");
  ]

let test_none_pinned () =
  let hex s = Digest.to_hex (Digest.string s) in
  Alcotest.(check (list string)) "every algorithm pinned"
    (List.map fst algorithms)
    (List.map (fun (name, _, _) -> name) pinned_none);
  List.iter
    (fun (name, want_out, want_stats) ->
      let run = List.assoc name algorithms in
      let out, stats = run ~executor:Executor.sequential ~faults:Plan.none in
      Alcotest.(check string) (name ^ " output digest") want_out
        (hex (Fmt.str "%a" Instance.pp out));
      Alcotest.(check string) (name ^ " stats digest") want_stats
        (hex (Fmt.str "%a" Stats.pp stats)))
    pinned_none

let test_total_crash_recovers () =
  let plan = Plan.make ~seed:4 { Plan.zero with crash = 1.0 } in
  let i = Workload.join_skew_free ~m:60 in
  let clean_out, clean_stats = Repartition_join.run ~p:4 i in
  let out, stats = Repartition_join.run ~faults:plan ~p:4 i in
  Alcotest.check instance "all servers crashing still recovers" clean_out out;
  same_clean_portion "repartition" "crash=1" clean_stats stats;
  Alcotest.(check int) "every server crashed every round"
    (4 * Stats.rounds stats) (Stats.crashes stats);
  Alcotest.(check bool) "recovery load accounted" true
    (Stats.recovery_load stats > 0);
  Alcotest.(check int) "every round needed repair" (Stats.rounds stats)
    (Stats.recovery_rounds stats)

let test_gym_analytic_crash_accounting () =
  let i =
    Workload.acyclic_chain ~rng:(rng ()) ~m:60 ~domain:20
      ~rels:[ "R1"; "R2"; "R3" ]
  in
  let clean_out, clean_stats = Yannakakis.gym ~p:4 chain3 i in
  let plan = Plan.make ~seed:6 { Plan.zero with crash = 1.0 } in
  let out, stats = Yannakakis.gym ~faults:plan ~p:4 chain3 i in
  Alcotest.check instance "gym output unchanged" clean_out out;
  same_clean_portion "gym" "crash=1" clean_stats stats;
  Alcotest.(check int) "analytic crash accounting" (4 * Stats.rounds stats)
    (Stats.crashes stats);
  Alcotest.(check bool) "replayed load accounted" true
    (Stats.recovery_load stats > 0)

(* What p servers receive in a round, one of them receives at least a
   p-th of: a round's max load is never below its mean, also when a
   round runs several ops side by side. *)
let check_max_at_least_mean name (stats : Stats.t) =
  List.iteri
    (fun r (rs : Stats.round_stats) ->
      Alcotest.(check bool)
        (Fmt.str "%s round %d: max %d * p %d >= total %d" name (r + 1)
           rs.Stats.max_received stats.Stats.p rs.Stats.total_received)
        true
        (rs.Stats.max_received * stats.Stats.p >= rs.Stats.total_received))
    stats.Stats.rounds

(* E6's star of 4 under a flat tree: R2, R3 and R4 all children of R1. *)
let flat_star_forest =
  let node rel v children =
    {
      Hypergraph.atom = Ast.atom rel [ Ast.Var "x"; Ast.Var v ];
      vars = Hypergraph.Sset.of_list [ "x"; v ];
      children;
    }
  in
  [ node "R1" "a" [ node "R2" "b" []; node "R3" "c" []; node "R4" "d" [] ] ]

let test_max_load_at_least_mean () =
  List.iter
    (fun (name, run) ->
      let _, stats = run ~executor:Executor.sequential ~faults:Plan.none in
      check_max_at_least_mean name stats)
    algorithms;
  let i =
    Workload.acyclic_chain ~rng:(Random.State.make [| 6 |]) ~m:3000
      ~domain:1500 ~rels:[ "R1"; "R2"; "R3"; "R4" ]
  in
  let star = Parser.query "H(x) <- R1(x,a), R2(x,b), R3(x,c), R4(x,d)" in
  let out, stats = Yannakakis.gym ~forest:flat_star_forest ~p:16 star i in
  Alcotest.check instance "flat star answer" (Eval.eval star i) out;
  check_max_at_least_mean "gym flat star" stats;
  (* R1 is reduced by one child per round (3), the children by R1 in
     one shared round (1), then one join edge per round (3). *)
  Alcotest.(check int) "flat star rounds: 3 up, 1 down, 3 join" 7
    (Stats.rounds stats)

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Wire-level fault plans (Faults.Net)                                  *)


let test_net_determinism () =
  let plan = Net.make ~seed:11 Net.chaos in
  (* Pure: the same plan yields the same faults for the same ordinal,
     however many times and in whatever order it is asked. *)
  let a = List.init 50 (fun c -> Net.connection plan ~conn:c) in
  let b = List.rev_map (fun c -> Net.connection plan ~conn:c)
            (List.rev (List.init 50 Fun.id)) in
  Alcotest.(check bool) "decisions are a pure function of (seed, conn)" true
    (a = b);
  (* Distinct seeds decorrelate; a different seed must disagree
     somewhere on 50 connections of the chaos profile. *)
  let other = Net.make ~seed:12 Net.chaos in
  Alcotest.(check bool) "seeds decorrelate" true
    (List.exists
       (fun c -> Net.connection plan ~conn:c <> Net.connection other ~conn:c)
       (List.init 50 Fun.id));
  (* The chaos profile actually exercises every fault family within a
     modest number of connections. *)
  let seen p =
    List.exists (fun (f : Net.conn_faults) -> p f)
      (List.init 200 (fun c -> Net.connection plan ~conn:c))
  in
  Alcotest.(check bool) "refusals occur" true (seen (fun f -> f.refused));
  Alcotest.(check bool) "cuts occur" true
    (seen (fun f -> f.c2s.cut <> None || f.s2c.cut <> None));
  Alcotest.(check bool) "flips occur" true
    (seen (fun f -> f.c2s.flip_at <> None || f.s2c.flip_at <> None));
  Alcotest.(check bool) "clean connections occur" true
    (seen (fun f ->
         (not f.refused)
         && f.delay_s = 0.0
         && f.c2s = { Net.cut = None; stall_at = None; flip_at = None;
                      trickle_by = None }
         && f.s2c = { Net.cut = None; stall_at = None; flip_at = None;
                      trickle_by = None }))

let test_net_none_and_validation () =
  Alcotest.(check bool) "none is none" true (Net.is_none Net.none);
  let f = Net.connection (Net.make ~seed:3 Net.zero) ~conn:0 in
  Alcotest.(check bool) "zero spec plans nothing" true
    ((not f.refused) && f.delay_s = 0.0 && f.c2s.cut = None
    && f.s2c.cut = None);
  let reject spec =
    match Net.make spec with
    | _ -> Alcotest.fail "invalid spec must be rejected"
    | exception Invalid_argument _ -> ()
  in
  reject { Net.zero with refuse = 1.5 };
  reject { Net.zero with reset = 0.7; truncate = 0.7 };
  reject { Net.zero with stall_s = -1.0 };
  reject { Net.zero with window = 0 }

let test_net_parse () =
  (* of_string round-trips through pp, and the shorthands work. *)
  let p = Net.of_string ~seed:5 "reset=0.25,flip=0.5,stall=0.1,stall_s=0.2" in
  let s = Net.spec p in
  Alcotest.(check (float 0.0)) "reset parsed" 0.25 s.reset;
  Alcotest.(check (float 0.0)) "flip parsed" 0.5 s.flip;
  Alcotest.(check (float 0.0)) "stall_s parsed" 0.2 s.stall_s;
  Alcotest.(check int) "seed carried" 5 (Net.seed p);
  let echo = Fmt.str "%a" Net.pp p in
  let p2 = Net.of_string ~seed:5 echo in
  Alcotest.(check bool) "pp output parses back to the same plan" true
    (Net.spec p2 = s);
  Alcotest.(check bool) "\"none\" parses" true (Net.is_none (Net.of_string "none"));
  Alcotest.(check bool) "\"chaos\" parses" true
    (Net.spec (Net.of_string "chaos") = Net.chaos);
  match Net.of_string "flip=2.0" with
  | _ -> Alcotest.fail "out-of-range probability must be rejected"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Disk fault plans (Faults.Disk)                                      *)


let test_disk_determinism () =
  let plan = Disk.make ~seed:21 Disk.chaos in
  let coords = List.init 40 (fun i -> (Printf.sprintf "job%d" (i mod 5), i)) in
  (* Pure: the same plan yields the same faults for the same (job,
     round), however many times and in whatever order it is asked. *)
  let draw () =
    List.map (fun (j, r) -> Disk.save plan ~job:j ~round:r) coords
  in
  Alcotest.(check bool) "decisions are a pure function of (seed, job, round)"
    true
    (draw () = draw ());
  let other = Disk.make ~seed:22 Disk.chaos in
  Alcotest.(check bool) "seeds decorrelate" true
    (List.exists
       (fun (j, r) ->
         Disk.save plan ~job:j ~round:r <> Disk.save other ~job:j ~round:r)
       coords);
  Alcotest.(check bool) "jobs decorrelate" true
    (List.exists
       (fun r ->
         Disk.save plan ~job:"alpha" ~round:r
         <> Disk.save plan ~job:"beta" ~round:r)
       (List.init 20 Fun.id));
  (* The chaos profile exercises every fault family — and still leaves
     clean saves — within a modest number of draws. *)
  let many = List.init 200 (fun i -> (Printf.sprintf "j%d" (i mod 17), i)) in
  let seen p =
    List.exists (fun (j, r) -> p (Disk.save plan ~job:j ~round:r)) many
  in
  Alcotest.(check bool) "rot occurs" true (seen (fun f -> f.Disk.rot_at <> None));
  Alcotest.(check bool) "truncation occurs" true
    (seen (fun (f : Disk.save_faults) -> f.truncate_at <> None));
  Alcotest.(check bool) "enospc occurs" true
    (seen (fun (f : Disk.save_faults) -> f.enospc_failures > 0));
  Alcotest.(check bool) "litter occurs" true
    (seen (fun (f : Disk.save_faults) -> f.litter));
  Alcotest.(check bool) "clean saves occur" true
    (seen (fun f -> f = Disk.no_save_faults));
  Alcotest.(check bool) "rot masks non-zero, enospc below the retry budget"
    true
    (List.for_all
       (fun (j, r) ->
         let (f : Disk.save_faults) = Disk.save plan ~job:j ~round:r in
         (match f.rot_at with
         | Some (frac, mask) ->
           frac >= 0.0 && frac < 1.0 && mask >= 1 && mask <= 255
         | None -> true)
         && f.enospc_failures >= 0 && f.enospc_failures <= 2)
       many)

let test_disk_none_and_validation () =
  Alcotest.(check bool) "none is none" true (Disk.is_none Disk.none);
  Alcotest.(check bool) "zero spec plans nothing" true
    (Disk.save (Disk.make ~seed:3 Disk.zero) ~job:"j" ~round:1
    = Disk.no_save_faults);
  let reject spec =
    match Disk.make spec with
    | _ -> Alcotest.fail "invalid spec must be rejected"
    | exception Invalid_argument _ -> ()
  in
  reject { Disk.zero with rot = 1.5 };
  reject { Disk.zero with enospc = -0.1 };
  reject { Disk.zero with crash = Some (2, Disk.Torn_write 1.5) };
  reject { Disk.zero with crash = Some (-1, Disk.Before_rename) };
  (* The one-shot crash fires exactly at its round, for every job. *)
  let p =
    Disk.make ~seed:4 { Disk.zero with crash = Some (3, Disk.After_rename) }
  in
  Alcotest.(check bool) "crash fires only at its round" true
    ((Disk.save p ~job:"j" ~round:3).crash = Some Disk.After_rename
    && (Disk.save p ~job:"j" ~round:2).crash = None
    && (Disk.save p ~job:"j" ~round:4).crash = None
    && (Disk.save p ~job:"other" ~round:3).crash = Some Disk.After_rename)

let test_disk_parse () =
  (* of_string round-trips through pp, including the crash field and
     the @seed suffix. *)
  let p =
    Disk.of_string ~seed:7
      "rot=0.25,truncate=0.1,enospc=0.5,litter=0.75,crash=2:torn:0.5"
  in
  let s = Disk.spec p in
  Alcotest.(check (float 0.0)) "rot parsed" 0.25 s.rot;
  Alcotest.(check (float 0.0)) "litter parsed" 0.75 s.litter;
  Alcotest.(check bool) "crash parsed" true
    (s.crash = Some (2, Disk.Torn_write 0.5));
  Alcotest.(check int) "seed carried" 7 (Disk.seed p);
  let echo = Fmt.str "%a" Disk.pp p in
  let p2 = Disk.of_string echo in
  Alcotest.(check bool)
    "pp output parses back to the identical plan (seed included)" true
    (Disk.spec p2 = s && Disk.seed p2 = 7);
  List.iter
    (fun (str, pt) ->
      Alcotest.(check bool) str true
        ((Disk.spec (Disk.of_string str)).crash = Some (1, pt)))
    [
      ("crash=1:pre-rename", Disk.Before_rename);
      ("crash=1:post-rename", Disk.After_rename);
    ];
  Alcotest.(check bool) "\"none\" parses" true
    (Disk.is_none (Disk.of_string "none"));
  Alcotest.(check bool) "\"chaos\" parses" true
    (Disk.spec (Disk.of_string "chaos") = Disk.chaos);
  (match Disk.of_string "rot=2.0" with
  | _ -> Alcotest.fail "out-of-range probability must be rejected"
  | exception Invalid_argument _ -> ());
  match Disk.of_string "crash=2:sideways" with
  | _ -> Alcotest.fail "unknown crash point must be rejected"
  | exception Invalid_argument _ -> ()

let () =
  Alcotest.run "lamp_faults"
    [
      ( "plan",
        [
          Alcotest.test_case "deterministic decisions" `Quick
            test_plan_determinism;
          Alcotest.test_case "seed-sensitive" `Quick test_plan_seed_sensitivity;
          Alcotest.test_case "extreme fates" `Quick test_plan_extreme_fates;
          Alcotest.test_case "permute" `Quick test_plan_permute;
          Alcotest.test_case "of_string" `Quick test_plan_parse;
          Alcotest.test_case "pp output parses back" `Quick test_plan_roundtrip;
          Alcotest.test_case "transients bounded by retry budget" `Quick
            test_plan_transients_bounded;
        ] );
      ( "with_retry",
        [
          Alcotest.test_case "absorbs transient faults" `Quick
            test_with_retry_absorbs;
          Alcotest.test_case "exhausts its budget" `Quick test_with_retry_exhausts;
          Alcotest.test_case "non-retryable propagates" `Quick
            test_with_retry_nonretryable;
          Alcotest.test_case "backoff hook" `Quick test_with_retry_backoff;
        ] );
      ( "cluster errors",
        [
          Alcotest.test_case "bad destination names the fact" `Quick
            test_bad_destination_names_fact;
          Alcotest.test_case "bad destination (faulty path)" `Quick
            test_bad_destination_names_fact_faulty_path;
        ] );
      ( "bit-identical recovery (seq)",
        List.map
          (fun (name, run) ->
            Alcotest.test_case name `Quick (fun () -> check_recovery name run))
          algorithms );
      ( "bit-identical recovery (pool)",
        [ Alcotest.test_case "pool = seq = clean" `Quick test_recovery_pool ] );
      ( "accounting",
        [
          Alcotest.test_case "zero-fault plan is a no-op" `Quick
            test_zero_fault_plan_noop;
          Alcotest.test_case "Plan.none output and stats pinned" `Quick
            test_none_pinned;
          Alcotest.test_case "total crash recovers" `Quick
            test_total_crash_recovers;
          Alcotest.test_case "gym analytic crashes" `Quick
            test_gym_analytic_crash_accounting;
          Alcotest.test_case "no round's max load below its mean" `Quick
            test_max_load_at_least_mean;
        ] );
      ( "net plans",
        [
          Alcotest.test_case "deterministic per (seed, conn)" `Quick
            test_net_determinism;
          Alcotest.test_case "none and validation" `Quick
            test_net_none_and_validation;
          Alcotest.test_case "of_string and pp" `Quick test_net_parse;
        ] );
      ( "disk plans",
        [
          Alcotest.test_case "deterministic per (seed, job, round)" `Quick
            test_disk_determinism;
          Alcotest.test_case "none and validation" `Quick
            test_disk_none_and_validation;
          Alcotest.test_case "of_string and pp" `Quick test_disk_parse;
        ] );
    ]
