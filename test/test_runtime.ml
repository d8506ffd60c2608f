open Lamp_relational
open Lamp_runtime

let instance = Alcotest.testable Instance.pp Instance.equal

(* ------------------------------------------------------------------ *)
(* Deque                                                               *)

let test_deque_owner_lifo () =
  let d = Deque.create () in
  List.iter (Deque.push d) [ 1; 2; 3 ];
  Alcotest.(check int) "length" 3 (Deque.length d);
  Alcotest.(check (option int)) "pop newest" (Some 3) (Deque.pop d);
  Alcotest.(check (option int)) "then 2" (Some 2) (Deque.pop d);
  Deque.push d 4;
  Alcotest.(check (option int)) "interleaved push" (Some 4) (Deque.pop d);
  Alcotest.(check (option int)) "then 1" (Some 1) (Deque.pop d);
  Alcotest.(check (option int)) "empty" None (Deque.pop d);
  Alcotest.(check bool) "is_empty" true (Deque.is_empty d)

let test_deque_thief_fifo () =
  let d = Deque.create () in
  List.iter (Deque.push d) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "steal oldest" (Some 1) (Deque.steal d);
  Alcotest.(check (option int)) "owner still newest" (Some 3) (Deque.pop d);
  Alcotest.(check (option int)) "steal remaining" (Some 2) (Deque.steal d);
  Alcotest.(check (option int)) "exhausted" None (Deque.steal d)

(* ------------------------------------------------------------------ *)
(* Pool                                                                *)

let test_pool_runs_every_task () =
  let pool = Pool.create ~domains:4 () in
  Alcotest.(check int) "size" 4 (Pool.size pool);
  let n = 1000 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  (* Counted, not checked, inside the task: Alcotest is not safe to
     call from several domains at once. *)
  let out_of_range = Atomic.make 0 in
  Pool.run pool ~tasks:n (fun ~worker k ->
      if worker < 0 || worker >= 4 then Atomic.incr out_of_range;
      Atomic.incr hits.(k));
  Alcotest.(check int) "every worker in range" 0 (Atomic.get out_of_range);
  Array.iteri
    (fun k c ->
      Alcotest.(check int) (Printf.sprintf "task %d exactly once" k) 1
        (Atomic.get c))
    hits;
  Alcotest.(check int) "tasks counted" n (Pool.tasks_run pool);
  Pool.shutdown pool

let test_pool_propagates_exception () =
  let pool = Pool.create ~domains:3 () in
  let ran_after = Atomic.make 0 in
  Alcotest.check_raises "task failure re-raised" (Failure "boom") (fun () ->
      Pool.run pool ~tasks:64 (fun ~worker:_ k ->
          if k = 5 then failwith "boom" else Atomic.incr ran_after));
  (* The pool must stay usable after a failed batch. *)
  let ok = Atomic.make 0 in
  Pool.run pool ~tasks:16 (fun ~worker:_ _ -> Atomic.incr ok);
  Alcotest.(check int) "pool alive after failure" 16 (Atomic.get ok);
  Pool.shutdown pool

let test_pool_shutdown_joins () =
  let pool = Pool.create ~domains:4 () in
  Pool.run pool ~tasks:8 (fun ~worker:_ _ -> ());
  Pool.shutdown pool;
  (* Idempotent, and the pool refuses further batches. *)
  Pool.shutdown pool;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Pool.run: pool has been shut down") (fun () ->
      Pool.run pool ~tasks:1 (fun ~worker:_ _ -> ()))

let test_pool_single_domain () =
  (* domains = 1: no spawned domain, the submitter does everything. *)
  let pool = Pool.create ~domains:1 () in
  let sum = ref 0 in
  Pool.run pool ~tasks:10 (fun ~worker k ->
      Alcotest.(check int) "only worker 0" 0 worker;
      sum := !sum + k);
  Alcotest.(check int) "all tasks" 45 !sum;
  Alcotest.(check int) "no steals" 0 (Pool.steals pool);
  Pool.shutdown pool

(* ------------------------------------------------------------------ *)
(* Executor combinators                                                *)

let with_pool_executor domains f =
  let pool = Pool.create ~domains () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () -> f (Executor.pool pool))

let test_executor_parallel_for () =
  with_pool_executor 4 (fun exec ->
      let n = 501 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Executor.parallel_for exec ~n (fun ~worker:_ i -> Atomic.incr hits.(i));
      Array.iter
        (fun c -> Alcotest.(check int) "exactly once" 1 (Atomic.get c))
        hits)

let test_executor_map_array () =
  let f i = (i * i) - 3 in
  let expected = Array.init 97 f in
  Alcotest.(check (array int))
    "sequential" expected
    (Executor.map_array Executor.sequential ~n:97 f);
  with_pool_executor 3 (fun exec ->
      Alcotest.(check (array int)) "pool" expected (Executor.map_array exec ~n:97 f);
      Alcotest.(check (array int))
        "pool, chunk=1" expected
        (Executor.map_array exec ~chunk:1 ~n:97 f))

let test_executor_map_reduce () =
  let sum_to n = n * (n - 1) / 2 in
  let run exec ?chunk () =
    Executor.map_reduce exec ?chunk ~n:1000 ~map:Fun.id ~combine:( + ) 0
  in
  Alcotest.(check int) "sequential" (sum_to 1000) (run Executor.sequential ());
  with_pool_executor 4 (fun exec ->
      Alcotest.(check int) "pool default chunk" (sum_to 1000) (run exec ());
      Alcotest.(check int) "pool chunk=1" (sum_to 1000) (run exec ~chunk:1 ());
      Alcotest.(check int) "pool chunk>n" (sum_to 1000) (run exec ~chunk:5000 ());
      Alcotest.(check int) "empty range" 7
        (Executor.map_reduce exec ~n:0 ~map:Fun.id ~combine:( + ) 7))

let test_executor_propagates () =
  with_pool_executor 2 (fun exec ->
      Alcotest.check_raises "exception through parallel_for" (Failure "dead")
        (fun () ->
          Executor.parallel_for exec ~n:32 (fun ~worker:_ i ->
              if i = 31 then failwith "dead")))

(* ------------------------------------------------------------------ *)
(* In-flight gauge and pool accessor (admission control / stats feed)  *)

let test_in_flight_gauge () =
  let check_backend name exec =
    Alcotest.(check int) (name ^ " idle at rest") 0 (Executor.in_flight exec);
    let n = 16 in
    let seen = ref [] in
    Executor.parallel_for exec ~chunk:1 ~n (fun ~worker:_ _ ->
        seen := Executor.in_flight exec :: !seen);
    (* Each task observes itself (and possibly peers) still in flight:
       the gauge is >= 1 from inside a task, whatever the backend. *)
    List.iter
      (fun v ->
        if v < 1 || v > n then
          Alcotest.failf "%s mid-batch gauge %d out of [1..%d]" name v n)
      !seen;
    Alcotest.(check int) (name ^ " idle after batch") 0
      (Executor.in_flight exec)
  in
  check_backend "seq" Executor.sequential;
  with_pool_executor 2 (check_backend "pool");
  (* The raw pool gauge agrees and is independently readable. *)
  let pool = Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "pool gauge at rest" 0 (Pool.in_flight pool);
      let inside = ref 0 in
      Pool.run pool ~tasks:8 (fun ~worker:_ _ ->
          inside := max !inside (Pool.in_flight pool));
      Alcotest.(check bool) "pool gauge >= 1 mid-batch" true (!inside >= 1);
      Alcotest.(check int) "pool gauge drained" 0 (Pool.in_flight pool))

let test_in_flight_resets_on_raise () =
  (* A raising batch must not leave the gauge stuck: admission control
     would otherwise believe the executor busy forever. *)
  (try
     Executor.parallel_for Executor.sequential ~n:4 (fun ~worker:_ i ->
         if i = 2 then failwith "boom")
   with Failure _ -> ());
  Alcotest.(check int) "seq gauge after raise" 0
    (Executor.in_flight Executor.sequential)

let test_backend_pool_accessor () =
  Alcotest.(check bool)
    "sequential has no pool" true
    (Executor.backend_pool Executor.sequential = None);
  with_pool_executor 3 (fun exec ->
      match Executor.backend_pool exec with
      | None -> Alcotest.fail "pool backend must expose its pool"
      | Some p ->
        Alcotest.(check int) "exposed pool has the right size" 3 (Pool.size p);
        Alcotest.(check int)
          "workers agrees with exposed pool" (Executor.workers exec)
          (Pool.size p))

(* ------------------------------------------------------------------ *)
(* Backend equivalence on the MPC simulator                            *)

let stats_equal = Alcotest.of_pp Lamp_mpc.Stats.pp

let check_backend_equivalence ~domains run =
  let seq_result, seq_stats = run Executor.sequential in
  with_pool_executor domains (fun exec ->
      let pool_result, pool_stats = run exec in
      Alcotest.check stats_equal "stats identical" seq_stats pool_stats;
      Alcotest.(check bool)
        "round-by-round stats identical" true
        (seq_stats = pool_stats);
      Alcotest.check instance "results identical" seq_result pool_result)

let triangle_workload =
  lazy
    (let rng = Random.State.make [| 42 |] in
     Lamp_mpc.Workload.triangle_skew_free ~rng ~m:400 ~domain:300)

let test_equiv_hypercube_triangle () =
  (* p = 27 servers over 3 workers: p > domain count. *)
  check_backend_equivalence ~domains:3 (fun executor ->
      let result, stats, _ =
        Lamp_mpc.Hypercube.run ~executor ~p:27 Lamp_cq.Examples.q2_triangle
          (Lazy.force triangle_workload)
      in
      (result, stats))

let test_equiv_repartition_join () =
  let w = Lamp_mpc.Workload.join_skew_free ~m:500 in
  check_backend_equivalence ~domains:4 (fun executor ->
      Lamp_mpc.Repartition_join.run ~executor ~p:8 w);
  (* p = 1: a single server must still work on every backend. *)
  check_backend_equivalence ~domains:2 (fun executor ->
      Lamp_mpc.Repartition_join.run ~executor ~p:1 w)

let test_equiv_multi_round () =
  check_backend_equivalence ~domains:3 (fun executor ->
      Lamp_mpc.Multi_round.cascade_triangle ~executor ~p:9
        (Lazy.force triangle_workload))

let test_equiv_gym () =
  let rng = Random.State.make [| 7 |] in
  let i =
    Lamp_mpc.Workload.acyclic_chain ~rng ~m:400 ~domain:200
      ~rels:[ "R1"; "R2"; "R3" ]
  in
  let q =
    Lamp_cq.Parser.query "H(x0,x3) <- R1(x0,x1), R2(x1,x2), R3(x2,x3)"
  in
  check_backend_equivalence ~domains:4 (fun executor ->
      Lamp_mpc.Yannakakis.gym ~executor ~p:16 q i)

let test_bad_destination_names_source () =
  with_pool_executor 2 (fun executor ->
      let c =
        Lamp_mpc.Cluster.create ~executor ~p:2
          (Instance.of_string "R(1,2). R(3,4). R(5,6)")
      in
      let saw = ref "" in
      (try
         Lamp_mpc.Cluster.run_round c
           {
             Lamp_mpc.Cluster.communicate =
               Lamp_mpc.Cluster.route_by (fun _ -> [ 9 ]);
             compute = Lamp_mpc.Cluster.keep_received;
           }
       with Invalid_argument msg -> saw := msg);
      Alcotest.(check bool)
        "message names the offending source server" true
        (String.length !saw > 0
        && (let has sub =
              let n = String.length !saw and m = String.length sub in
              let rec go i =
                i + m <= n && (String.sub !saw i m = sub || go (i + 1))
              in
              go 0
            in
            has "server 0" && has "destination 9" && has "p = 2"));
      (* The cluster recorded nothing for the aborted round. *)
      Alcotest.(check int) "no round recorded" 0
        (Lamp_mpc.Stats.rounds (Lamp_mpc.Cluster.stats c)))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "lamp_runtime"
    [
      ( "deque",
        [
          Alcotest.test_case "owner LIFO" `Quick test_deque_owner_lifo;
          Alcotest.test_case "thief FIFO" `Quick test_deque_thief_fifo;
        ] );
      ( "pool",
        [
          Alcotest.test_case "runs every task" `Quick test_pool_runs_every_task;
          Alcotest.test_case "exceptions propagate" `Quick
            test_pool_propagates_exception;
          Alcotest.test_case "shutdown joins" `Quick test_pool_shutdown_joins;
          Alcotest.test_case "single domain" `Quick test_pool_single_domain;
        ] );
      ( "executor",
        [
          Alcotest.test_case "parallel_for covers range" `Quick
            test_executor_parallel_for;
          Alcotest.test_case "map_array" `Quick test_executor_map_array;
          Alcotest.test_case "map_reduce" `Quick test_executor_map_reduce;
          Alcotest.test_case "exceptions propagate" `Quick
            test_executor_propagates;
          Alcotest.test_case "in-flight gauge" `Quick test_in_flight_gauge;
          Alcotest.test_case "gauge resets on raise" `Quick
            test_in_flight_resets_on_raise;
          Alcotest.test_case "backend pool accessor" `Quick
            test_backend_pool_accessor;
        ] );
      ( "backend equivalence",
        [
          Alcotest.test_case "hypercube triangle (p > domains)" `Quick
            test_equiv_hypercube_triangle;
          Alcotest.test_case "repartition join (incl. p = 1)" `Quick
            test_equiv_repartition_join;
          Alcotest.test_case "cascade triangle" `Quick test_equiv_multi_round;
          Alcotest.test_case "GYM chain" `Quick test_equiv_gym;
          Alcotest.test_case "bad destination names source" `Quick
            test_bad_destination_names_source;
        ] );
    ]
