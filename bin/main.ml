(* lamp — command-line interface to the library.

   Subcommands mirror the paper's workflows: evaluate queries, check
   parallel-correctness and transfer, run the MPC algorithms with load
   statistics, evaluate Datalog programs, and classify queries in the
   monotonicity hierarchy. Run `lamp --help` or see README.md. *)

open Lamp
open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)

let query_arg =
  let doc = "The conjunctive query, e.g. 'H(x,z) <- R(x,y), S(y,z)'." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let instance_arg =
  let doc = "Inline instance, e.g. 'R(1,2). S(2,3)'." in
  Arg.(value & opt (some string) None & info [ "instance"; "i" ] ~docv:"FACTS" ~doc)

let instance_file_arg =
  let doc = "File holding the instance (same textual format)." in
  Arg.(
    value
    & opt (some string) None
    & info [ "instance-file"; "f" ] ~docv:"FILE" ~doc)

let load_instance inline file =
  match inline, file with
  | Some s, None -> Relational.Instance.of_string s
  | None, Some path -> Relational.Instance.of_string (read_file path)
  | Some _, Some _ ->
    invalid_arg "give either --instance or --instance-file, not both"
  | None, None -> invalid_arg "an instance is required (--instance or --instance-file)"

let p_arg =
  let doc = "Number of servers." in
  Arg.(value & opt int 8 & info [ "p" ] ~docv:"P" ~doc)

let seed_arg =
  let doc = "Hash seed." in
  Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)

let backend_arg =
  let doc =
    "Execution backend for the simulator: $(b,seq) (sequential) or $(b,pool) \
     (lamp.runtime domain pool). Load statistics are identical either way."
  in
  Arg.(value & opt string "seq" & info [ "backend" ] ~docv:"BACKEND" ~doc)

let domains_arg =
  let doc = "Domain-pool size for --backend=pool (default: recommended)." in
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N" ~doc)

let faults_arg =
  let doc =
    "Deterministic fault plan for the simulator: comma-separated key=value \
     fields among $(b,crash), $(b,drop), $(b,dup), $(b,delay), \
     $(b,straggle), $(b,transient) (probabilities), $(b,speculate) \
     (straggler speculation budget in seconds), $(b,kill)=ROUND (process \
     death after that round's checkpoint; needs --checkpoint), \
     $(b,perma)=ROUND:SERVER (permanent crash-stop, rebalanced onto the \
     survivors; needs --checkpoint) plus the bare flag $(b,reorder); or \
     the presets $(b,none) and $(b,chaos). Example: \
     --faults=crash=0.1,drop=0.05,reorder. Faults are injected and \
     recovered within each round; the output and per-round loads are \
     bit-identical to the fault-free run, with recovery work reported \
     separately."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let fault_seed_arg =
  let doc = "Seed of the fault plan (decisions are pure functions of it)." in
  Arg.(value & opt int 0 & info [ "fault-seed" ] ~docv:"N" ~doc)

let parse_faults spec seed =
  match spec with
  | None -> Faults.Plan.none
  | Some s -> Faults.Plan.of_string ~seed s

let checkpoint_arg =
  let doc =
    "Directory for durable job checkpoints: the run becomes a supervised \
     job, checkpointed after every round. Combine with --resume to continue \
     a killed run and --kill-after-round to simulate the death."
  in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"DIR" ~doc)

let disk_faults_arg =
  let doc =
    "Deterministic disk-fault plan for the checkpoint store (needs \
     --checkpoint): comma-separated key=value fields among $(b,rot), \
     $(b,truncate), $(b,enospc), $(b,litter) (per-save probabilities) and \
     $(b,crash)=ROUND:POINT — a one-shot simulated power cut during that \
     round's save, with POINT among $(b,torn):FRAC (the write tears at \
     that fraction of the slot), $(b,pre-rename) and $(b,post-rename) (the \
     rename is lost); or the presets $(b,none) and $(b,chaos). Example: \
     --disk-faults=crash=2:torn:0.5. After a simulated crash, rerun with \
     --resume (and the crash= field dropped): recovery verifies checksums, \
     falls back to the previous slot generation when the freshest one is \
     damaged, and converges to bit-identical output."
  in
  Arg.(
    value & opt (some string) None & info [ "disk-faults" ] ~docv:"SPEC" ~doc)

let disk_fault_seed_arg =
  let doc = "Seed of the disk-fault plan." in
  Arg.(value & opt int 0 & info [ "disk-fault-seed" ] ~docv:"N" ~doc)

let parse_disk_faults spec seed =
  match spec with
  | None -> Faults.Disk.none
  | Some s -> Faults.Disk.of_string ~seed s

let resume_arg =
  let doc =
    "Resume from the checkpoint in --checkpoint=DIR instead of starting \
     over. The resumed run must use the same algorithm, fault plan and \
     configuration (checkpoints are fingerprinted); its output and stats \
     are bit-identical to an uninterrupted run."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let kill_after_arg =
  let doc =
    "Simulate a process death immediately after the round-$(docv) \
     checkpoint is persisted (0 = before any work). The command exits \
     cleanly; rerun with --resume to continue."
  in
  Arg.(
    value
    & opt (some int) None
    & info [ "kill-after-round" ] ~docv:"K" ~doc)

(* Builds the job control block when --checkpoint was given and runs
   [f] under it, turning the simulated death into a clean exit with a
   hint instead of a crash. *)
let with_job ~name ?(disk_faults = Faults.Disk.none) checkpoint resume
    kill_after f =
  match checkpoint with
  | None ->
    if resume then invalid_arg "--resume requires --checkpoint=DIR";
    if kill_after <> None then
      invalid_arg "--kill-after-round requires --checkpoint=DIR";
    if not (Faults.Disk.is_none disk_faults) then
      invalid_arg "--disk-faults requires --checkpoint=DIR";
    f None
  | Some dir ->
    if not (Faults.Disk.is_none disk_faults) then
      Fmt.pr "disk-faults: %a@." Faults.Disk.pp disk_faults;
    let store = Jobs.Store.on_disk ~faults:disk_faults dir in
    let job =
      Jobs.Supervisor.create ?kill_after_round:kill_after ~resume ~store name
    in
    (try
       f (Some job);
       Fmt.pr "job:    %a@." Jobs.Supervisor.pp_outcome job
     with
    | Jobs.Supervisor.Killed { job = j; round } ->
      Fmt.pr "job %s killed after its round-%d checkpoint; rerun with \
              --resume to continue@."
        j round
    | Jobs.Io.Crashed { job = j; round; point } ->
      Fmt.pr "job %s hit a simulated power cut (%s) during its round-%d \
              checkpoint save; rerun with --resume (and without crash= in \
              --disk-faults) to recover@."
        j point round)

let trace_arg =
  let doc =
    "Write a Chrome trace_event file of the run (load it in Perfetto or \
     chrome://tracing): MPC phase spans, per-server deliveries, engine \
     counters."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Print an aggregated profile (spans by name, counters, histograms) after \
     the command."
  in
  Arg.(value & flag & info [ "profile" ] ~doc)

let verbose_arg =
  let doc = "Print the per-round load breakdown, not just the totals." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

(* Enables the collector when either export was asked for, runs [f],
   then writes/prints them — also on error, so a failed run still
   leaves its partial trace. *)
let with_obs trace profile f =
  if trace <> None || profile then Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun path ->
          Obs.Export.write_chrome path;
          Fmt.epr "wrote %s@." path)
        trace;
      if profile then Fmt.pr "%a" Obs.Export.pp_report ())
    f

(* Builds the executor and runs [f] with it, tearing the pool down
   afterwards even on error. *)
let with_executor backend domains f =
  match backend with
  | "seq" -> f Runtime.Executor.sequential
  | "pool" ->
    let pool = Runtime.Pool.create ?domains () in
    Fun.protect
      ~finally:(fun () -> Runtime.Pool.shutdown pool)
      (fun () -> f (Runtime.Executor.pool pool))
  | other -> invalid_arg (Fmt.str "unknown backend %S (seq or pool)" other)

let wrap f =
  try f (); 0
  with
  | Invalid_argument msg | Failure msg ->
    Fmt.epr "error: %s@." msg;
    1
  | Cq.Parser.Parse_error msg ->
    Fmt.epr "parse error: %s@." msg;
    1
  | Cq.Ast.Unsafe msg ->
    Fmt.epr "unsafe query: %s@." msg;
    1
  | Serve.Client.Server_error (code, msg) ->
    let name =
      match code with
      | Serve.Wire.Bad_request -> "bad request"
      | Rejected -> "rejected"
      | Throttled -> "throttled"
      | Failed -> "failed"
      | Overloaded { retry_after_s } ->
        Printf.sprintf "overloaded, retry after %gs" retry_after_s
      | Corrupt_frame -> "corrupt frame"
    in
    Fmt.epr "server error (%s): %s@." name msg;
    1
  | Serve.Client.Connection_lost msg ->
    Fmt.epr "connection lost: %s@." msg;
    1
  | Serve.Client.Timed_out msg ->
    Fmt.epr "timed out: %s@." msg;
    1
  | Serve.Client.Protocol_error msg ->
    Fmt.epr "protocol error: %s@." msg;
    1
  | Transducer.Scheduler.Did_not_quiesce { transitions; in_flight } ->
    Fmt.epr
      "error: network did not quiesce within %d transitions (%d messages \
       still in flight); raise --max-transitions or suspect divergence@."
      transitions in_flight;
    1

(* ------------------------------------------------------------------ *)
(* Policy specifications                                               *)

(* hash:p=4:R=1,S=0          hash R's column 1 and S's column 0 over 4 nodes
   hypercube:x=2,y=2,z=2     HyperCube grid for the given query
   file:PATH                 explicit policy: lines "NODE: fact. fact."  *)
let parse_policy ~query ~universe spec =
  match String.split_on_char ':' spec with
  | "hash" :: rest ->
    let p = ref 4 and positions = ref [] in
    List.iter
      (fun part ->
        String.split_on_char ',' part
        |> List.iter (fun kv ->
               match String.split_on_char '=' kv with
               | [ "p"; n ] -> p := int_of_string n
               | [ rel; pos ] -> positions := (rel, int_of_string pos) :: !positions
               | _ -> invalid_arg ("bad hash policy component: " ^ kv)))
      rest;
    Distribution.Policy.hash_by_position ~universe ~name:spec ~p:!p
      (List.rev !positions)
  | [ "hypercube"; shares ] ->
    let shares =
      String.split_on_char ',' shares
      |> List.map (fun kv ->
             match String.split_on_char '=' kv with
             | [ v; s ] -> (v, int_of_string s)
             | _ -> invalid_arg ("bad share: " ^ kv))
    in
    let policy, _ =
      Distribution.Policy.hypercube ~universe ~name:spec ~query ~shares ()
    in
    policy
  | [ "file"; path ] ->
    let assignments =
      read_file path
      |> String.split_on_char '\n'
      |> List.filter_map (fun raw ->
             let raw = String.trim raw in
             if raw = "" || raw.[0] = '#' then None
             else
               match String.index_opt raw ':' with
               | None -> invalid_arg ("bad policy line: " ^ raw)
               | Some i ->
                 let node = int_of_string (String.trim (String.sub raw 0 i)) in
                 let facts =
                   Relational.Instance.of_string
                     (String.sub raw (i + 1) (String.length raw - i - 1))
                 in
                 Some (node, Relational.Instance.facts facts))
    in
    Distribution.Policy.explicit ~universe ~name:spec assignments
  | _ ->
    invalid_arg
      (Fmt.str
         "unknown policy spec %S (expected hash:..., hypercube:..., file:PATH)"
         spec)

let policy_arg =
  let doc =
    "Distribution policy: 'hash:p=4:R=1,S=0' (hash listed columns), \
     'hypercube:x=2,y=2,z=2' (grid for the query), or 'file:PATH' (explicit \
     'node: facts' lines)."
  in
  Arg.(required & opt (some string) None & info [ "policy" ] ~docv:"POLICY" ~doc)

let universe_arg =
  let doc = "Universe values (comma-separated); defaults to the instance's \
             active domain, or {a,b} when no instance is given." in
  Arg.(value & opt (some string) None & info [ "universe" ] ~docv:"VALUES" ~doc)

let resolve_universe universe instance =
  match universe with
  | Some s ->
    Relational.Value.set_of_list
      (List.map Relational.Value.of_string (String.split_on_char ',' s))
  | None -> (
    match instance with
    | Some i when not (Relational.Instance.is_empty i) -> Relational.Instance.adom i
    | _ ->
      Relational.Value.set_of_list
        [ Relational.Value.str "a"; Relational.Value.str "b" ])

(* ------------------------------------------------------------------ *)
(* eval                                                                *)

let plan_strategy_arg =
  let doc =
    "Plan backend: $(b,binary) (the seed join-order plan) or $(b,wcoj) \
     (worst-case-optimal leapfrog join over the same column indexes). \
     Results are bit-identical."
  in
  Arg.(value & opt string "binary" & info [ "plan" ] ~docv:"STRATEGY" ~doc)

let parse_strategy s =
  match Cq.Eval.strategy_of_string s with
  | Ok st -> st
  | Error msg -> invalid_arg msg

let eval_cmd =
  let run query inline file strategy trace profile =
    wrap (fun () ->
        with_obs trace profile (fun () ->
            let strategy = parse_strategy strategy in
            let q = Cq.Parser.query query in
            let i = load_instance inline file in
            let result = Cq.Eval.eval ~strategy q i in
            Fmt.pr "%a@." Relational.Instance.pp result;
            Fmt.pr "(%d facts)@." (Relational.Instance.cardinal result)))
  in
  let doc = "Evaluate a conjunctive query (with !negation and != allowed)." in
  Cmd.v (Cmd.info "eval" ~doc)
    Term.(
      const run $ query_arg $ instance_arg $ instance_file_arg
      $ plan_strategy_arg $ trace_arg $ profile_arg)

(* ------------------------------------------------------------------ *)
(* pc                                                                  *)

let pc_cmd =
  let run query policy_spec universe inline file =
    wrap (fun () ->
        let q = Cq.Parser.query query in
        let instance =
          match inline, file with
          | None, None -> None
          | _ -> Some (load_instance inline file)
        in
        let universe = resolve_universe universe instance in
        let policy = parse_policy ~query:q ~universe policy_spec in
        (match instance with
        | Some i -> (
          match Correctness.Parallel_correctness.on_instance q policy i with
          | Ok () -> Fmt.pr "parallel-correct on the given instance@."
          | Error v ->
            Fmt.pr "NOT parallel-correct on the instance:@.";
            Fmt.pr "  missing: %a@." Relational.Instance.pp
              v.Correctness.Parallel_correctness.missing;
            Fmt.pr "  extra:   %a@." Relational.Instance.pp
              v.Correctness.Parallel_correctness.extra)
        | None -> ());
        if Cq.Ast.has_negation q then begin
          let verdict = Correctness.Negation.decide q policy in
          (match verdict.Correctness.Negation.sound with
          | Ok () -> Fmt.pr "parallel-sound under the policy@."
          | Error i ->
            Fmt.pr "NOT parallel-sound; counterexample: %a@."
              Relational.Instance.pp i);
          match verdict.Correctness.Negation.complete with
          | Ok () -> Fmt.pr "parallel-complete under the policy@."
          | Error i ->
            Fmt.pr "NOT parallel-complete; counterexample: %a@."
              Relational.Instance.pp i
        end
        else
          match Correctness.Parallel_correctness.decide q policy with
          | Ok () -> Fmt.pr "parallel-correct under the policy (all instances)@."
          | Error v ->
            Fmt.pr "NOT parallel-correct: %a@." Correctness.Saturation.pp_violation v)
  in
  let doc =
    "Decide parallel-correctness of a query under a distribution policy \
     (Proposition 4.6 / Theorem 4.9)."
  in
  Cmd.v (Cmd.info "pc" ~doc)
    Term.(
      const run $ query_arg $ policy_arg $ universe_arg $ instance_arg
      $ instance_file_arg)

(* ------------------------------------------------------------------ *)
(* transfer                                                            *)

let transfer_cmd =
  let to_arg =
    let doc = "The target query Q'." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY'" ~doc)
  in
  let run from_q to_q =
    wrap (fun () ->
        let q = Cq.Parser.query from_q and q' = Cq.Parser.query to_q in
        match Correctness.Transfer.covers_result q q' with
        | Ok () -> Fmt.pr "parallel-correctness transfers (Q covers Q')@."
        | Error v ->
          Fmt.pr "does NOT transfer: %a@." Correctness.Transfer.pp_violation v)
  in
  let doc =
    "Decide whether parallel-correctness transfers from one query to another \
     (Proposition 4.13)."
  in
  Cmd.v (Cmd.info "transfer" ~doc) Term.(const run $ query_arg $ to_arg)

(* ------------------------------------------------------------------ *)
(* MPC subcommands: hypercube, kst, gym, triangle                      *)

(* The flags every MPC subcommand shares, as one term that yields the
   subcommand's runner: [run ~name prepare]. [prepare] parses the
   subcommand's own arguments and returns the algorithm, which prints
   the number it reports and returns the result, the stats and its
   closing lines. Around it, the runner echoes the fault plan, runs the
   algorithm as a job under --checkpoint on the chosen backend, and
   prints the result, the stats and (with -v) the per-round loads. *)
let mpc_runner =
  let run inline file p backend domains faults_spec fault_seed checkpoint
      resume kill_after disk_faults_spec disk_fault_seed trace profile verbose
      ~name prepare =
    wrap (fun () ->
        with_obs trace profile (fun () ->
            let algo = prepare () in
            let i = load_instance inline file in
            let faults = parse_faults faults_spec fault_seed in
            if not (Faults.Plan.is_none faults) then
              Fmt.pr "faults: %a@." Faults.Plan.pp faults;
            with_job ~name
              ~disk_faults:(parse_disk_faults disk_faults_spec disk_fault_seed)
              checkpoint resume kill_after (fun job ->
                let result, stats, closing =
                  with_executor backend domains (fun executor ->
                      algo ~executor ~faults ~job ~p i)
                in
                Fmt.pr "result: %a@." Relational.Instance.pp result;
                Fmt.pr "stats:  %a@." Mpc.Stats.pp stats;
                if verbose then Fmt.pr "%a" Mpc.Stats.pp_rounds stats;
                closing ())))
  in
  Term.(
    const run $ instance_arg $ instance_file_arg $ p_arg $ backend_arg
    $ domains_arg $ faults_arg $ fault_seed_arg $ checkpoint_arg $ resume_arg
    $ kill_after_arg $ disk_faults_arg $ disk_fault_seed_arg $ trace_arg
    $ profile_arg $ verbose_arg)

let hypercube_cmd =
  let run query seed run_mpc =
    run_mpc ~name:"hypercube" (fun () ->
        let q = Cq.Parser.query query in
        fun ~executor ~faults ~job ~p i ->
          let result, stats, shares =
            Mpc.Hypercube.run ~seed ~executor ~faults ?job ~p q i
          in
          Fmt.pr "shares: %a@."
            Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string int))
            shares;
          ( result,
            stats,
            fun () ->
              Fmt.pr "tau* = %.3f, load exponent eps = %.3f@."
                (Cq.Hypergraph.tau_star q)
                (Mpc.Stats.epsilon ~m:(Relational.Instance.cardinal i) stats) ))
  in
  let doc = "Run the one-round HyperCube algorithm and report loads." in
  Cmd.v (Cmd.info "hypercube" ~doc)
    Term.(const run $ query_arg $ seed_arg $ mpc_runner)

let kst_cmd =
  let threshold_arg =
    let doc =
      "Heavy-hitter degree threshold; defaults to m/p. Doubles \
       automatically until the heavy-configuration count fits the cap."
    in
    Arg.(value & opt (some int) None & info [ "threshold" ] ~docv:"N" ~doc)
  in
  let run query seed threshold run_mpc =
    run_mpc ~name:"kst" (fun () ->
        let q = Cq.Parser.query query in
        fun ~executor ~faults ~job ~p i ->
          let result, stats, combos =
            Mpc.Kst.run ~seed ?threshold ~executor ~faults ?job ~p q i
          in
          Fmt.pr "heavy configurations: %d@." combos;
          (result, stats, ignore))
  in
  let doc =
    "Run the KST-style near-optimal multi-round schedule: heavy/light \
     decomposition into per-configuration HyperCube subgrids, \
     worst-case-optimal local evaluation."
  in
  Cmd.v (Cmd.info "kst" ~doc)
    Term.(const run $ query_arg $ seed_arg $ threshold_arg $ mpc_runner)

let gym_cmd =
  let run query run_mpc =
    run_mpc ~name:"gym" (fun () ->
        let q = Cq.Parser.query query in
        fun ~executor ~faults ~job ~p i ->
          let result, stats, width =
            Mpc.Gym_ghd.run ~executor ~faults ?job ~p q i
          in
          Fmt.pr "decomposition width: %d bag atoms@." width;
          (result, stats, ignore))
  in
  let doc =
    "Run GYM (Yannakakis in MPC over a tree decomposition; handles cyclic \
     queries)."
  in
  Cmd.v (Cmd.info "gym" ~doc) Term.(const run $ query_arg $ mpc_runner)

let triangle_cmd =
  let algo_arg =
    let doc =
      "Multi-round plan: $(b,cascade) (two repartition joins; round 2 \
       carries the intermediate K = R ⋈ S) or $(b,skew) (heavy/light \
       split: light tuples through one-round HyperCube, heavy ones \
       through a two-round semi-join plan)."
    in
    Arg.(value & opt string "cascade" & info [ "algo" ] ~docv:"ALGO" ~doc)
  in
  let run algo seed run_mpc =
    run_mpc ~name:"triangle" (fun () ~executor ~faults ~job ~p i ->
        match algo with
        | "cascade" ->
          let result, stats =
            Mpc.Multi_round.cascade_triangle ~seed ~executor ~faults ?job ~p i
          in
          (result, stats, ignore)
        | "skew" ->
          let result, stats, heavy =
            Mpc.Multi_round.skew_resilient_triangle ~seed ~executor ~faults
              ?job ~p i
          in
          Fmt.pr "heavy hitters: %d@." heavy;
          (result, stats, ignore)
        | other ->
          invalid_arg (Fmt.str "unknown algo %S (cascade or skew)" other))
  in
  let doc =
    "Run a multi-round triangle plan (H(x,y,z) <- R(x,y), S(y,z), T(z,x)) \
     over an instance with relations R, S and T."
  in
  Cmd.v (Cmd.info "triangle" ~doc)
    Term.(const run $ algo_arg $ seed_arg $ mpc_runner)

(* ------------------------------------------------------------------ *)
(* calm                                                                *)

let calm_cmd =
  let max_transitions_arg =
    let doc =
      "Transition budget for each run before it is abandoned with a \
       Did_not_quiesce diagnostic. The default (200000) is the \
       Scheduler.drain default; raise it for large instances, lower it to \
       catch divergence early."
    in
    Arg.(value & opt int 200_000 & info [ "max-transitions" ] ~docv:"N" ~doc)
  in
  let run query inline file p max_transitions faults_spec fault_seed =
    wrap (fun () ->
        let q = Cq.Parser.query query in
        let i = load_instance inline file in
        let expected = Cq.Eval.eval q i in
        let program =
          Transducer.Programs.monotone_broadcast ~name:"calm"
            ~eval:(Cq.Eval.eval q)
        in
        let make dist = Transducer.Network.create program dist in
        let dist = Transducer.Horizontal.round_robin ~p i in
        let adversary =
          match parse_faults faults_spec fault_seed with
          | plan when Faults.Plan.is_none plan ->
            Transducer.Scheduler.adversary fault_seed
          | plan -> Transducer.Scheduler.Adversary plan
        in
        let schedules = Transducer.Calm.default_schedules @ [ adversary ] in
        let ok = ref true in
        List.iter
          (fun schedule ->
            let net = make dist in
            let got = Transducer.Scheduler.drain ~schedule ~max_transitions net in
            let agrees = Relational.Instance.equal got expected in
            if not agrees then ok := false;
            Fmt.pr "%-14s %s (%d facts)@."
              (Transducer.Calm.schedule_name schedule)
              (if agrees then "agrees" else "DIVERGES")
              (Relational.Instance.cardinal got))
          schedules;
        (match
           Transducer.Calm.coordination_free ~make ~expected
             (Transducer.Horizontal.full_replication ~p i)
         with
        | Ok () ->
          Fmt.pr "coordination-free: silent run on the ideal distribution \
                  computes the query@."
        | Error f ->
          Fmt.pr "flagged: requires coordination (%a)@."
            Transducer.Calm.pp_failure f);
        if not !ok then
          invalid_arg "some schedule diverged from the expected output")
  in
  let doc =
    "Run a broadcasting transducer network for a query under every schedule \
     — random, FIFO, LIFO and the duplicating/reordering delivery adversary \
     — and check they agree (the CALM eventual-consistency property)."
  in
  Cmd.v (Cmd.info "calm" ~doc)
    Term.(
      const run $ query_arg $ instance_arg $ instance_file_arg $ p_arg
      $ max_transitions_arg $ faults_arg $ fault_seed_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)

let analyze_cmd =
  let run query =
    wrap (fun () ->
        let q = Cq.Parser.query query in
        Fmt.pr "query:        %a@." Cq.Ast.pp q;
        Fmt.pr "full:         %b@." (Cq.Ast.is_full q);
        Fmt.pr "self-join:    %b@." (Cq.Ast.has_self_join q);
        if Cq.Ast.is_positive q then begin
          Fmt.pr "acyclic:      %b@." (Cq.Hypergraph.is_acyclic q);
          Fmt.pr "tau*:         %.3f (skew-free load m/p^%.3f)@."
            (Cq.Hypergraph.tau_star q)
            (1.0 /. Cq.Hypergraph.tau_star q);
          Fmt.pr "rho*:         %.3f (AGM output bound m^rho*)@."
            (Cq.Hypergraph.rho_star q);
          let _, exps = Cq.Hypergraph.share_exponents q in
          Fmt.pr "share exps:   %a@."
            Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string float))
            exps;
          let d = Cq.Decomposition.min_fill q in
          Fmt.pr "decomposition width: %d@." (Cq.Decomposition.width d);
          let core = Cq.Containment.minimize q in
          if not (Cq.Ast.equal core q) then
            Fmt.pr "core (minimized): %a@." Cq.Ast.pp core
        end)
  in
  let doc = "Structural analysis of a query: acyclicity, tau*, rho*, shares." in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ query_arg)

(* ------------------------------------------------------------------ *)
(* datalog                                                             *)

let datalog_cmd =
  let program_arg =
    let doc = "File with the Datalog program (one rule per line)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)
  in
  let output_arg =
    let doc = "Output relation to print (default: all IDB relations)." in
    Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"REL" ~doc)
  in
  let wf_arg =
    let doc = "Use the well-founded semantics (for non-stratifiable programs)." in
    Arg.(value & flag & info [ "well-founded"; "wf" ] ~doc)
  in
  let run program_file output wf inline file trace profile =
    wrap (fun () ->
        with_obs trace profile @@ fun () ->
        let program = Datalog.Program.parse (read_file program_file) in
        let i = load_instance inline file in
        Fmt.pr "idb: %s;  edb: %s@."
          (String.concat ", " (Datalog.Program.idb program))
          (String.concat ", " (Datalog.Program.edb program));
        Fmt.pr
          "semi-positive: %b;  connected: %b;  semi-connected (stratified): \
           %b;  stratifiable: %b@."
          (Datalog.Program.is_semi_positive program)
          (Datalog.Connectivity.program_connected program)
          (Datalog.Connectivity.is_semi_connected program)
          (Datalog.Stratify.is_stratifiable program);
        if wf then begin
          let result = Datalog.Wellfounded.well_founded program i in
          let pick j =
            match output with
            | Some rel ->
              Relational.Instance.filter (fun f -> Relational.Fact.rel f = rel) j
            | None -> j
          in
          Fmt.pr "true:      %a@." Relational.Instance.pp
            (pick
               (Relational.Instance.diff
                  result.Datalog.Wellfounded.true_facts i));
          Fmt.pr "undefined: %a@." Relational.Instance.pp
            (pick result.Datalog.Wellfounded.undefined)
        end
        else
          let result =
            match output with
            | Some rel -> Datalog.Eval.query program ~output:rel i
            | None ->
              let idb = Datalog.Program.idb program in
              Relational.Instance.filter
                (fun f -> List.mem (Relational.Fact.rel f) idb)
                (Datalog.Eval.run program i)
          in
          Fmt.pr "%a@." Relational.Instance.pp result)
  in
  let doc = "Evaluate a stratified (or well-founded) Datalog program." in
  Cmd.v (Cmd.info "datalog" ~doc)
    Term.(
      const run $ program_arg $ output_arg $ wf_arg $ instance_arg
      $ instance_file_arg $ trace_arg $ profile_arg)

(* ------------------------------------------------------------------ *)
(* classify                                                            *)

let classify_cmd =
  let samples_arg =
    let doc = "Number of random instance pairs to test against." in
    Arg.(value & opt int 100 & info [ "samples" ] ~docv:"N" ~doc)
  in
  let run query samples =
    wrap (fun () ->
        let q = Cq.Parser.query query in
        let schema = Cq.Ast.body_schema q in
        let rng = Random.State.make [| 2016 |] in
        let pairs =
          Datalog.Classify.random_pairs ~rng ~schema ~count:samples ~size:6
            ~domain:4
        in
        let cq = Datalog.Classify.of_cq q in
        let verdict = Datalog.Classify.classify cq ~pairs in
        Fmt.pr "empirical class (over %d random pairs): %s@." samples
          (Datalog.Classify.class_name verdict);
        match verdict.Datalog.Classify.monotone with
        | Ok () -> ()
        | Error r ->
          Fmt.pr "monotonicity refuted by:@.  I = %a@.  J = %a@.  lost = %a@."
            Relational.Instance.pp r.Datalog.Classify.base
            Relational.Instance.pp r.Datalog.Classify.extension
            Relational.Instance.pp r.Datalog.Classify.lost)
  in
  let doc =
    "Place a query in the monotonicity hierarchy M / Mdistinct / Mdisjoint \
     by randomized testing (Section 5.2)."
  in
  Cmd.v (Cmd.info "classify" ~doc) Term.(const run $ query_arg $ samples_arg)

(* ------------------------------------------------------------------ *)
(* serve / client                                                      *)

let socket_arg =
  let doc = "Unix-domain socket path for the query service." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let port_arg =
  let doc = "TCP port for the query service (0 picks a free one)." in
  Arg.(value & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "TCP host to bind or connect to." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let iname_arg =
  let doc = "Name of the served instance to address." in
  Arg.(value & opt string "main" & info [ "name"; "n" ] ~docv:"NAME" ~doc)

let serve_cmd =
  let max_sessions_arg =
    let doc = "Maximum concurrent client connections." in
    Arg.(value & opt int 1024 & info [ "max-sessions" ] ~docv:"N" ~doc)
  in
  let max_inflight_arg =
    let doc = "Maximum engine requests admitted at once; one more gets a \
               typed Overloaded reply with a retry hint instead of \
               queueing." in
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N" ~doc)
  in
  let plan_cache_arg =
    let doc = "Prepared-plan cache capacity (LRU beyond it)." in
    Arg.(value & opt int 128 & info [ "plan-cache" ] ~docv:"N" ~doc)
  in
  let batch_arg =
    let doc = "Facts per streamed result batch." in
    Arg.(value & opt int 512 & info [ "batch" ] ~docv:"N" ~doc)
  in
  let quota_arg =
    let doc = "Per-client token-bucket quota RATE:BURST (requests per \
               second, bucket size). Unset means unlimited." in
    Arg.(value & opt (some string) None & info [ "quota" ] ~docv:"RATE:BURST" ~doc)
  in
  let telemetry_arg =
    let doc =
      "Enable live telemetry: event tracing in a bounded ring plus sketch \
       statistics (skew reports), scrapeable over the wire with $(b,lamp \
       client metrics), $(b,lamp client trace) and $(b,lamp top)."
    in
    Arg.(value & flag & info [ "telemetry" ] ~doc)
  in
  (* Hardening knobs: 0 disables a timeout (the option's [None]),
     matching the library defaults where they differ. *)
  let read_timeout_arg =
    let doc = "Deadline (seconds) for a started request frame to finish \
               arriving — defeats slow-loris senders. 0 waits forever." in
    Arg.(value & opt float 30.0 & info [ "read-timeout" ] ~docv:"SECS" ~doc)
  in
  let idle_timeout_arg =
    let doc = "How long (seconds) a session may sit between requests \
               before it is hung up on. 0 (default) keeps idle sessions \
               forever." in
    Arg.(value & opt float 0.0 & info [ "idle-timeout" ] ~docv:"SECS" ~doc)
  in
  let max_frame_arg =
    let doc = "Cap (bytes) on an incoming frame's payload, checked before \
               any allocation; a hostile length prefix is answered with a \
               typed error and a hangup." in
    Arg.(
      value
      & opt int Serve.Wire.max_frame
      & info [ "max-frame" ] ~docv:"BYTES" ~doc)
  in
  let dedup_window_arg =
    let doc = "Completed idempotency-keyed operations remembered per \
               client for replay, so a retried keyed request re-executes \
               nothing. 0 disables deduplication." in
    Arg.(value & opt int 1024 & info [ "dedup-window" ] ~docv:"N" ~doc)
  in
  let dedup_max_bytes_arg =
    let doc = "Cap (bytes) on one recorded dedup entry: a keyed \
               operation whose responses encode past this completes but \
               is not remembered (its retry re-executes), so large \
               result streams cannot pin server memory." in
    Arg.(
      value
      & opt int Serve.Server.default_config.dedup_max_bytes
      & info [ "dedup-max-bytes" ] ~docv:"BYTES" ~doc)
  in
  let run socket port host inline file iname max_sessions max_inflight
      plan_cache batch quota strategy telemetry read_timeout
      idle_timeout max_frame dedup_window dedup_max_bytes backend domains
      trace profile =
    wrap (fun () ->
        with_obs trace profile (fun () ->
            if telemetry then begin
              (* A long-lived server must not grow its event buffer
                 without bound: keep the newest spans in a ring. *)
              Obs.Trace.set_mode (Ring 4096);
              Obs.Trace.set_enabled true;
              Obs.Sketch.set_enabled true
            end;
            let strategy = parse_strategy strategy in
            let quota =
              Option.map
                (fun s ->
                  match String.split_on_char ':' s with
                  | [ rate; burst ] ->
                    (float_of_string rate, float_of_string burst)
                  | _ -> invalid_arg "--quota expects RATE:BURST")
                quota
            in
            let opt_pos v = if v > 0.0 then Some v else None in
            let config =
              {
                Serve.Server.default_config with
                max_sessions;
                max_inflight;
                plan_cache;
                batch;
                quota;
                strategy;
                read_timeout_s = opt_pos read_timeout;
                idle_timeout_s = opt_pos idle_timeout;
                max_frame;
                dedup_window;
                dedup_max_bytes;
              }
            in
            with_executor backend domains (fun executor ->
                let server = Serve.Server.create ~config ~executor () in
                let data =
                  match inline, file with
                  | None, None -> Relational.Instance.empty
                  | _ -> load_instance inline file
                in
                Serve.Server.add_instance server ~name:iname data;
                (match socket, port with
                | None, None ->
                  invalid_arg "give --socket=PATH and/or --port=PORT"
                | _ -> ());
                Option.iter
                  (fun path ->
                    Serve.Server.listen_unix server ~path;
                    Fmt.pr "listening on %s@." path)
                  socket;
                Option.iter
                  (fun port ->
                    let bound = Serve.Server.listen_tcp ~host server ~port in
                    Fmt.pr "listening on %s:%d@." host bound)
                  port;
                if telemetry then Fmt.pr "telemetry on (ring of 4096 events)@.";
                Fmt.pr "serving instance %S (%d facts); ^C stops@." iname
                  (Relational.Instance.cardinal data);
                (* The handler only flips a flag: Server.stop joins
                   threads and must not run inside a signal handler. *)
                let stop = Atomic.make false in
                let request_stop _ = Atomic.set stop true in
                ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
                ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
                while not (Atomic.get stop) do
                  Thread.delay 0.2
                done;
                Fmt.pr "draining...@.";
                Serve.Server.stop server;
                Option.iter
                  (fun path ->
                    try Unix.unlink path with Unix.Unix_error _ -> ())
                  socket;
                Fmt.pr "stopped@.")))
  in
  let doc =
    "Serve conjunctive queries over a socket: prepared plans, admission \
     control and per-client quotas."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ instance_arg
      $ instance_file_arg $ iname_arg $ max_sessions_arg $ max_inflight_arg
      $ plan_cache_arg $ batch_arg $ quota_arg
      $ plan_strategy_arg $ telemetry_arg $ read_timeout_arg
      $ idle_timeout_arg $ max_frame_arg $ dedup_window_arg
      $ dedup_max_bytes_arg $ backend_arg $ domains_arg $ trace_arg
      $ profile_arg)

let timeout_arg =
  let doc =
    "Per-request deadline (seconds): an operation that has not finished \
     its round-trip by then fails with a typed timeout instead of \
     hanging. Unset waits forever."
  in
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECS" ~doc)

let retries_arg =
  let doc =
    "Retry attempts after a connection loss, timeout or typed overload \
     reply, with seeded exponential backoff (an Overloaded retry hint \
     floors the sleep). Mutating operations carry idempotency keys, so a \
     retried ingest never double-counts."
  in
  Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)

(* Wraps the connection named by --socket/--port in a {!Serve.Resilient}
   retry client, runs [f], closes. With --retries=0 (the default) it is
   a plain one-shot connection — failures surface immediately. *)
let with_client socket port host timeout retries f =
  if retries < 0 then invalid_arg "--retries < 0";
  let connect () =
    match socket, port with
    | Some path, None -> Serve.Client.connect_unix ?timeout_s:timeout ~path ()
    | None, Some port ->
      Serve.Client.connect_tcp ?timeout_s:timeout ~host ~port ()
    | _ -> invalid_arg "give exactly one of --socket or --port"
  in
  let config =
    { Serve.Resilient.default_config with max_attempts = retries + 1 }
  in
  (* The client name keys the server's idempotency-replay window, so
     successive CLI invocations must not share a name. Resilient keys
     also carry a per-process nonce and the server digest-checks every
     replay, but a fresh name keeps invocations fully disjoint. *)
  let client = Printf.sprintf "lamp-cli.%d" (Unix.getpid ()) in
  let c = Serve.Resilient.create ~config ~client connect in
  Fun.protect ~finally:(fun () -> Serve.Resilient.close c) (fun () -> f c)

let mode_arg =
  let doc =
    "Evaluation mode: $(b,local) (direct evaluation), or the distributed \
     simulations $(b,hypercube), $(b,repartition), $(b,grid) (see --p)."
  in
  Arg.(value & opt string "local" & info [ "mode" ] ~docv:"MODE" ~doc)

let parse_mode mode p : Serve.Wire.mode =
  match mode with
  | "local" -> Local
  | "hypercube" -> Hypercube { p }
  | "repartition" -> Repartition { p }
  | "grid" -> Grid { p }
  | other ->
    invalid_arg
      (Fmt.str "unknown mode %S (local, hypercube, repartition, grid)" other)

let client_cmd =
  let health =
    let run socket port host timeout retries =
      wrap (fun () ->
          with_client socket port host timeout retries (fun c ->
              if Serve.Resilient.health c then Fmt.pr "healthy@."
              else invalid_arg "server reported unhealthy"))
    in
    Cmd.v
      (Cmd.info "health" ~doc:"Ping the service.")
      Term.(const run $ socket_arg $ port_arg $ host_arg $ timeout_arg $ retries_arg)
  in
  let stats =
    let run socket port host timeout retries =
      wrap (fun () ->
          with_client socket port host timeout retries (fun c ->
              let s = Serve.Resilient.stats c in
              Fmt.pr
                "sessions: %d (active requests %d, executor in-flight %d, %d \
                 workers)@."
                s.Serve.Wire.sessions s.active_requests s.executor_in_flight
                s.pool_workers;
              Fmt.pr "plan cache: %d plans, %d hits, %d misses@."
                s.plan_cache_size s.plan_cache_hits s.plan_cache_misses;
              Fmt.pr "served: %d (%d shed, %d throttled, %d rejected)@."
                s.requests_served s.shed s.throttled s.rejected;
              Fmt.pr "uptime: %.1fs@." s.uptime_s))
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Print the server's counters.")
      Term.(const run $ socket_arg $ port_arg $ host_arg $ timeout_arg $ retries_arg)
  in
  let prepare =
    let run socket port host timeout retries iname query =
      wrap (fun () ->
          with_client socket port host timeout retries (fun c ->
              let p = Serve.Resilient.prepare c ~instance:iname ~query in
              Fmt.pr "plan %d (%d atoms)%s@." p.Serve.Client.id p.atoms
                (if p.cached then " [cached]" else "")))
    in
    Cmd.v
      (Cmd.info "prepare"
         ~doc:"Compile a query into the server's plan cache.")
      Term.(
        const run $ socket_arg $ port_arg $ host_arg $ timeout_arg
        $ retries_arg $ iname_arg $ query_arg)
  in
  let exec =
    let plan_id_arg =
      let doc = "Execute a previously prepared plan instead of query text." in
      Arg.(value & opt (some int) None & info [ "plan" ] ~docv:"ID" ~doc)
    in
    let run socket port host timeout retries iname mode p plan_id query =
      wrap (fun () ->
          with_client socket port host timeout retries (fun c ->
              let plan : Serve.Wire.plan_ref =
                match plan_id, query with
                | Some id, None -> Id id
                | None, Some q -> Adhoc q
                | _ -> invalid_arg "give either QUERY or --plan=ID"
              in
              let result, stats =
                Serve.Resilient.execute c ~instance:iname
                  ~mode:(parse_mode mode p) plan
              in
              Fmt.pr "%a@." Relational.Instance.pp result;
              Fmt.pr "(%d facts)@." (Relational.Instance.cardinal result);
              Option.iter (fun s -> Fmt.pr "stats: %a@." Mpc.Stats.pp s) stats))
    in
    let query_opt_arg =
      let doc = "The query text (or use --plan=ID)." in
      Arg.(value & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)
    in
    Cmd.v
      (Cmd.info "exec" ~doc:"Execute a query (ad hoc or prepared).")
      Term.(
        const run $ socket_arg $ port_arg $ host_arg $ timeout_arg
        $ retries_arg $ iname_arg $ mode_arg $ p_arg $ plan_id_arg
        $ query_opt_arg)
  in
  let ingest =
    let run socket port host timeout retries iname inline file =
      wrap (fun () ->
          with_client socket port host timeout retries (fun c ->
              let facts =
                Relational.Instance.facts (load_instance inline file)
              in
              let added = Serve.Resilient.ingest c ~instance:iname facts in
              Fmt.pr "%d new facts (of %d sent)@." added (List.length facts)))
    in
    Cmd.v
      (Cmd.info "ingest" ~doc:"Load facts into a served instance.")
      Term.(
        const run $ socket_arg $ port_arg $ host_arg $ timeout_arg
        $ retries_arg $ iname_arg $ instance_arg $ instance_file_arg)
  in
  let metrics =
    let run socket port host timeout retries =
      wrap (fun () ->
          with_client socket port host timeout retries (fun c ->
              print_string (Serve.Resilient.metrics c)))
    in
    Cmd.v
      (Cmd.info "metrics"
         ~doc:
           "Scrape the server's live metrics as OpenMetrics/Prometheus text.")
      Term.(const run $ socket_arg $ port_arg $ host_arg $ timeout_arg $ retries_arg)
  in
  let trace =
    let limit_arg =
      let doc = "Newest spans to fetch." in
      Arg.(value & opt int 64 & info [ "limit" ] ~docv:"N" ~doc)
    in
    let run socket port host timeout retries limit =
      wrap (fun () ->
          with_client socket port host timeout retries (fun c ->
              let spans = Serve.Resilient.trace_dump ~limit c in
              if spans = [] then
                Fmt.pr "no spans (is the server running --telemetry?)@."
              else
                List.iter
                  (fun (s : Serve.Wire.span_info) ->
                    Fmt.pr "%10.6fs %9.3fms  tid=%d  %s/%s@." s.sp_t
                      (s.sp_dur *. 1e3) s.sp_tid s.sp_cat s.sp_name)
                  spans))
    in
    Cmd.v
      (Cmd.info "trace"
         ~doc:"Fetch the server's most recent completed spans.")
      Term.(
        const run $ socket_arg $ port_arg $ host_arg $ timeout_arg
        $ retries_arg $ limit_arg)
  in
  let doc = "Talk to a running lamp serve instance." in
  Cmd.group (Cmd.info "client" ~doc)
    [ health; stats; prepare; exec; ingest; metrics; trace ]

(* ------------------------------------------------------------------ *)
(* chaos — the wire-fault proxy, standalone                             *)

(* PATH (any string with a '/'), bare PORT (loopback) or HOST:PORT. *)
let parse_sockaddr ~what s =
  if String.contains s '/' then Unix.ADDR_UNIX s
  else
    match int_of_string_opt s with
    | Some port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
    | None -> (
      match String.rindex_opt s ':' with
      | None ->
        invalid_arg (Fmt.str "%s: expected PATH, PORT or HOST:PORT" what)
      | Some i ->
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        (match int_of_string_opt port with
        | None -> invalid_arg (Fmt.str "%s: bad port %S" what port)
        | Some port ->
          let addr =
            try Unix.inet_addr_of_string host
            with Failure _ -> (
              try (Unix.gethostbyname host).h_addr_list.(0)
              with Not_found ->
                invalid_arg (Fmt.str "%s: unknown host %S" what host))
          in
          Unix.ADDR_INET (addr, port)))

let sockaddr_str = function
  | Unix.ADDR_UNIX path -> path
  | Unix.ADDR_INET (addr, port) ->
    Fmt.str "%s:%d" (Unix.string_of_inet_addr addr) port

let chaos_cmd =
  let listen_arg =
    let doc =
      "Address clients connect to: a Unix-socket PATH, a bare PORT \
       (loopback) or HOST:PORT. Port 0 binds an OS-picked port, printed \
       at startup."
    in
    Arg.(
      required
      & opt (some string) None
      & info [ "listen" ] ~docv:"ADDR" ~doc)
  in
  let upstream_arg =
    let doc = "The real server's address (same forms as --listen)." in
    Arg.(
      required
      & opt (some string) None
      & info [ "upstream" ] ~docv:"ADDR" ~doc)
  in
  let net_faults_arg =
    let doc =
      "The fault plan: comma-separated key=value fields among $(b,refuse), \
       $(b,delay), $(b,reset), $(b,truncate), $(b,stall), $(b,trickle), \
       $(b,flip) (probabilities), $(b,delay_s), $(b,stall_s) (seconds) and \
       $(b,window)=BYTES; or the presets $(b,none) and $(b,chaos). Every \
       decision is a pure function of (seed, connection, direction), so a \
       run replays bit-identically under the same seed."
    in
    Arg.(value & opt string "chaos" & info [ "net-faults" ] ~docv:"SPEC" ~doc)
  in
  let net_seed_arg =
    let doc = "Seed of the fault plan." in
    Arg.(value & opt int 1 & info [ "net-seed" ] ~docv:"N" ~doc)
  in
  let run listen upstream faults seed =
    wrap (fun () ->
        let plan = Faults.Net.of_string ~seed faults in
        if Faults.Net.is_none plan then
          Fmt.epr "note: plan is 'none' — relaying transparently@.";
        let listen = parse_sockaddr ~what:"--listen" listen in
        let upstream = parse_sockaddr ~what:"--upstream" upstream in
        let proxy = Faults.Net.Proxy.start ~plan ~listen ~upstream () in
        Fmt.pr "chaos proxy: %a@." Faults.Net.pp plan;
        Fmt.pr "relaying %s -> %s; ^C stops@."
          (sockaddr_str (Faults.Net.Proxy.addr proxy))
          (sockaddr_str upstream);
        (* The handler only flips a flag: Proxy.stop joins threads and
           must not run inside a signal handler. *)
        let stop = Atomic.make false in
        let request_stop _ = Atomic.set stop true in
        ignore (Sys.signal Sys.sigint (Sys.Signal_handle request_stop));
        ignore (Sys.signal Sys.sigterm (Sys.Signal_handle request_stop));
        while not (Atomic.get stop) do
          Thread.delay 0.2
        done;
        Fmt.pr "stopping...@.";
        let conns = Faults.Net.Proxy.connections proxy in
        let injected = Faults.Net.Proxy.injected proxy in
        Faults.Net.Proxy.stop proxy;
        (match listen with
        | Unix.ADDR_UNIX path -> (
          try Unix.unlink path with Unix.Unix_error _ -> ())
        | _ -> ());
        Fmt.pr "%d connections relayed@." conns;
        if injected = [] then Fmt.pr "no faults injected@."
        else
          List.iter
            (fun (kind, n) -> Fmt.pr "  %-9s %d@." kind n)
            injected)
  in
  let doc =
    "Interpose a deterministic hostile network between a client and a \
     running $(b,lamp serve): seeded connection refusals, resets, \
     truncations, stalls, slow-loris trickle and byte flips, without \
     touching either end."
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      const run $ listen_arg $ upstream_arg $ net_faults_arg $ net_seed_arg)

(* ------------------------------------------------------------------ *)
(* top — live view over the metrics op                                 *)

(* Successive scrapes, rendered Prometheus-style: rates and quantiles
   come from the delta between the two newest scrapes, exactly what a
   rate()/histogram_quantile() pair computes — the server only ever
   ships cumulative counters. *)

let top_find samples name =
  List.find_map
    (fun (n, _, v) -> if String.equal n name then Some v else None)
    samples

let top_value samples name = Option.value ~default:0.0 (top_find samples name)

let top_cmd =
  let interval_arg =
    let doc = "Seconds between refreshes." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let count_arg =
    let doc = "Refreshes before exiting (0 = until interrupted)." in
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N" ~doc)
  in
  let render ~clear ~dt ~newer ~older (s : Serve.Wire.server_stats) =
    if clear then print_string "\027[H\027[2J";
    let rate name =
      (top_value newer name -. top_value older name) /. dt
    in
    let q name p = Obs.Export.window_quantile ~newer ~older name p in
    let pq v = if Float.is_nan v then "-" else Fmt.str "%.0f" v in
    Fmt.pr "lamp top — uptime %.0fs, %d sessions, %d active, %d in-flight@."
      s.uptime_s s.sessions s.active_requests s.executor_in_flight;
    Fmt.pr
      "  qps      %8.1f   shed/s %6.2f   throttled/s %6.2f   rejected/s %6.2f@."
      (rate "lamp_serve_requests_total")
      (rate "lamp_serve_shed_total")
      (rate "lamp_serve_throttled_total")
      (rate "lamp_serve_rejected_total");
    let lookups = s.plan_cache_hits + s.plan_cache_misses in
    Fmt.pr "  plans    %8d   cache hit rate %s@."
      s.plan_cache_size
      (if lookups = 0 then "-"
       else Fmt.str "%5.1f%%" (100.0 *. float_of_int s.plan_cache_hits /. float_of_int lookups));
    let h name label =
      Fmt.pr "  %s  p50 %6sµs  p95 %6sµs  p99 %6sµs@." label
        (pq (q name 0.5)) (pq (q name 0.95)) (pq (q name 0.99))
    in
    h "lamp_serve_queue_wait_us" "queue wait";
    h "lamp_serve_request_us" "service   ";
    (* Current skew report, if the server sketches. *)
    (match top_find newer "lamp_skew_round" with
    | None -> ()
    | Some round ->
      Fmt.pr
        "  skew [%s round %.0f]  est max load %.0f  threshold %.0f  (±%.0f)@."
        (Option.value ~default:"?"
           (List.find_map
              (fun (n, labels, _) ->
                if String.equal n "lamp_skew_top" then
                  List.assoc_opt "ctx" labels
                else None)
              newer))
        round
        (top_value newer "lamp_skew_est_max_load")
        (top_value newer "lamp_skew_threshold")
        (top_value newer "lamp_skew_error_bound");
      List.filter_map
        (fun (n, labels, v) ->
          if String.equal n "lamp_skew_top" then
            Option.map
              (fun r -> (int_of_string r, List.assoc_opt "key" labels, v))
              (List.assoc_opt "rank" labels)
          else None)
        newer
      |> List.sort compare
      |> List.iter (fun (rank, key, est) ->
             Fmt.pr "    #%d %-16s ~%.0f@." rank
               (Option.value ~default:"?" key)
               est))
  in
  let run socket port host timeout retries interval count =
    wrap (fun () ->
        if interval <= 0.0 then invalid_arg "--interval must be positive";
        with_client socket port host timeout retries (fun c ->
            let stop = Atomic.make false in
            ignore
              (Sys.signal Sys.sigint
                 (Sys.Signal_handle (fun _ -> Atomic.set stop true)));
            let prev = ref [] in
            let prev_t = ref nan in
            let i = ref 0 in
            while
              (count = 0 || !i < count) && not (Atomic.get stop)
            do
              incr i;
              let t = Unix.gettimeofday () in
              let samples =
                Obs.Export.parse_openmetrics (Serve.Resilient.metrics c)
              in
              let s = Serve.Resilient.stats c in
              (* First scrape has no window yet: rate over the uptime
                 (the lifetime average) rather than nothing. *)
              let dt =
                if Float.is_nan !prev_t then Float.max s.uptime_s interval
                else Float.max (t -. !prev_t) 1e-9
              in
              render ~clear:(count <> 1) ~dt ~newer:samples ~older:!prev s;
              prev := samples;
              prev_t := t;
              if count = 0 || !i < count then Thread.delay interval
            done))
  in
  let doc =
    "Live telemetry view of a running server: qps, queue-wait and latency \
     percentiles over the refresh window, cache and pool state, and the \
     current skew report. Scrapes the $(b,metrics) wire op; the server \
     should run with $(b,--telemetry)."
  in
  Cmd.v (Cmd.info "top" ~doc)
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ timeout_arg
      $ retries_arg $ interval_arg $ count_arg)

(* ------------------------------------------------------------------ *)
(* fsck                                                                *)

let fsck_cmd =
  let dir_arg =
    let doc =
      "Checkpoint directory to scan (the --checkpoint=DIR of the runs)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let repair_arg =
    let doc =
      "Repair what can be repaired: sweep stale tmp litter, promote a good \
       previous generation over a damaged slot, prune a damaged previous \
       generation behind a good slot. A slot with no good generation at all \
       is only flagged — fsck never deletes the last copy of anything."
    in
    Arg.(value & flag & info [ "repair" ] ~doc)
  in
  let run dir repair =
    wrap (fun () ->
        if not (Sys.file_exists dir && Sys.is_directory dir) then
          invalid_arg (Fmt.str "no such directory %S" dir);
        let reports = Jobs.Store.fsck ~repair dir in
        if reports = [] then Fmt.pr "%s: no checkpoint files@." dir
        else
          List.iter (fun r -> Fmt.pr "%a@." Jobs.Store.pp_report r) reports;
        if not (Jobs.Store.healthy reports) then
          failwith
            (if repair then "unrepairable damage remains"
             else "damaged checkpoint files found (rerun with --repair)"))
  in
  let doc =
    "Scan a checkpoint directory: verify every slot's header, checksum, \
     generation and job identity, report per-file verdicts (and stale tmp \
     litter), optionally $(b,--repair). Exits non-zero while any damage is \
     unrepaired."
  in
  Cmd.v (Cmd.info "fsck" ~doc) Term.(const run $ dir_arg $ repair_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc =
    "logical aspects of massively parallel and distributed systems (PODS'16 \
     reproduction)"
  in
  Cmd.group
    (Cmd.info "lamp" ~version:"1.0.0" ~doc)
    [
      eval_cmd;
      pc_cmd;
      transfer_cmd;
      hypercube_cmd;
      gym_cmd;
      kst_cmd;
      triangle_cmd;
      fsck_cmd;
      calm_cmd;
      analyze_cmd;
      datalog_cmd;
      classify_cmd;
      serve_cmd;
      client_cmd;
      chaos_cmd;
      top_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
