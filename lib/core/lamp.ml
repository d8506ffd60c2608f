(** LAMP — Logical Aspects of Massively Parallel and distributed
    systems.

    Umbrella module re-exporting every subsystem of the reproduction of
    Neven, PODS 2016. The layering mirrors the paper:

    - {!Obs}: tracing, counters and exporters — the observability layer
      everything else reports into (zero-cost when disabled);
    - {!Faults}: seeded deterministic fault plans — crash-stop, message
      drop/duplication/reordering, stragglers and their speculation
      verdict, transient task faults — injected into the simulators
      below (zero-cost when off);
    - {!Jobs}: durable checkpoints and round-indexed job supervision —
      the kill/resume and survivor-rebalancing layer every multi-round
      algorithm runs under;
    - {!Runtime}: the multicore execution engine — domain pool,
      work-stealing deques, the executor the simulators run on;
    - {!Relational}: facts, instances, active domains (Section 2);
    - {!Lp}: the simplex solver behind fractional edge packings;
    - {!Cq}: conjunctive queries, binary and worst-case optimal
      evaluation, minimal valuations, containment, hypergraphs
      (Sections 2 and 4);
    - {!Distribution}: distribution policies, the seeded routing hash
      every MPC route uses, and one-round distributed evaluation
      (Section 4.1);
    - {!Correctness}: parallel-correctness and transfer (Section 4);
    - {!Mpc}: the MPC simulator and its algorithms — repartition and
      grid joins, Shares/HyperCube, multi-round plans, Yannakakis/GYM
      (Section 3);
    - {!Serve}: the networked query service — wire protocol, resource
      pooling, prepared-plan cache, admission control — serving the CQ
      and MPC engines to concurrent clients;
    - {!Mapreduce}: the MapReduce formalization and its MPC translation
      (Section 3);
    - {!Datalog}: stratified and well-founded Datalog, connectivity,
      monotonicity classes (Section 5.3);
    - {!Transducer}: relational transducer networks and the CALM
      hierarchy (Sections 5.1–5.2). *)

module Obs = struct
  module Trace = Lamp_obs.Trace
  module Metrics = Lamp_obs.Metrics
  module Sketch = Lamp_obs.Sketch
  module Export = Lamp_obs.Export
end

module Faults = struct
  module Plan = Lamp_faults.Plan
  module Net = Lamp_faults.Net
  module Disk = Lamp_faults.Disk
end

module Jobs = struct
  module Codec = Lamp_jobs.Codec
  module Io = Lamp_jobs.Io
  module Store = Lamp_jobs.Store
  module Supervisor = Lamp_jobs.Supervisor
end

module Runtime = struct
  module Deque = Lamp_runtime.Deque
  module Pool = Lamp_runtime.Pool
  module Executor = Lamp_runtime.Executor
end

module Relational = struct
  module Value = Lamp_relational.Value
  module Intern = Lamp_relational.Intern
  module Tuple = Lamp_relational.Tuple
  module Fact = Lamp_relational.Fact
  module Schema = Lamp_relational.Schema
  module Instance = Lamp_relational.Instance
  module Adom = Lamp_relational.Adom
  module Generate = Lamp_relational.Generate
end

module Lp = struct
  module Simplex = Lamp_lp.Simplex
  module Packing = Lamp_lp.Packing
end

module Cq = struct
  module Ast = Lamp_cq.Ast
  module Parser = Lamp_cq.Parser
  module Valuation = Lamp_cq.Valuation
  module Plan = Lamp_cq.Plan
  module Index = Lamp_cq.Index
  module Eval = Lamp_cq.Eval
  module Wcoj = Lamp_cq.Wcoj
  module Minimal = Lamp_cq.Minimal
  module Containment = Lamp_cq.Containment
  module Hypergraph = Lamp_cq.Hypergraph
  module Decomposition = Lamp_cq.Decomposition
  module Scale = Lamp_cq.Scale
  module Examples = Lamp_cq.Examples
end

module Distribution = struct
  module Node = Lamp_distribution.Node
  module Grid = Lamp_distribution.Grid
  module Policy = Lamp_distribution.Policy
  module Distributed = Lamp_distribution.Distributed
end

module Correctness = struct
  module Saturation = Lamp_correctness.Saturation
  module Parallel_correctness = Lamp_correctness.Parallel_correctness
  module Transfer = Lamp_correctness.Transfer
  module Negation = Lamp_correctness.Negation
end

module Mpc = struct
  module Stats = Lamp_mpc.Stats
  module Cluster = Lamp_mpc.Cluster
  module Skew = Lamp_mpc.Skew
  module Repartition_join = Lamp_mpc.Repartition_join
  module Grid_join = Lamp_mpc.Grid_join
  module Shares = Lamp_mpc.Shares
  module Hypercube = Lamp_mpc.Hypercube
  module Multi_round = Lamp_mpc.Multi_round
  module Kst = Lamp_mpc.Kst
  module Yannakakis = Lamp_mpc.Yannakakis
  module Gym_ghd = Lamp_mpc.Gym_ghd
  module Workload = Lamp_mpc.Workload
end

module Serve = struct
  module Wire = Lamp_serve.Wire
  module Quota = Lamp_serve.Quota
  module Cache = Lamp_serve.Cache
  module Dedup = Lamp_serve.Dedup
  module Server = Lamp_serve.Server
  module Client = Lamp_serve.Client
  module Resilient = Lamp_serve.Resilient
end

module Mapreduce = struct
  module Job = Lamp_mapreduce.Job
  module Jobs = Lamp_mapreduce.Jobs
  module Recursive = Lamp_mapreduce.Recursive
end

module Ra = struct
  module Relation = Lamp_ra.Relation
  module Algebra = Lamp_ra.Algebra
  module To_mapreduce = Lamp_ra.To_mapreduce
end

module Datalog = struct
  module Program = Lamp_datalog.Program
  module Stratify = Lamp_datalog.Stratify
  module Eval = Lamp_datalog.Eval
  module Wellfounded = Lamp_datalog.Wellfounded
  module Connectivity = Lamp_datalog.Connectivity
  module Classify = Lamp_datalog.Classify
  module Invention = Lamp_datalog.Invention
  module Canned = Lamp_datalog.Canned
end

module Transducer = struct
  module Program = Lamp_transducer.Program
  module Network = Lamp_transducer.Network
  module Scheduler = Lamp_transducer.Scheduler
  module Programs = Lamp_transducer.Programs
  module Horizontal = Lamp_transducer.Horizontal
  module Calm = Lamp_transducer.Calm
end
