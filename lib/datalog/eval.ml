open Lamp_relational
open Lamp_cq
module Sset = Set.Make (String)
module Trace = Lamp_obs.Trace

let cnt_iterations = Trace.counter "datalog.iterations"
let delta_hist = Trace.histogram "datalog.delta"

(* Per-iteration instrumentation: delta size as both a sampled series
   (plots as a curve in the trace viewer — the shrinking frontier of a
   converging fixpoint) and a histogram. Read-only on [fresh]; guarded
   so the disabled path never computes [List.length]. *)
let note_iteration ~iteration fresh =
  if Trace.is_enabled () then begin
    let n = List.length fresh in
    Trace.incr cnt_iterations;
    Trace.observe delta_hist n;
    Trace.instant ~cat:"datalog"
      ~args:[ ("iteration", Trace.Int iteration); ("delta", Trace.Int n) ]
      "datalog.iteration";
    Trace.sample ~cat:"datalog" "datalog.delta" (float_of_int n)
  end

let delta_prefix = "\003delta_"

let materialize_adom instance =
  Value.Set.fold
    (fun v acc -> Instance.add (Fact.of_list "ADom" [ v ]) acc)
    (Instance.adom instance)
    instance

(* Semi-naive rule variants: for every occurrence of a recursive
   predicate in a rule's positive body, a copy of the rule where that
   occurrence reads only the last iteration's delta, materialized under
   a reserved relation name. *)
let recursive_heads rules =
  List.fold_left
    (fun acc r -> Sset.add (Ast.head r).Ast.rel acc)
    Sset.empty rules

let variants recursive r =
  let body = Ast.body r in
  List.concat
    (List.mapi
       (fun i (a : Ast.atom) ->
         if not (Sset.mem a.Ast.rel recursive) then []
         else
           [
             Ast.make ~negated:(Ast.negated r) ~diseq:(Ast.diseq r)
               ~head:(Ast.head r)
               ~body:
                 (List.mapi
                    (fun j (b : Ast.atom) ->
                      if i = j then
                        Ast.atom (delta_prefix ^ b.Ast.rel) b.Ast.terms
                      else b)
                    body)
               ();
           ])
       body)

(* ------------------------------------------------------------------ *)
(* Incremental engine                                                  *)

(* Both strategies run every stratum over ONE interned Plan.Db that
   lives for the whole evaluation: each round's derivations are
   appended (with O(1) duplicate detection), and the per-column hash
   indexes extend over the appended delta instead of being recreated
   per rule per iteration. *)

(* Evaluate each rule with a plan compiled against current relation
   counts, adding each derivation to [db] the moment it is found: only
   the genuinely new (relation, tuple) pairs are retained, so a round
   that re-derives millions of duplicates allocates nothing per
   duplicate beyond the head tuple itself. In-round visibility of fresh
   facts is sound here — strata are monotone and negated atoms read
   only completed lower strata — and cannot change the least model. *)
let derive_fresh db rules =
  List.fold_left
    (fun acc r ->
      let plan = Plan.make ~counts:(Plan.Db.count db) r in
      let rel = Plan.head_rel plan in
      List.fold_left
        (fun acc tup -> (rel, tup) :: acc)
        acc (Plan.derive plan db))
    [] rules

let set_deltas db rec_rels fresh =
  let by_rel = Hashtbl.create 8 in
  List.iter
    (fun (rel, tup) ->
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_rel rel) in
      Hashtbl.replace by_rel rel (tup :: prev))
    fresh;
  List.iter
    (fun rel ->
      Plan.Db.replace db ~rel:(delta_prefix ^ rel)
        (Option.value ~default:[] (Hashtbl.find_opt by_rel rel)))
    rec_rels

type strategy =
  | Naive
  | Seminaive

let strategy_name = function Naive -> "naive" | Seminaive -> "seminaive"

(* One step = one fixpoint iteration of the current stratum (the unit
   between which the engine's state is fully captured by the database:
   the semi-naive deltas live in reserved relations inside it, so a
   checkpoint needs nothing else beyond the two cursors). Each stratum
   is one [datalog.stratum] span, from its first step to the step that
   finds it converged. *)
let script ~strategy ~layers ~db =
  let module Codec = Lamp_jobs.Codec in
  let layers = Array.of_list layers in
  let rec_rels = Array.map (fun rules -> Sset.elements (recursive_heads rules)) layers in
  let deltas =
    Array.map
      (fun rules -> List.concat_map (variants (recursive_heads rules)) rules)
      layers
  in
  let stratum = ref 0 in
  let iter = ref 0 in
  let t0 = ref (Trace.now ()) in
  let step _k =
    if !stratum >= Array.length layers then `Done
    else begin
      let s = !stratum in
      if !iter = 0 then t0 := Trace.now ();
      let fresh =
        match strategy with
        | Naive -> derive_fresh !db layers.(s)
        | Seminaive ->
          (* First iteration: full evaluation; then delta-driven. *)
          derive_fresh !db (if !iter = 0 then layers.(s) else deltas.(s))
      in
      match fresh with
      | [] ->
        (* Stratum converged: the reserved delta relations never leak
           into the next stratum or the result. *)
        if strategy = Seminaive then
          List.iter
            (fun rel -> Plan.Db.replace !db ~rel:(delta_prefix ^ rel) [])
            rec_rels.(s);
        Trace.emit_span ~cat:"datalog"
          ~args:
            [ ("stratum", Trace.Int s); ("rules", Trace.Int (List.length layers.(s))) ]
          ~name:"datalog.stratum" ~t0:!t0 ~dur:(Trace.now () -. !t0) ();
        stratum := s + 1;
        iter := 0;
        if !stratum >= Array.length layers then `Done else `Continue
      | _ :: _ ->
        note_iteration ~iteration:(!iter + 1) fresh;
        if strategy = Seminaive then set_deltas !db rec_rels.(s) fresh;
        iter := !iter + 1;
        `Continue
    end
  in
  Lamp_jobs.Supervisor.inline_script ~step
    ~snapshot:(fun () ->
      let w = Codec.writer () in
      Codec.w_int w !stratum;
      Codec.w_int w !iter;
      Codec.w_instance w (Plan.Db.to_instance ~keep:(fun _ -> true) !db);
      Codec.contents w)
    ~restore:(fun ~round:_ payload ->
      let r = Codec.reader payload in
      stratum := Codec.r_int r;
      iter := Codec.r_int r;
      db := Plan.Db.of_instance (Codec.r_instance r);
      Codec.r_end r;
      t0 := Trace.now ())

let run ?(strategy = Seminaive) ?job program instance =
  let module Supervisor = Lamp_jobs.Supervisor in
  let db0 =
    if Program.uses_adom program then materialize_adom instance else instance
  in
  let layers = Stratify.layers program in
  let db = ref (Plan.Db.of_instance db0) in
  let script = script ~strategy ~layers ~db in
  (match job with
  | None -> Supervisor.run_inline script
  | Some job ->
    job.Supervisor.fingerprint <-
      Fmt.str "datalog-%s/%d-strata" (strategy_name strategy)
        (List.length layers);
    Supervisor.run job script);
  Plan.Db.to_instance
    ~keep:(fun rel -> not (String.starts_with ~prefix:delta_prefix rel))
    !db

let query ?strategy ?job program ~output instance =
  let db = run ?strategy ?job program instance in
  Instance.filter (fun f -> Fact.rel f = output) db
