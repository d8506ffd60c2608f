open Lamp_relational
open Lamp_cq
open Lamp_distribution

type instance_verdict = {
  missing : Instance.t;
  extra : Instance.t;
}

let on_instance q policy i =
  let expected = Eval.eval q i in
  let actual = Distributed.eval q policy i in
  if Instance.equal expected actual then Ok ()
  else
    Error
      {
        missing = Instance.diff expected actual;
        extra = Instance.diff actual expected;
      }

let decide q policy =
  if Ast.has_negation q then
    invalid_arg
      "Parallel_correctness.decide: CQ¬ requires both soundness and \
       completeness; use the Negation module"
  else Saturation.saturates policy q

(* Minimal valuations for a UCQ (footnote to Theorem 4.8 / [33]): a
   valuation V for a disjunct Q_i is minimal for the union when no
   valuation V' for any disjunct derives the same head fact from a
   strict subset of V's required facts. *)
let ucq_minimal_images qs ~universe =
  let module Image = struct
    type t = Fact.t * Instance.t

    let compare (h1, b1) (h2, b2) =
      let c = Fact.compare h1 h2 in
      if c <> 0 then c else Instance.compare b1 b2
  end in
  let module Iset = Set.Make (Image) in
  let candidates = ref Iset.empty in
  List.iter
    (fun q ->
      Valuation.enumerate ~vars:(Ast.vars q) ~universe (fun v ->
          if Valuation.satisfies_diseq v q then
            candidates :=
              Iset.add (Valuation.head_fact v q, Valuation.body_facts v q)
                !candidates))
    qs;
  let dominated (head, required) =
    (* Some disjunct derives [head] on [required] from strictly fewer
       facts. *)
    List.exists
      (fun q ->
        Eval.fold_valuations q required
          (fun v acc ->
            acc
            || Fact.equal (Valuation.head_fact v q) head
               &&
               let req' = Valuation.body_facts v q in
               Instance.subset req' required
               && not (Instance.equal req' required))
          false)
      qs
  in
  Iset.elements (Iset.filter (fun img -> not (dominated img)) !candidates)

let ucq_decide qs policy =
  List.iter
    (fun q ->
      if Ast.has_negation q then
        invalid_arg "Parallel_correctness.ucq_decide: use Negation for UCQ¬")
    qs;
  let universe =
    match Policy.universe policy with
    | Some u -> Value.Set.elements u
    | None ->
      invalid_arg "Parallel_correctness.ucq_decide: policy without universe"
  in
  let images = ucq_minimal_images qs ~universe in
  let meets required =
    List.exists
      (fun node ->
        Instance.subset required (Policy.loc_inst policy required node))
      (Policy.nodes policy)
  in
  let rec go = function
    | [] -> Ok ()
    | (head, required) :: rest ->
      if meets required then go rest
      else Error { Saturation.head; required }
  in
  go images

(* Brute-force oracle: enumerate all instances over the policy universe
   and the query's body schema, checking PCI on each. Exponential — used
   to cross-validate [decide] in tests and to exhibit counterexample
   instances. *)
let decide_by_search ?(max_facts = 16) q policy =
  let universe =
    match Policy.universe policy with
    | Some u -> Value.Set.elements u
    | None ->
      invalid_arg "Parallel_correctness.decide_by_search: policy without universe"
  in
  let schema = Ast.body_schema q in
  let rec tuples arity =
    if arity = 0 then [ [] ]
    else
      let rest = tuples (arity - 1) in
      List.concat_map (fun v -> List.map (fun t -> v :: t) rest) universe
  in
  let all_facts =
    List.concat_map
      (fun (rel, arity) -> List.map (Fact.of_list rel) (tuples arity))
      (Schema.to_list schema)
    |> Array.of_list
  in
  let n = Array.length all_facts in
  if n > max_facts then
    invalid_arg
      (Fmt.str "Parallel_correctness.decide_by_search: %d facts > %d" n
         max_facts);
  let rec search mask =
    if mask >= 1 lsl n then Ok ()
    else begin
      let i =
        let rec go k acc =
          if k >= n then acc
          else if mask land (1 lsl k) <> 0 then
            go (k + 1) (Instance.add all_facts.(k) acc)
          else go (k + 1) acc
        in
        go 0 Instance.empty
      in
      match on_instance q policy i with
      | Ok () -> search (mask + 1)
      | Error _ -> Error i
    end
  in
  search 0
