let q1_join = Parser.query "H(x,y,z) <- R(x,y), S(y,z)"

let q2_triangle = Parser.query "H(x,y,z) <- R(x,y), S(y,z), T(z,x)"

let qe_example_4_1 = Parser.query "H(x1,x3) <- R(x1,x2), R(x2,x3), S(x3,x1)"

let q_example_4_3 = Parser.query "H(x,z) <- R(x,y), R(y,z), R(x,x)"

let q1_example_4_11 = Parser.query "H() <- S(x), R(x,x), T(x)"
let q2_example_4_11 = Parser.query "H() <- R(x,x), T(x)"
let q3_example_4_11 = Parser.query "H() <- S(x), R(x,y), T(y)"
let q4_example_4_11 = Parser.query "H() <- R(x,y), T(y)"

let triangles_distinct =
  Parser.query
    "H(x,y,z) <- E(x,y), E(y,z), E(z,x), x != y, y != z, z != x"

let open_triangle = Parser.query "H(x,y,z) <- E(x,y), E(y,z), !E(z,x)"

let full_triangle_e = Parser.query "H(x,y,z) <- E(x,y), E(y,z), E(z,x)"

let q_four_cycle =
  Parser.query "H(x,y,z,w) <- R(x,y), S(y,z), T(z,w), U(w,x)"

(* k-clique over one binary relation per edge: atoms Eij(xi, xj) for
   1 <= i < j <= k. Distinct relation names keep the query self-join
   free, so every MPC entry point (HyperCube shares, KST heavy/light
   decomposition) applies directly; populate each Eij with the same
   edge set to count the cliques of a single graph (see
   [Mpc.Workload.clique_from_pairs]). *)
let q_clique k =
  if k < 2 then invalid_arg "Examples.q_clique: k must be >= 2";
  let var i = Fmt.str "x%d" i in
  let head = Fmt.str "H(%s)" (String.concat "," (List.init k (fun i -> var (i + 1)))) in
  let atoms = ref [] in
  for i = 1 to k do
    for j = i + 1 to k do
      atoms := Fmt.str "E%d%d(%s,%s)" i j (var i) (var j) :: !atoms
    done
  done;
  Parser.query (head ^ " <- " ^ String.concat ", " (List.rev !atoms))

let clique_rels k =
  let rels = ref [] in
  for i = 1 to k do
    for j = i + 1 to k do
      rels := Fmt.str "E%d%d" i j :: !rels
    done
  done;
  List.rev !rels
