open Lamp_relational
module Trace = Lamp_obs.Trace

(* Profiling counters (lamp.obs): all increments either go through
   [Trace.incr] (a single gated atomic) on cold paths, or are guarded
   by a [Trace.is_enabled] flag hoisted out of the loop on hot ones —
   evaluation with tracing off runs the exact same instruction stream
   as before the counters existed. *)
let cnt_probes = Trace.counter "cq.probes"
let cnt_probe_misses = Trace.counter "cq.probe_misses"
let cnt_scans = Trace.counter "cq.scans"
let cnt_index_builds = Trace.counter "cq.index_builds"
let cnt_index_extends = Trace.counter "cq.index_extends"
let cnt_dedup_fresh = Trace.counter "cq.dedup_fresh"
let cnt_dedup_hits = Trace.counter "cq.dedup_hits"

let () =
  let module M = Lamp_obs.Metrics in
  M.describe ~kind:M.Counter ~help:"Index probes issued by join steps"
    "cq.probes";
  M.describe ~kind:M.Counter ~help:"Index probes that found no bucket"
    "cq.probe_misses";
  M.describe ~kind:M.Counter ~help:"Full-relation scans (no usable index)"
    "cq.scans";
  M.describe ~kind:M.Counter ~help:"Column indexes built" "cq.index_builds";
  M.describe ~kind:M.Counter ~help:"Incremental index extensions"
    "cq.index_extends";
  M.describe ~kind:M.Counter ~help:"Output tuples seen for the first time"
    "cq.dedup_fresh";
  M.describe ~kind:M.Counter ~help:"Output tuples suppressed as duplicates"
    "cq.dedup_hits"

(* Compiled CQ plans over interned tuples.

   A query is compiled once: variables become integer slots, each body
   atom becomes a match program over [int array] tuples (interned value
   ids), and the probe position of every atom is fixed statically —
   the set of slots bound when an atom is reached is known at compile
   time, so the "first bound position" the backtracking evaluator picks
   at runtime is a compile-time constant. All equality tests in the
   inner join loop are integer comparisons. *)

(* ------------------------------------------------------------------ *)
(* Interned tuple store                                                *)

module Itup = struct
  type t = int array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec go i = i >= n || (a.(i) = b.(i) && go (i + 1)) in
    go 0

  (* FNV-1a with a final avalanche step: interned ids are small and
     dense, so a polynomial hash would collapse onto a narrow band and
     degenerate the [seen] buckets on large extents. *)
  let hash a =
    let h = ref 0x811c9dc5 in
    for i = 0 to Array.length a - 1 do
      h := (!h lxor a.(i)) * 0x01000193
    done;
    let h = !h in
    (h lxor (h lsr 17)) land max_int
end

module Htup = Hashtbl.Make (Itup)

(* Open-addressing set of (packed-tuple) ints, linear probing, -1 as
   the empty slot. One flat array, so a membership test — the single
   hottest operation of the Datalog fixpoint, run once per derivation —
   costs one random memory access, where a chained hash table costs two
   or three dependent ones. *)
module Iset = struct
  type t = {
    mutable slots : int array;
    mutable count : int;
    mutable mask : int;
  }

  let create () = { slots = Array.make 256 (-1); count = 0; mask = 255 }

  let ix t k =
    let h = (k lxor (k lsr 33)) * 0x9E3779B97F4A7C1 in
    (h lxor (h lsr 29)) land t.mask

  (* Index of [k], or [-(free slot) - 1] when absent. *)
  let rec probe t k i =
    let s = t.slots.(i) in
    if s = -1 then -i - 1
    else if s = k then i
    else probe t k ((i + 1) land t.mask)

  let mem t k = probe t k (ix t k) >= 0

  let grow t =
    let old = t.slots in
    t.mask <- (2 * (t.mask + 1)) - 1;
    t.slots <- Array.make (t.mask + 1) (-1);
    Array.iter
      (fun k -> if k <> -1 then t.slots.(-probe t k (ix t k) - 1) <- k)
      old

  let add t k =
    let i = probe t k (ix t k) in
    if i >= 0 then false
    else begin
      t.slots.(-i - 1) <- k;
      t.count <- t.count + 1;
      if 2 * t.count > t.mask then grow t;
      true
    end
end

module Db = struct
  (* Per-column secondary index. Built lazily on first probe, then
     extended incrementally: [upto] marks how many of the relation's
     tuples have been folded in, so appending a delta never rebuilds
     the index — the Datalog engine relies on this.

     Buckets are flat int arrays of [arity, v0, ..., v_{arity-1}]
     records — candidate tuples are copied in, so the evaluator's inner
     loop reads memory sequentially instead of chasing a list cell and
     a tuple pointer per candidate. *)
  type bucket = {
    mutable bdata : int array;
    mutable blen : int;
  }

  type col = {
    tbl : (int, bucket) Hashtbl.t;
    mutable upto : int;
  }

  let bucket_push b tup =
    let n = Array.length tup in
    let need = b.blen + n + 1 in
    if need > Array.length b.bdata then begin
      let bigger = Array.make (max 16 (2 * need)) 0 in
      Array.blit b.bdata 0 bigger 0 b.blen;
      b.bdata <- bigger
    end;
    b.bdata.(b.blen) <- n;
    Array.blit tup 0 b.bdata (b.blen + 1) n;
    b.blen <- need

  type store = {
    mutable tuples : int array array;
    mutable n : int;
    seen : unit Htup.t; (* tuples the packed key cannot represent *)
    seen_p : Iset.t; (* packed-key duplicates *)
    (* Arity-2 fast path: a dynamic bitset matrix [bs_rows.(v0)] over
       second components. A membership test on it touches ~32KB-scale
       structures that stay cache-resident where the general tables
       cannot — and it is the single hottest operation of a Datalog
       fixpoint. Capped by [bs_budget] total words: once exceeded,
       [bs_on] goes false, new pairs flow to [seen_p], and the rows
       already allocated stay valid for membership. *)
    mutable bs_rows : int array array;
    mutable bs_words : int;
    mutable bs_on : bool;
    (* [false] while the extent is known duplicate-free and nothing
       has queried membership: [of_instance] loads from a [Tuple.Set]
       without paying for any of the structures above, and a store
       that is only ever scanned or probed (an EDB relation, a
       one-shot join input) never builds them at all. The first
       [add]/[mem] replays the extent. *)
    mutable dedup : bool;
    mutable cols : col option array;
  }

  type t = { rels : (string, store) Hashtbl.t }

  let create () = { rels = Hashtbl.create 16 }

  (* 16M words = 128MB across one store, far beyond any dense extent
     the benchmarks touch; sparse id spaces trip it early and fall back
     to the open-addressing set. *)
  let bs_budget = 1 lsl 21

  (* Ids addressable by the bitset matrix: bounds both the rows array
     and a single row's word count. *)
  let bs_max_id = 1 lsl 25

  let fresh_store () =
    {
      tuples = Array.make 16 [||];
      n = 0;
      seen = Htup.create 16;
      seen_p = Iset.create ();
      bs_rows = [||];
      bs_words = 0;
      bs_on = true;
      dedup = true;
      cols = [||];
    }

  let store t rel =
    match Hashtbl.find_opt t.rels rel with
    | Some s -> s
    | None ->
      let s = fresh_store () in
      Hashtbl.add t.rels rel s;
      s

  let find_store t rel = Hashtbl.find_opt t.rels rel

  (* Short tuples of small ids — the overwhelmingly common case, since
     interned ids are dense — pack injectively into one tagged native
     int, so duplicate detection on the hot path is an int-keyed table
     lookup with no allocation. [-1] means not packable (the arity tag
     keeps, say, a packed pair and a packed triple distinct). *)
  let pack tup =
    match Array.length tup with
    | 1 ->
      let v = tup.(0) in
      if v < 0x400_0000_0000_0000 then (v lsl 2) lor 1 else -1
    | 2 ->
      let v0 = tup.(0) and v1 = tup.(1) in
      if v0 lor v1 < 0x2000_0000 then (((v0 lsl 29) lor v1) lsl 2) lor 2
      else -1
    | 3 ->
      let v0 = tup.(0) and v1 = tup.(1) and v2 = tup.(2) in
      if v0 lor v1 lor v2 < 0x8_0000 then
        (((((v0 lsl 19) lor v1) lsl 19) lor v2) lsl 2) lor 3
      else -1
    | _ -> -1

  let append s tup =
    if s.n = Array.length s.tuples then begin
      let bigger = Array.make (max 16 (2 * s.n)) [||] in
      Array.blit s.tuples 0 bigger 0 s.n;
      s.tuples <- bigger
    end;
    s.tuples.(s.n) <- tup;
    s.n <- s.n + 1

  (* Bit (v0, v1) already set in the matrix? 32 bits per word: OCaml
     ints are 63-bit, so a 64-bit packing would silently lose bit 63
     ([1 lsl 63] is 0) and un-record every pair with [v1 = 63 mod 64]. *)
  let bs_mem s v0 v1 =
    v0 < Array.length s.bs_rows
    &&
    let row = s.bs_rows.(v0) in
    let w = v1 lsr 5 in
    w < Array.length row && row.(w) land (1 lsl (v1 land 31)) <> 0

  (* Try to record (v0, v1) in the matrix: [true] when set (it was
     fresh), [false] when the budget ran out — the caller must fall
     back to the packed set. Never called when the bit is already
     set. *)
  let bs_set s v0 v1 =
    let rows_len = Array.length s.bs_rows in
    let ok_rows =
      v0 < rows_len
      ||
      let need = max 16 (2 * (v0 + 1)) in
      s.bs_words + need - rows_len <= bs_budget
      && begin
        let bigger = Array.make need [||] in
        Array.blit s.bs_rows 0 bigger 0 rows_len;
        s.bs_words <- s.bs_words + need - rows_len;
        s.bs_rows <- bigger;
        true
      end
    in
    ok_rows
    &&
    let row = s.bs_rows.(v0) in
    let row_len = Array.length row in
    let w = v1 lsr 5 in
    let ok_row =
      w < row_len
      ||
      let need = max 4 (2 * (w + 1)) in
      s.bs_words + need - row_len <= bs_budget
      && begin
        let bigger = Array.make need 0 in
        Array.blit row 0 bigger 0 row_len;
        s.bs_words <- s.bs_words + need - row_len;
        s.bs_rows.(v0) <- bigger;
        true
      end
    in
    ok_row
    && begin
      let row = s.bs_rows.(v0) in
      row.(w) <- row.(w) lor (1 lsl (v1 land 31));
      true
    end

  (* Record a (pre-checked absent) pair in the matrix if it is on and
     within budget, in the packed set otherwise. *)
  let record2 s v0 v1 =
    if not (s.bs_on && bs_set s v0 v1) then begin
      if s.bs_on then s.bs_on <- false;
      ignore (Iset.add s.seen_p ((((v0 lsl 29) lor v1) lsl 2) lor 2))
    end

  (* Record an extent tuple in the duplicate structures (no append). *)
  let record_store s tup =
    if Array.length tup = 2 && tup.(0) lor tup.(1) < bs_max_id then
      record2 s tup.(0) tup.(1)
    else
      let k = pack tup in
      if k >= 0 then ignore (Iset.add s.seen_p k)
      else Htup.replace s.seen tup ()

  let ensure_dedup s =
    if not s.dedup then begin
      s.dedup <- true;
      for i = 0 to s.n - 1 do
        record_store s s.tuples.(i)
      done
    end

  let mem_store s tup =
    ensure_dedup s;
    if Array.length tup = 2 then begin
      let v0 = tup.(0) and v1 = tup.(1) in
      if v0 lor v1 < bs_max_id then
        bs_mem s v0 v1
        || Iset.mem s.seen_p ((((v0 lsl 29) lor v1) lsl 2) lor 2)
      else
        let k = pack tup in
        if k >= 0 then Iset.mem s.seen_p k else Htup.mem s.seen tup
    end
    else
      let k = pack tup in
      if k >= 0 then Iset.mem s.seen_p k else Htup.mem s.seen tup

  let add_store s tup =
    ensure_dedup s;
    if Array.length tup = 2 && tup.(0) lor tup.(1) < bs_max_id then begin
      let v0 = tup.(0) and v1 = tup.(1) in
      if
        bs_mem s v0 v1
        || Iset.mem s.seen_p ((((v0 lsl 29) lor v1) lsl 2) lor 2)
      then false
      else begin
        record2 s v0 v1;
        append s tup;
        true
      end
    end
    else
      let k = pack tup in
      if k >= 0 then
        if not (Iset.add s.seen_p k) then false
        else begin
          append s tup;
          true
        end
      else if Htup.mem s.seen tup then false
      else begin
        Htup.add s.seen tup ();
        append s tup;
        true
      end

  (* As [add_store], but [buf] is a caller-owned scratch buffer: it is
     only copied when the tuple turns out to be fresh, so a derivation
     that is a duplicate — the common case near a fixpoint — costs one
     cache-resident bit test and zero allocations. *)
  let add_copy s buf =
    ensure_dedup s;
    if Array.length buf = 2 && buf.(0) lor buf.(1) < bs_max_id then begin
      let v0 = buf.(0) and v1 = buf.(1) in
      if
        bs_mem s v0 v1
        || Iset.mem s.seen_p ((((v0 lsl 29) lor v1) lsl 2) lor 2)
      then None
      else begin
        record2 s v0 v1;
        let tup = Array.copy buf in
        append s tup;
        Some tup
      end
    end
    else
      let k = pack buf in
      if k >= 0 then
        if not (Iset.add s.seen_p k) then None
        else begin
          let tup = Array.copy buf in
          append s tup;
          Some tup
        end
      else if Htup.mem s.seen buf then None
      else begin
        let tup = Array.copy buf in
        Htup.add s.seen tup ();
        append s tup;
        Some tup
      end

  let add t ~rel tup = add_store (store t rel) tup

  let mem t ~rel tup =
    match find_store t rel with
    | None -> false
    | Some s -> mem_store s tup

  let count t rel =
    match find_store t rel with
    | None -> 0
    | Some s -> s.n

  let col s pos =
    if pos >= Array.length s.cols then begin
      let bigger = Array.make (pos + 1) None in
      Array.blit s.cols 0 bigger 0 (Array.length s.cols);
      s.cols <- bigger
    end;
    let c =
      match s.cols.(pos) with
      | Some c ->
        if c.upto < s.n then Trace.incr cnt_index_extends;
        c
      | None ->
        Trace.incr cnt_index_builds;
        let c = { tbl = Hashtbl.create 64; upto = 0 } in
        s.cols.(pos) <- Some c;
        c
    in
    for i = c.upto to s.n - 1 do
      let tup = s.tuples.(i) in
      if pos < Array.length tup then begin
        let k = tup.(pos) in
        let b =
          match Hashtbl.find_opt c.tbl k with
          | Some b -> b
          | None ->
            let b = { bdata = [||]; blen = 0 } in
            Hashtbl.add c.tbl k b;
            b
        in
        bucket_push b tup
      end
    done;
    c.upto <- s.n;
    c

  (* The evaluator's probe: the raw bucket, iterated in place. *)
  let probe_bucket t ~rel ~pos ~key =
    match find_store t rel with
    | None -> None
    | Some s -> Hashtbl.find_opt (col s pos).tbl key

  let probe t ~rel ~pos ~key =
    match probe_bucket t ~rel ~pos ~key with
    | None -> []
    | Some b ->
      let out = ref [] in
      let i = ref 0 in
      while !i < b.blen do
        let n = b.bdata.(!i) in
        out := Array.sub b.bdata (!i + 1) n :: !out;
        i := !i + n + 1
      done;
      List.rev !out

  let fold_extent t rel f init =
    match find_store t rel with
    | None -> init
    | Some s ->
      let acc = ref init in
      for i = 0 to s.n - 1 do
        acc := f !acc s.tuples.(i)
      done;
      !acc

  let replace t ~rel tuples =
    let s = fresh_store () in
    Hashtbl.replace t.rels rel s;
    List.iter (fun tup -> ignore (add_store s tup)) tuples

  let extend t instance =
    List.iter
      (fun rel ->
        let s = store t rel in
        (* Set members are distinct and, by contract, absent from [t]:
           an empty store loads without duplicate structures ([dedup]
           false) and the first [add]/[mem] on it — if one ever comes —
           replays the extent into them. A store that already has them
           records each appended tuple there too. *)
        if s.n = 0 then s.dedup <- false;
        Tuple.Set.iter
          (fun tup ->
            let tup = Intern.tuple tup in
            if s.dedup then ignore (add_store s tup) else append s tup)
          (Instance.tuples instance rel))
      (Instance.relations instance)

  let of_instance instance =
    let t = create () in
    extend t instance;
    t

  (* Raw zero-copy handles for the leapfrog backend ({!Wcoj}): the
     store and its flat-bucket column indexes, resolved once per fold
     and then read in place — no per-probe list materialization, no
     second index structure. *)
  type raw_store = store
  type raw_col = col
  type raw_bucket = bucket

  let raw_store = store
  let raw_n (s : raw_store) = s.n
  let raw_tuple (s : raw_store) i = s.tuples.(i)
  let raw_col (s : raw_store) pos : raw_col = col s pos

  let raw_sync (s : raw_store) (c : raw_col) pos =
    if c.upto < s.n then ignore (col s pos)

  let raw_find (c : raw_col) key : raw_bucket option =
    Hashtbl.find_opt c.tbl key

  let raw_data (b : raw_bucket) = b.bdata
  let raw_len (b : raw_bucket) = b.blen

  let to_instance ?(keep = fun _ -> true) t =
    Hashtbl.fold
      (fun rel s acc ->
        if (not (keep rel)) || s.n = 0 then acc
        else begin
          let tups = ref [] in
          for i = s.n - 1 downto 0 do
            tups := Intern.untuple s.tuples.(i) :: !tups
          done;
          Instance.add_tuple_set rel (Tuple.Set.of_list !tups) acc
        end)
      t.rels Instance.empty
end

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

type probe_key =
  | Kconst of int
  | Kslot of int

type op =
  | Bind of int * int (* position, slot: first occurrence of a variable *)
  | Check of int * int (* position, slot: variable already bound *)
  | Konst of int * int (* position, constant id *)

type atom_plan = {
  rel : string;
  arity : int;
  probe : (int * probe_key) option;
  ops : op array;
  binds : int array; (* slots this atom binds, reset on backtrack *)
}

type nterm =
  | Nslot of int
  | Nconst of int

type natom = {
  nrel : string;
  nterms : nterm array;
}

type t = {
  nslots : int;
  vars : string array; (* slot -> variable name *)
  atoms : atom_plan array;
  negated : natom array;
  diseq : (nterm * nterm) array;
  head_rel : string;
  head_terms : nterm array;
}

let atom_count t = Array.length t.atoms
let head_rel t = t.head_rel

(* Greedy join order, as the evaluator always used: start from the
   smallest relation, then repeatedly pick an atom sharing a variable
   with the bound set (preferring small relations), falling back to the
   smallest unconnected atom for cartesian products. The chosen atom is
   removed by position — removing with [List.filter (!=)] dropped every
   physically shared duplicate of the chosen atom at once, silently
   skipping join steps. *)
let order_atoms ~counts atoms =
  let module Sset = Set.Make (String) in
  let size (a : Ast.atom) = counts a.Ast.rel in
  let remove_nth n l = List.filteri (fun i _ -> i <> n) l in
  let rec pick bound remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let indexed = List.mapi (fun i a -> (i, a)) remaining in
      let connected, rest =
        List.partition
          (fun (_, a) ->
            List.exists (fun v -> Sset.mem v bound) (Ast.atom_vars a)
            || Ast.atom_vars a = [])
          indexed
      in
      let pool = if connected <> [] then connected else rest in
      let best =
        List.fold_left
          (fun best (i, a) ->
            match best with
            | None -> Some (i, a)
            | Some (_, b) -> if size a < size b then Some (i, a) else best)
          None pool
      in
      (match best with
      | None -> List.rev acc
      | Some (i, a) ->
        let bound =
          List.fold_left (fun s v -> Sset.add v s) bound (Ast.atom_vars a)
        in
        pick bound (remove_nth i remaining) (a :: acc))
  in
  pick Sset.empty atoms []

let make ?counts q =
  let counts = Option.value ~default:(fun _ -> 0) counts in
  let ordered = order_atoms ~counts (Ast.body q) in
  let slot_tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let vars = ref [] in
  let nslots = ref 0 in
  let slot_of v =
    match Hashtbl.find_opt slot_tbl v with
    | Some s -> s
    | None ->
      let s = !nslots in
      Hashtbl.add slot_tbl v s;
      vars := v :: !vars;
      incr nslots;
      s
  in
  let bound : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let compile_atom (a : Ast.atom) =
    (* The probe uses only constants and slots bound by earlier atoms:
       scan before this atom's own bindings are recorded. *)
    let probe =
      let rec find i = function
        | [] -> None
        | Ast.Const c :: _ -> Some (i, Kconst (Intern.id c))
        | Ast.Var v :: rest -> (
          match Hashtbl.find_opt slot_tbl v with
          | Some s when Hashtbl.mem bound s -> Some (i, Kslot s)
          | _ -> find (i + 1) rest)
      in
      find 0 a.Ast.terms
    in
    let binds = ref [] in
    let ops =
      List.mapi
        (fun i t ->
          match t with
          | Ast.Const c -> Konst (i, Intern.id c)
          | Ast.Var v ->
            let s = slot_of v in
            if Hashtbl.mem bound s then Check (i, s)
            else begin
              Hashtbl.add bound s ();
              binds := s :: !binds;
              Bind (i, s)
            end)
        a.Ast.terms
    in
    (* Every tuple in a probed bucket already matches the probe
       position, so the Check/Konst op there is redundant. (The probe
       never selects an unbound variable, so no Bind is dropped.) *)
    let ops =
      match probe with
      | None -> ops
      | Some (j, _) -> List.filteri (fun i _ -> i <> j) ops
    in
    {
      rel = a.Ast.rel;
      arity = List.length a.Ast.terms;
      probe;
      ops = Array.of_list ops;
      binds = Array.of_list (List.rev !binds);
    }
  in
  let atoms = Array.of_list (List.map compile_atom ordered) in
  let nterm = function
    | Ast.Const c -> Nconst (Intern.id c)
    | Ast.Var v -> (
      match Hashtbl.find_opt slot_tbl v with
      | Some s -> Nslot s
      | None ->
        (* Unreachable on queries built with Ast.make, which enforces
           safety; fail loudly rather than read an unbound slot. *)
        invalid_arg (Fmt.str "Plan.make: unsafe variable %s" v))
  in
  let natom (a : Ast.atom) =
    { nrel = a.Ast.rel; nterms = Array.of_list (List.map nterm a.Ast.terms) }
  in
  let head = Ast.head q in
  {
    nslots = !nslots;
    vars = Array.of_list (List.rev !vars);
    atoms;
    negated = Array.of_list (List.map natom (Ast.negated q));
    diseq =
      Array.of_list
        (List.map (fun (t1, t2) -> (nterm t1, nterm t2)) (Ast.diseq q));
    head_rel = head.Ast.rel;
    head_terms = Array.of_list (List.map nterm head.Ast.terms);
  }

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

(* The evaluator: one closure per atom, built once per [fold] call and
   chained statically — the inner loop allocates nothing, reads bucket
   records sequentially, and every comparison is on immediate ints. *)
let fold plan db f init =
  (* Hoisted once per fold: with tracing off the step closures below
     contain no counter code at all. *)
  let tracing = Trace.is_enabled () in
  let regs = Array.make (max 1 plan.nslots) (-1) in
  let resolve = function
    | Nslot s -> regs.(s)
    | Nconst c -> c
  in
  let leaf_ok () =
    Array.for_all (fun (t1, t2) -> resolve t1 <> resolve t2) plan.diseq
    && Array.for_all
         (fun na -> not (Db.mem db ~rel:na.nrel (Array.map resolve na.nterms)))
         plan.negated
  in
  let natoms = Array.length plan.atoms in
  let steps = Array.make (natoms + 1) (fun acc -> acc) in
  steps.(natoms) <-
    (if Array.length plan.diseq = 0 && Array.length plan.negated = 0 then
       fun acc -> f regs acc
     else fun acc -> if leaf_ok () then f regs acc else acc);
  for k = natoms - 1 downto 0 do
    let ap = plan.atoms.(k) in
    let next = steps.(k + 1) in
    let ops = ap.ops in
    let nops = Array.length ops in
    let binds = ap.binds in
    let nbinds = Array.length binds in
    let arity = ap.arity in
    (* Match a candidate laid out at [data.(base) ..]: every op is an
       integer comparison or register store. *)
    let rec run data base i =
      i >= nops
      ||
      match ops.(i) with
      | Bind (p, s) ->
        regs.(s) <- data.(base + p);
        run data base (i + 1)
      | Check (p, s) -> regs.(s) = data.(base + p) && run data base (i + 1)
      | Konst (p, c) -> data.(base + p) = c && run data base (i + 1)
    in
    let try_at acc data base n =
      if n <> arity then acc
      else begin
        let acc = if run data base 0 then next acc else acc in
        for i = 0 to nbinds - 1 do
          regs.(binds.(i)) <- -1
        done;
        acc
      end
    in
    (* The relation's store and column index are resolved once here,
       not once per probe: probing is an int-keyed lookup plus an
       up-to-date check for in-fold appends. *)
    let s = Db.store db ap.rel in
    steps.(k) <-
      (match ap.probe with
      | Some (pos, key) ->
        let c = Db.col s pos in
        fun acc ->
          let key =
            match key with
            | Kconst cst -> cst
            | Kslot sl -> regs.(sl)
          in
          if tracing then Trace.incr cnt_probes;
          if c.Db.upto < s.Db.n then ignore (Db.col s pos);
          (match Hashtbl.find_opt c.Db.tbl key with
          | None ->
            if tracing then Trace.incr cnt_probe_misses;
            acc
          | Some b ->
            (* Snapshot: recursive steps may append to this bucket (the
               Datalog engine adds derivations in-round); the captured
               array keeps the pre-snapshot records valid even if
               growth swaps [bdata]. *)
            let data = b.Db.bdata and blen = b.Db.blen in
            let rec walk i acc =
              if i >= blen then acc
              else
                let n = data.(i) in
                walk (i + n + 1) (try_at acc data (i + 1) n)
            in
            walk 0 acc)
      | None ->
        fun acc ->
          if tracing then Trace.incr cnt_scans;
          let tuples = s.Db.tuples and sn = s.Db.n in
          let rec walk i acc =
            if i >= sn then acc
            else
              let tup = tuples.(i) in
              walk (i + 1) (try_at acc tup 0 (Array.length tup))
          in
          walk 0 acc)
  done;
  steps.(0) init

let head_tuple plan regs = Array.map (function
  | Nslot s -> regs.(s)
  | Nconst c -> c)
  plan.head_terms

(* Evaluate [plan], adding every derived head tuple to [db] as it is
   found; returns the genuinely new tuples. The head is resolved into a
   reused scratch buffer that is only copied when fresh, so duplicate
   derivations — the common case near a fixpoint — allocate nothing. *)
let derive plan db =
  let tracing = Trace.is_enabled () in
  let s = Db.store db plan.head_rel in
  let ht = plan.head_terms in
  let buf = Array.make (Array.length ht) 0 in
  fold plan db
    (fun regs fresh ->
      for i = 0 to Array.length ht - 1 do
        buf.(i) <- (match ht.(i) with Nslot sl -> regs.(sl) | Nconst c -> c)
      done;
      match Db.add_copy s buf with
      | Some tup ->
        if tracing then Trace.incr cnt_dedup_fresh;
        tup :: fresh
      | None ->
        if tracing then Trace.incr cnt_dedup_hits;
        fresh)
    []

let valuation plan regs =
  let v = ref Valuation.empty in
  Array.iteri
    (fun s var -> v := Valuation.bind var (Intern.value regs.(s)) !v)
    plan.vars;
  !v
