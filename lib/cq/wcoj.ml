open Lamp_relational
module Trace = Lamp_obs.Trace

(* Worst-case-optimal join over the interned engine, in the
   Leapfrog-Triejoin style: variables are eliminated one at a time and
   the candidates for each variable are the intersection of the sorted
   value ranges offered by every atom containing it — iterated
   smallest-range-first with galloping (exponential + binary search)
   probes into the others. The work is bounded by the AGM output bound
   m^ρ* instead of the intermediate-result sizes a binary join plan
   pays on cyclic queries.

   The trie view is virtual: an atom's sorted range at a level is read
   straight out of the flat-bucket column indexes of {!Plan.Db} (probe
   the first statically bound position, filter by the other bound
   positions, collect the level variable's column, sort in place in a
   reused scratch buffer) — no second index structure is ever
   materialized. Ranges that do not depend on earlier variables
   (static sources) are computed once per fold and cached. *)

(* Profiling counters (lamp.obs): guarded by a [Trace.is_enabled] flag
   hoisted out of the fold, so tracing off costs one atomic load. *)
let cnt_probes = Trace.counter "cq.wcoj_probes"
let cnt_gallops = Trace.counter "cq.wcoj_gallop_steps"
let cnt_emitted = Trace.counter "cq.wcoj_emitted"
let cnt_intersections = Trace.counter "cq.wcoj_intersections"

let () =
  let module M = Lamp_obs.Metrics in
  M.describe ~kind:M.Counter ~help:"Trie-range probes during leapfrog folds"
    "cq.wcoj_probes";
  M.describe ~kind:M.Counter ~help:"Galloping search steps across ranges"
    "cq.wcoj_gallop_steps";
  M.describe ~kind:M.Counter ~help:"Tuples emitted by worst-case-optimal joins"
    "cq.wcoj_emitted";
  M.describe ~kind:M.Counter
    ~help:"Multi-way intersections materialized per variable level"
    "cq.wcoj_intersections"

type probe_key =
  | Kconst of int
  | Kslot of int

type check =
  | Cconst of int * int (* position, constant id *)
  | Cslot of int * int (* position, slot bound at an earlier level *)

(* One atom's contribution to one variable level. *)
type source = {
  s_rel : string;
  s_arity : int;
  s_probe : (int * probe_key) option;
      (* first statically bound position, when one exists *)
  s_checks : check array; (* remaining bound positions *)
  s_vpos : int array; (* positions of the level variable, >= 1 *)
  s_static : bool; (* independent of earlier levels: cache per fold *)
}

type level = {
  l_var : string;
  l_sources : source array;
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
  vars : string array; (* slot (= elimination position) -> variable *)
  levels : level array;
  ground : (string * int array) array; (* variable-free body atoms *)
  n_atoms : int;
  negated : natom array;
  diseq : (nterm * nterm) array;
  head_rel : string;
  head_terms : nterm array;
}

let atom_count t = t.n_atoms
let head_rel t = t.head_rel

(* ------------------------------------------------------------------ *)
(* Variable order                                                      *)

(* Most-constrained-first elimination order, fully deterministic: pick
   greedily the variable covered by the most body atoms, preferring
   variables connected to the already-chosen prefix (avoiding cartesian
   levels), breaking remaining ties by the smallest total cardinality
   of the covering relations (per [counts]) and finally by variable
   name — a pure function of the query and the size estimates. *)
let default_order ~counts q =
  let body = Ast.body q in
  let vars = Ast.body_vars q in
  let covering v =
    List.filter (fun a -> List.mem v (Ast.atom_vars a)) body
  in
  let cover_count = List.map (fun v -> (v, List.length (covering v))) vars in
  let cover_size =
    List.map
      (fun v ->
        ( v,
          List.fold_left (fun acc a -> acc + counts a.Ast.rel) 0 (covering v) ))
      vars
  in
  let count v = List.assoc v cover_count in
  let size v = List.assoc v cover_size in
  let connected chosen v =
    chosen = []
    || List.exists
         (fun a ->
           let avs = Ast.atom_vars a in
           List.mem v avs && List.exists (fun u -> List.mem u avs) chosen)
         body
  in
  let rec pick chosen remaining acc =
    match remaining with
    | [] -> List.rev acc
    | _ ->
      let pool =
        match List.filter (connected chosen) remaining with
        | [] -> remaining
        | connected -> connected
      in
      let best =
        List.fold_left
          (fun best v ->
            match best with
            | None -> Some v
            | Some b ->
              let c = Int.compare (count v) (count b) in
              if c > 0 then Some v
              else if c < 0 then best
              else
                let s = Int.compare (size v) (size b) in
                if s < 0 then Some v
                else if s > 0 then best
                else if String.compare v b < 0 then Some v
                else best)
          None pool
      in
      (match best with
      | None -> List.rev acc
      | Some v ->
        pick (v :: chosen)
          (List.filter (fun u -> u <> v) remaining)
          (v :: acc))
  in
  pick [] vars []

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)

let make ?counts ?order q =
  let counts = Option.value ~default:(fun _ -> 0) counts in
  let order =
    match order with
    | None -> default_order ~counts q
    | Some o ->
      if
        List.sort String.compare o
        <> List.sort String.compare (Ast.body_vars q)
      then invalid_arg "Wcoj.make: order must enumerate the body variables";
      o
  in
  let vars = Array.of_list order in
  let nslots = Array.length vars in
  let slot_tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iteri (fun s v -> Hashtbl.add slot_tbl v s) vars;
  let slot v = Hashtbl.find slot_tbl v in
  let body = Ast.body q in
  let ground, varred =
    List.partition (fun a -> Ast.atom_vars a = []) body
  in
  let ground =
    Array.of_list
      (List.map
         (fun (a : Ast.atom) ->
           ( a.Ast.rel,
             Array.of_list
               (List.map
                  (function
                    | Ast.Const c -> Intern.id c
                    | Ast.Var _ -> assert false)
                  a.Ast.terms) ))
         ground)
  in
  (* The source atom [a] contributes at level [lv] (the elimination
     position of one of its variables): probe the first position bound
     before [lv] — a constant, or a variable eliminated earlier —
     check the rest, and collect the level variable's positions. *)
  let source_at (a : Ast.atom) lv =
    let v = vars.(lv) in
    let terms = Array.of_list a.Ast.terms in
    let bound = function
      | Ast.Const c -> Some (Kconst (Intern.id c))
      | Ast.Var u -> if slot u < lv then Some (Kslot (slot u)) else None
    in
    let probe = ref None in
    let checks = ref [] in
    let vpos = ref [] in
    Array.iteri
      (fun i t ->
        match bound t with
        | Some key ->
          if !probe = None then probe := Some (i, key)
          else
            checks :=
              (match key with
              | Kconst c -> Cconst (i, c)
              | Kslot s -> Cslot (i, s))
              :: !checks
        | None -> (
          match t with
          | Ast.Var u when u = v -> vpos := i :: !vpos
          | _ -> ()))
      terms;
    let is_static =
      Array.for_all
        (function Ast.Var u -> slot u >= lv | Ast.Const _ -> true)
        terms
    in
    {
      s_rel = a.Ast.rel;
      s_arity = Array.length terms;
      s_probe = !probe;
      s_checks = Array.of_list (List.rev !checks);
      s_vpos = Array.of_list (List.rev !vpos);
      s_static = is_static;
    }
  in
  let levels =
    Array.init nslots (fun lv ->
        let v = vars.(lv) in
        let sources =
          List.filter (fun a -> List.mem v (Ast.atom_vars a)) varred
          |> List.map (fun a -> source_at a lv)
        in
        { l_var = v; l_sources = Array.of_list sources })
  in
  let nterm = function
    | Ast.Const c -> Nconst (Intern.id c)
    | Ast.Var v -> (
      match Hashtbl.find_opt slot_tbl v with
      | Some s -> Nslot s
      | None -> invalid_arg (Fmt.str "Wcoj.make: unsafe variable %s" v))
  in
  let natom (a : Ast.atom) =
    { nrel = a.Ast.rel; nterms = Array.of_list (List.map nterm a.Ast.terms) }
  in
  let head = Ast.head q in
  {
    nslots;
    vars;
    levels;
    ground;
    n_atoms = List.length body;
    negated = Array.of_list (List.map natom (Ast.negated q));
    diseq =
      Array.of_list
        (List.map (fun (t1, t2) -> (nterm t1, nterm t2)) (Ast.diseq q));
    head_rel = head.Ast.rel;
    head_terms = Array.of_list (List.map nterm head.Ast.terms);
  }

(* ------------------------------------------------------------------ *)
(* Sorted scratch ranges                                               *)

(* Growable int buffer holding one source's candidate range; sorted and
   deduplicated in place after collection, reused across prefix
   bindings — the inner loop allocates nothing but the ranges
   themselves growing. *)
type buf = {
  mutable data : int array;
  mutable len : int;
}

let buf_push b v =
  if b.len = Array.length b.data then begin
    let bigger = Array.make (max 16 (2 * b.len)) 0 in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end;
  b.data.(b.len) <- v;
  b.len <- b.len + 1

(* In-place sort of [a.(lo..hi-1)]: insertion sort under 16 elements,
   median-of-three quicksort above — no allocation, no comparator
   closure. *)
let rec sort_range a lo hi =
  let n = hi - lo in
  if n <= 16 then
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  else begin
    let mid = lo + (n / 2) in
    let swap i j =
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t
    in
    (* median of first/mid/last into [lo] as the pivot *)
    if a.(mid) < a.(lo) then swap mid lo;
    if a.(hi - 1) < a.(lo) then swap (hi - 1) lo;
    if a.(hi - 1) < a.(mid) then swap (hi - 1) mid;
    swap lo mid;
    let pivot = a.(lo) in
    let i = ref (lo + 1) and j = ref (hi - 1) in
    while !i <= !j do
      while !i <= !j && a.(!i) < pivot do incr i done;
      while !i <= !j && a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        swap !i !j;
        incr i;
        decr j
      end
    done;
    swap lo !j;
    sort_range a lo !j;
    sort_range a (!j + 1) hi
  end

(* Runtime state of one (level, source) pair. [st_cur]/[st_cur_len] is
   the source's current sorted range — pointing into the scratch
   buffer, a memoized array, or the static range computed on first
   use. *)
type rstate = {
  st_src : source;
  st_store : Plan.Db.raw_store;
  st_col : (int * Plan.Db.raw_col) option;
  st_buf : buf;
  st_memo : (int, int array) Hashtbl.t option;
  mutable st_cur : int array;
  mutable st_cur_len : int;
  mutable st_ready : bool; (* static sources: computed once per fold *)
}

let object_state src store col memoizable =
  {
    st_src = src;
    st_store = store;
    st_col = col;
    st_buf = { data = Array.make 16 0; len = 0 };
    st_memo = (if memoizable then Some (Hashtbl.create 64) else None);
    st_cur = [||];
    st_cur_len = 0;
    st_ready = false;
  }

(* Sort + dedup the buffer contents; leaves a strictly increasing
   prefix of length [b.len]. *)
let buf_finish b =
  if b.len > 1 then begin
    sort_range b.data 0 b.len;
    let w = ref 1 in
    for r = 1 to b.len - 1 do
      if b.data.(r) <> b.data.(!w - 1) then begin
        b.data.(!w) <- b.data.(r);
        incr w
      end
    done;
    b.len <- !w
  end

(* ------------------------------------------------------------------ *)
(* Evaluation                                                          *)

let fold t db f init =
  let tracing = Trace.is_enabled () in
  let regs = Array.make (max 1 t.nslots) (-1) in
  let resolve = function
    | Nslot s -> regs.(s)
    | Nconst c -> c
  in
  let leaf_ok () =
    Array.for_all (fun (t1, t2) -> resolve t1 <> resolve t2) t.diseq
    && Array.for_all
         (fun na ->
           not (Plan.Db.mem db ~rel:na.nrel (Array.map resolve na.nterms)))
         t.negated
  in
  (* Variable-free atoms hold or the query is empty, once per fold. *)
  if
    not
      (Array.for_all
         (fun (rel, tup) -> Plan.Db.mem db ~rel tup)
         t.ground)
  then init
  else begin
    let nlevels = Array.length t.levels in
    (* Per-(level, source) runtime state: resolved store/column handles,
       a scratch range buffer, and — for sources whose range depends
       only on the probe key (the binary-atom common case) — a per-fold
       memo of sorted ranges. The memo is the lazy trie view: each
       flat bucket is sorted at most once per fold, exactly the sorted
       sibling lists Leapfrog-Triejoin assumes, without materializing a
       persistent second index. *)
    let state =
      Array.map
        (fun level ->
          Array.map
            (fun src ->
              let s = Plan.Db.raw_store db src.s_rel in
              let col =
                match src.s_probe with
                | Some (pos, _) -> Some (pos, Plan.Db.raw_col s pos)
                | None -> None
              in
              let memoizable =
                (not src.s_static)
                && Array.length src.s_checks = 0
                && match src.s_probe with
                   | Some (_, Kslot _) -> true
                   | _ -> false
              in
              object_state src s col memoizable)
            level.l_sources)
        t.levels
    in
    (* Collect the source's candidate range for the current prefix:
       probe (or scan), filter by the bound checks and the
       repeated-occurrence consistency of the level variable, collect
       the variable's column, then sort + dedup in place. The result is
       left in [st.cur] / [st.cur_len]. *)
    let collect st =
      let src = st.st_src in
      let b = st.st_buf in
      b.len <- 0;
      let checks = src.s_checks in
      let nchecks = Array.length checks in
      let vpos = src.s_vpos in
      let nvpos = Array.length vpos in
      let p0 = vpos.(0) in
      let consider data base =
        let ok = ref true in
        for i = 0 to nchecks - 1 do
          (match checks.(i) with
          | Cconst (p, c) -> if data.(base + p) <> c then ok := false
          | Cslot (p, sl) -> if data.(base + p) <> regs.(sl) then ok := false)
        done;
        (if !ok && nvpos > 1 then
           let v = data.(base + p0) in
           for i = 1 to nvpos - 1 do
             if data.(base + vpos.(i)) <> v then ok := false
           done);
        if !ok then buf_push b data.(base + p0)
      in
      (match st.st_col with
      | Some (pos, c) ->
        let key =
          match src.s_probe with
          | Some (_, Kconst cst) -> cst
          | Some (_, Kslot sl) -> regs.(sl)
          | None -> assert false
        in
        if tracing then Trace.incr cnt_probes;
        Plan.Db.raw_sync st.st_store c pos;
        (match st.st_memo with
        | Some memo when Hashtbl.mem memo key ->
          let arr = Hashtbl.find memo key in
          st.st_cur <- arr;
          st.st_cur_len <- Array.length arr
        | memo ->
          (match Plan.Db.raw_find c key with
          | None -> ()
          | Some bucket ->
            let data = Plan.Db.raw_data bucket in
            let blen = Plan.Db.raw_len bucket in
            let i = ref 0 in
            while !i < blen do
              let n = data.(!i) in
              if n = src.s_arity then consider data (!i + 1);
              i := !i + n + 1
            done);
          buf_finish b;
          (match memo with
          | Some memo ->
            let arr = Array.sub b.data 0 b.len in
            Hashtbl.add memo key arr;
            st.st_cur <- arr;
            st.st_cur_len <- Array.length arr
          | None ->
            st.st_cur <- b.data;
            st.st_cur_len <- b.len))
      | None ->
        if tracing then Trace.incr cnt_probes;
        let n = Plan.Db.raw_n st.st_store in
        for i = 0 to n - 1 do
          let tup = Plan.Db.raw_tuple st.st_store i in
          if Array.length tup = src.s_arity then consider tup 0
        done;
        buf_finish b;
        st.st_cur <- b.data;
        st.st_cur_len <- b.len)
    in
    (* Gallop [a]'s pointer from [lo] to the first index in [lo, len)
       holding a value >= [v]; exponential probe then binary search. *)
    let gallop a len lo v =
      if lo >= len || a.(lo) >= v then lo
      else begin
        let steps = ref 1 in
        let span = ref 1 in
        while lo + !span < len && a.(lo + !span) < v do
          incr steps;
          span := !span * 2
        done;
        (* invariant: a.(lo + span/2) < v; answer in (lo+span/2, lo+span] *)
        let lo' = ref (lo + (!span / 2)) and hi = ref (min (lo + !span) (len - 1)) in
        if a.(!hi) < v then lo' := !hi + 1 (* everything below v *)
        else begin
          (* binary search for first >= v in (lo', hi] *)
          while !hi - !lo' > 1 do
            incr steps;
            let mid = (!lo' + !hi) / 2 in
            if a.(mid) < v then lo' := mid else hi := mid
          done;
          lo' := !hi
        end;
        if tracing then Trace.add cnt_gallops !steps;
        !lo'
      end
    in
    let rec go lv acc =
      if lv >= nlevels then begin
        if tracing then Trace.incr cnt_emitted;
        if leaf_ok () then f regs acc else acc
      end
      else begin
        let sources = state.(lv) in
        let ns = Array.length sources in
        (* Fill every source's range (static ones once per fold). *)
        let empty = ref false in
        for i = 0 to ns - 1 do
          if not !empty then begin
            let st = sources.(i) in
            if st.st_src.s_static then begin
              if not st.st_ready then begin
                collect st;
                st.st_ready <- true
              end
            end
            else collect st;
            if st.st_cur_len = 0 then empty := true
          end
        done;
        if !empty || ns = 0 then acc
        else begin
          if tracing then Trace.incr cnt_intersections;
          (* Iterate the smallest range; gallop the others. The
             per-level pointer and range arrays are reused across
             prefix bindings of this level's ancestors via the scratch
             fields below. *)
          let smallest = ref 0 in
          for i = 1 to ns - 1 do
            if sources.(i).st_cur_len < sources.(!smallest).st_cur_len then
              smallest := i
          done;
          let s0 = sources.(!smallest) in
          let a0 = s0.st_cur and n0 = s0.st_cur_len in
          let acc = ref acc in
          if ns = 1 then
            for i = 0 to n0 - 1 do
              regs.(lv) <- a0.(i);
              acc := go (lv + 1) !acc;
              regs.(lv) <- -1
            done
          else begin
            let others =
              Array.init (ns - 1) (fun i ->
                  let j = if i < !smallest then i else i + 1 in
                  sources.(j))
            in
            let ptrs = Array.make (ns - 1) 0 in
            (try
               for i = 0 to n0 - 1 do
                 let v = a0.(i) in
                 let ok = ref true in
                 for j = 0 to ns - 2 do
                   if !ok then begin
                     let b = others.(j) in
                     let k = gallop b.st_cur b.st_cur_len ptrs.(j) v in
                     ptrs.(j) <- k;
                     if k >= b.st_cur_len then raise Exit (* exhausted *)
                     else if b.st_cur.(k) <> v then ok := false
                   end
                 done;
                 if !ok then begin
                   regs.(lv) <- v;
                   acc := go (lv + 1) !acc;
                   regs.(lv) <- -1
                 end
               done
             with Exit -> ());
          end;
          !acc
        end
      end
    in
    go 0 init
  end

let head_tuple t regs =
  Array.map
    (function
      | Nslot s -> regs.(s)
      | Nconst c -> c)
    t.head_terms

let valuation t regs =
  let v = ref Valuation.empty in
  Array.iteri
    (fun s var -> v := Valuation.bind var (Intern.value regs.(s)) !v)
    t.vars;
  !v
