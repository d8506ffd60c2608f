type spec = {
  crash : float;
  drop : float;
  duplicate : float;
  delay : float;
  reorder : bool;
  straggle : float;
  transient : float;
  speculate : float;
  kill_after : int option;
  perma : (int * int) option;
}

let zero =
  {
    crash = 0.0;
    drop = 0.0;
    duplicate = 0.0;
    delay = 0.0;
    reorder = false;
    straggle = 0.0;
    transient = 0.0;
    speculate = 0.0;
    kill_after = None;
    perma = None;
  }

let chaos =
  {
    zero with
    crash = 0.15;
    drop = 0.05;
    duplicate = 0.05;
    delay = 0.05;
    reorder = true;
    straggle = 0.05;
    transient = 0.1;
  }

type t =
  | Off
  | On of {
      seed : int;
      spec : spec;
    }

let none = Off
let is_none = function Off -> true | On _ -> false

let make ?(seed = 0) spec =
  let prob name v =
    if v < 0.0 || v > 1.0 then
      invalid_arg (Fmt.str "Faults.Plan.make: %s = %g not in [0, 1]" name v)
  in
  prob "crash" spec.crash;
  prob "drop" spec.drop;
  prob "duplicate" spec.duplicate;
  prob "delay" spec.delay;
  prob "straggle" spec.straggle;
  prob "transient" spec.transient;
  if spec.drop +. spec.duplicate +. spec.delay > 1.0 then
    invalid_arg "Faults.Plan.make: drop + duplicate + delay > 1";
  if spec.speculate < 0.0 then
    invalid_arg
      (Fmt.str "Faults.Plan.make: speculate = %g negative" spec.speculate);
  (match spec.kill_after with
  | Some k when k < 0 ->
    invalid_arg (Fmt.str "Faults.Plan.make: kill = %d negative" k)
  | _ -> ());
  (match spec.perma with
  | Some (r, s) when r < 1 || s < 0 ->
    invalid_arg
      (Fmt.str "Faults.Plan.make: perma = %d:%d (round must be >= 1, server \
                >= 0)" r s)
  | _ -> ());
  On { seed; spec }

let seed = function Off -> 0 | On p -> p.seed
let spec = function Off -> zero | On p -> p.spec

(* ------------------------------------------------------------------ *)
(* Hashing: a splitmix64-style mixer folded over (seed, label,
   coordinates). Pure integer arithmetic — identical on every backend,
   platform and call order. Each decision kind gets its own label so
   e.g. crash and straggle draws at the same coordinates stay
   independent. *)

let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let hash ~seed ~label a b c =
  let fold h x =
    mix (Int64.add (Int64.mul h 0x9e3779b97f4a7c15L) (Int64.of_int x))
  in
  let h = mix (Int64.logxor (Int64.of_int seed) 0x7c15d3a3f0e1b529L) in
  fold (fold (fold (fold h label) a) b) c

(* Top 53 bits as a float in [0, 1). *)
let unit_float h =
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let draw ~seed ~label a b c = unit_float (hash ~seed ~label a b c)

let crash_label = 1
and fate_label = 2
and reorder_label = 3
and transient_label = 4
and straggle_label = 5
and straggle_len_label = 6
and tie_label = 7

(* ------------------------------------------------------------------ *)

type phase = Communicate | Merge | Compute

let phase_name = function
  | Communicate -> "communicate"
  | Merge -> "merge"
  | Compute -> "compute"

let phase_code = function Communicate -> 1 | Merge -> 2 | Compute -> 3

type fate = Deliver | Drop | Duplicate | Delay

let crashes t ~round ~server =
  match t with
  | Off -> false
  | On { seed; spec } ->
    spec.crash > 0.0
    && draw ~seed ~label:crash_label round server 0 < spec.crash

let fate t ~round ~src ~index =
  match t with
  | Off -> Deliver
  | On { seed; spec } ->
    if spec.drop = 0.0 && spec.duplicate = 0.0 && spec.delay = 0.0 then
      Deliver
    else begin
      let u = draw ~seed ~label:fate_label round src index in
      if u < spec.drop then Drop
      else if u < spec.drop +. spec.duplicate then Duplicate
      else if u < spec.drop +. spec.duplicate +. spec.delay then Delay
      else Deliver
    end

let permute t ~round ~lane xs =
  match t with
  | Off -> xs
  | On { spec; _ } when not spec.reorder -> xs
  | On { seed; _ } -> (
    match xs with
    | [] | [ _ ] -> xs
    | _ ->
      (* Fisher–Yates with hash-derived indices: the same (seed, round,
         lane) always yields the same permutation of equal-length
         batches. *)
      let a = Array.of_list xs in
      for i = Array.length a - 1 downto 1 do
        let h = hash ~seed ~label:reorder_label round lane i in
        let j =
          Int64.to_int
            (Int64.rem (Int64.shift_right_logical h 1) (Int64.of_int (i + 1)))
        in
        let tmp = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- tmp
      done;
      Array.to_list a)

exception Transient of string

let is_transient = function Transient _ -> true | _ -> false
let max_attempts = 4

let transient_failures t ~round ~phase ~task =
  match t with
  | Off -> 0
  | On { seed; spec } ->
    if spec.transient <= 0.0 then 0
    else begin
      let u = draw ~seed ~label:transient_label round (phase_code phase) task in
      (* P(≥1 failure) = transient, P(2 failures) = transient²; never
         more than max_attempts - 2, so retries always succeed. *)
      if u < spec.transient *. spec.transient then 2
      else if u < spec.transient then 1
      else 0
    end

let inject t ~round ~phase ~task ~attempt =
  if attempt <= transient_failures t ~round ~phase ~task then
    raise
      (Transient
         (Fmt.str "injected transient fault (round %d, %s, task %d, attempt %d)"
            round (phase_name phase) task attempt))

type straggler = {
  stall : float;
  wait : float;
  backup : bool;
}

let on_time = { stall = 0.0; wait = 0.0; backup = false }

let straggler t ~round ~phase ~task =
  match t with
  | Off -> on_time
  | On { seed; spec } ->
    let draw label = draw ~seed ~label round (phase_code phase) task in
    if spec.straggle > 0.0 && draw straggle_label < spec.straggle then begin
      let stall = 0.0001 +. (0.0009 *. draw straggle_len_label) in
      let budget = spec.speculate in
      (* The backup copy starts once the budget has passed; when it
         would finish with the primary, a seeded draw breaks the tie. *)
      let backup =
        budget > 0.0
        && (stall > budget || (stall = budget && draw tie_label >= 0.5))
      in
      { stall; wait = (if backup then budget else stall); backup }
    end
    else on_time

let kill_after = function Off -> None | On { spec; _ } -> spec.kill_after

let perma_crash t ~round =
  match t with
  | Off -> None
  | On { spec; _ } -> (
    match spec.perma with
    | Some (r, s) when r = round -> Some s
    | _ -> None)

(* ------------------------------------------------------------------ *)

let field spec key v =
  let open Grammar in
  match (key, v) with
  | "reorder", None -> { spec with reorder = true }
  | "crash", Some v -> { spec with crash = float v }
  | "drop", Some v -> { spec with drop = float v }
  | ("dup" | "duplicate"), Some v -> { spec with duplicate = float v }
  | "delay", Some v -> { spec with delay = float v }
  | "straggle", Some v -> { spec with straggle = float v }
  | "transient", Some v -> { spec with transient = float v }
  | "speculate", Some v -> { spec with speculate = float v }
  | "kill", Some v -> { spec with kill_after = Some (int v) }
  | "perma", Some v ->
    let r, s = pair v in
    { spec with perma = Some (int r, int s) }
  | _ -> raise Bad_field

let of_string ?(seed = 0) s =
  Grammar.parse ~who:"Plan"
    ~expected:
      "key=float among crash/drop/dup/delay/straggle/transient/speculate, \
       kill=ROUND, perma=ROUND:SERVER, or the flag reorder"
    ~none ~chaos ~zero ~make field ~seed s

let pp ppf = function
  | Off -> Fmt.string ppf "none"
  | On { seed; spec } ->
    Grammar.pp ~seed ppf
      (Grammar.probs
         [
           ("crash", spec.crash);
           ("drop", spec.drop);
           ("dup", spec.duplicate);
           ("delay", spec.delay);
           ("straggle", spec.straggle);
           ("transient", spec.transient);
           ("speculate", spec.speculate);
         ]
      @ (match spec.kill_after with
        | Some k -> [ Fmt.str "kill=%d" k ]
        | None -> [])
      @ (match spec.perma with
        | Some (r, s) -> [ Fmt.str "perma=%d:%d" r s ]
        | None -> [])
      @ if spec.reorder then [ "reorder" ] else [])
