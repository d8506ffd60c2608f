(* Seeded, deterministic filesystem fault plans for the checkpoint
   store. Follows the Faults.Plan philosophy: every decision is a pure
   function of (seed, job, round, operation), never of wall-clock time
   or call order, so a hostile-disk run is reproducible from its seed
   alone. The plan performs no I/O itself — Jobs.Io reads the
   decisions and applies them to real files. *)

type crash_point =
  | Torn_write of float
  | Before_rename
  | After_rename

type spec = {
  crash : (int * crash_point) option;
  rot : float;
  truncate : float;
  enospc : float;
  litter : float;
}

let zero =
  { crash = None; rot = 0.0; truncate = 0.0; enospc = 0.0; litter = 0.0 }

let chaos =
  { zero with rot = 0.25; truncate = 0.15; enospc = 0.25; litter = 0.5 }

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
      invalid_arg (Fmt.str "Faults.Disk.make: %s = %g not in [0, 1]" name v)
  in
  prob "rot" spec.rot;
  prob "truncate" spec.truncate;
  prob "enospc" spec.enospc;
  prob "litter" spec.litter;
  (match spec.crash with
  | Some (round, _) when round < 0 ->
    invalid_arg (Fmt.str "Faults.Disk.make: crash round %d < 0" round)
  | Some (_, Torn_write f) when f < 0.0 || f > 1.0 ->
    invalid_arg (Fmt.str "Faults.Disk.make: torn fraction %g not in [0, 1]" f)
  | _ -> ());
  On { seed; spec }

let seed = function Off -> 0 | On p -> p.seed
let spec = function Off -> zero | On p -> p.spec

(* ------------------------------------------------------------------ *)
(* Decisions. Labels live in the 200+ range so they never collide with
   Faults.Plan's (1-7) or Faults.Net's (100+) under a shared seed.
   Coordinates are (job_code job, round, 0). *)

let rot_label = 200
and rot_off_label = 201
and rot_mask_label = 202
and truncate_label = 203
and truncate_off_label = 204
and enospc_label = 205
and enospc2_label = 206
and litter_label = 207

(* A stable, platform-independent integer coordinate for a job name.
   Hashtbl.hash is not specified across OCaml versions, so fold the
   bytes through a fixed polynomial instead; keep the result positive
   so draw coordinates are well-behaved. *)
let job_code name =
  let h = ref 0x9e3779b9 in
  String.iter (fun c -> h := ((!h * 131) + Char.code c) land max_int) name;
  !h

type save_faults = {
  crash : crash_point option;
  rot_at : (float * int) option;
  truncate_at : float option;
  enospc_failures : int;
  litter : bool;
}

let no_save_faults =
  {
    crash = None;
    rot_at = None;
    truncate_at = None;
    enospc_failures = 0;
    litter = false;
  }

let save t ~job ~round =
  match t with
  | Off -> no_save_faults
  | On { seed; spec } ->
    let draw label = Plan.draw ~seed ~label (job_code job) round 0 in
    let crash =
      match spec.crash with
      | Some (r, point) when r = round -> Some point
      | _ -> None
    in
    let rot_at =
      if spec.rot > 0.0 && draw rot_label < spec.rot then
        Some
          (draw rot_off_label, 1 + int_of_float (draw rot_mask_label *. 254.999))
      else None
    in
    let truncate_at =
      if spec.truncate > 0.0 && draw truncate_label < spec.truncate then
        Some (draw truncate_off_label)
      else None
    in
    let enospc_failures =
      (* Mirrors Plan.transient_failures: 0, 1 or 2 leading failures,
         always below Plan.max_attempts - 1, so a retried save always
         eventually lands. *)
      if spec.enospc <= 0.0 then 0
      else if draw enospc_label >= spec.enospc then 0
      else if draw enospc2_label < spec.enospc then 2
      else 1
    in
    let litter = spec.litter > 0.0 && draw litter_label < spec.litter in
    { crash; rot_at; truncate_at; enospc_failures; litter }

(* ------------------------------------------------------------------ *)

let pp_point ppf = function
  | Torn_write f -> Fmt.pf ppf "torn:%s" (Grammar.num f)
  | Before_rename -> Fmt.string ppf "pre-rename"
  | After_rename -> Fmt.string ppf "post-rename"

let point_of_string s =
  match String.trim s with
  | "pre-rename" -> Before_rename
  | "post-rename" -> After_rename
  | s -> (
    match Grammar.pair s with
    | "torn", f -> Torn_write (Grammar.float f)
    | _ -> raise Grammar.Bad_field)

let field spec key v =
  let open Grammar in
  match (key, v) with
  | "rot", Some v -> { spec with rot = float v }
  | "truncate", Some v -> { spec with truncate = float v }
  | "enospc", Some v -> { spec with enospc = float v }
  | "litter", Some v -> { spec with litter = float v }
  | "crash", Some v ->
    let round, point = pair v in
    { spec with crash = Some (int round, point_of_string point) }
  | _ -> raise Bad_field

let of_string ?(seed = 0) s =
  Grammar.parse ~who:"Disk"
    ~expected:
      "key=float among rot/truncate/enospc/litter, or crash=ROUND:POINT \
       with POINT among torn:FRAC, pre-rename, post-rename"
    ~none ~chaos ~zero ~make field ~seed s

let pp ppf = function
  | Off -> Fmt.string ppf "none"
  | On { seed; spec } ->
    Grammar.pp ~seed ppf
      ((match spec.crash with
       | Some (round, point) -> [ Fmt.str "crash=%d:%a" round pp_point point ]
       | None -> [])
      @ Grammar.probs
          [
            ("rot", spec.rot);
            ("truncate", spec.truncate);
            ("enospc", spec.enospc);
            ("litter", spec.litter);
          ])
