module Trace = Lamp_obs.Trace
module Disk_plan = Lamp_faults.Disk
module Executor = Lamp_runtime.Executor

let magic = "LAMPCKPT"
let version = 2

exception Torn of {
  job : string;
  path : string;
  offset : int;
}

exception Corrupt of {
  job : string;
  path : string;
  reason : string;
}

let swept_counter = Trace.counter "store.tmp_swept"
let fallback_counter = Trace.counter "store.fallbacks"
let lost_counter = Trace.counter "store.lost"

type disk = {
  dir : string;
  io : Io.t;
  gens : (string, int) Hashtbl.t;  (* job -> last generation written *)
  clean : (string, bool) Hashtbl.t;  (* job -> current slot known-good *)
  mutable swept : int;
  mutable fallbacks : int;
  mutable lost : int;
}

type t =
  | Memory of (string, int * string) Hashtbl.t
  | Disk of disk

let in_memory () = Memory (Hashtbl.create 8)

let sanitize job =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    job

let slot_path dir job = Filename.concat dir (sanitize job ^ ".ckpt")
let prev_path dir job = slot_path dir job ^ ".prev"
let tmp_path dir job = slot_path dir job ^ ".tmp"

(* Any file whose name carries the tmp marker is crash litter: the
   real tmp, or the plan's planted stale copies derived from it. *)
let is_tmp_litter name =
  let marker = ".ckpt.tmp" in
  let n = String.length name and m = String.length marker in
  let rec scan i = i + m <= n && (String.sub name i m = marker || scan (i + 1)) in
  scan 0

let sweep d =
  List.iter
    (fun name ->
      if is_tmp_litter name then begin
        Io.remove (Filename.concat d.dir name);
        d.swept <- d.swept + 1;
        Trace.incr swept_counter
      end)
    (Io.list_dir d.dir)

let on_disk ?(faults = Disk_plan.none) dir =
  Io.mkdir_p dir;
  let d =
    {
      dir;
      io = Io.create faults;
      gens = Hashtbl.create 8;
      clean = Hashtbl.create 8;
      swept = 0;
      fallbacks = 0;
      lost = 0;
    }
  in
  sweep d;
  Disk d

(* ------------------------------------------------------------------ *)
(* Slot format, version 2:

     w_string magic | w_int version | w_int generation
   | w_string job   | w_int round   | w_string payload
   | w_string (MD5 of everything before it)

   The checksum trailer is always 8 (length) + 16 (digest) bytes, so
   the covered body is the slot minus its last 24 bytes. *)

let digest_trailer = 24

let encode_slot ~gen ~job ~round payload =
  let w = Codec.writer () in
  Codec.w_string w magic;
  Codec.w_int w version;
  Codec.w_int w gen;
  Codec.w_string w job;
  Codec.w_int w round;
  Codec.w_string w payload;
  let body = Codec.contents w in
  Codec.w_string w (Digest.string body);
  Codec.contents w

type slot = {
  gen : int;
  job : string;
  round : int;
  payload : string;
}

(* Full validation: structure, magic/version, checksum. [job] is only
   for error reports — the identity check against an expected job name
   is the caller's (it differs between load and fsck). *)
let parse_slot ~job ~path raw =
  let fail reason = raise (Corrupt { job; path; reason }) in
  match
    let r = Codec.reader raw in
    let m = Codec.r_string r in
    let v = Codec.r_int r in
    let gen = Codec.r_int r in
    let j = Codec.r_string r in
    let round = Codec.r_int r in
    let payload = Codec.r_string r in
    let digest = Codec.r_string r in
    Codec.r_end r;
    (m, v, gen, j, round, payload, digest)
  with
  | exception Codec.Corrupt _ ->
    (* The reader ran off the end (or a damaged length prefix overran
       it): the slot is short of what its fields claim. *)
    raise (Torn { job; path; offset = String.length raw })
  | m, v, gen, j, round, payload, digest ->
    if m <> magic then fail (Fmt.str "bad checkpoint magic %S" m);
    if v = 1 then
      fail "checkpoint version 1 (pre-checksum format); this build reads 2";
    if v <> version then
      fail (Fmt.str "checkpoint version %d, this build reads %d" v version);
    (* Checksum before identity: a rotted job field must report as
       corruption, not as a foreign job. *)
    if
      String.length digest <> 16
      || Digest.string (String.sub raw 0 (String.length raw - digest_trailer))
         <> digest
    then fail "checksum mismatch";
    if gen < 1 then fail (Fmt.str "generation %d < 1" gen);
    { gen; job = j; round; payload }

let decode_slot ~job ~path raw =
  let s = parse_slot ~job ~path raw in
  if s.job <> job then
    raise
      (Corrupt
         {
           job;
           path;
           reason = Fmt.str "checkpoint belongs to job %S, expected %S" s.job job;
         });
  s

(* [Some slot] if the file exists and fully verifies as [job]'s. *)
let verified ~job path =
  if not (Io.exists path) then None
  else
    match decode_slot ~job ~path (Io.read_file path) with
    | exception (Torn _ | Corrupt _ | Sys_error _) -> None
    | s -> Some s

(* ------------------------------------------------------------------ *)

let save t ~job ~round payload =
  match t with
  | Memory tbl -> Hashtbl.replace tbl job (round, payload)
  | Disk d ->
    let path = slot_path d.dir job in
    let tmp = tmp_path d.dir job in
    let gen =
      match Hashtbl.find_opt d.gens job with
      | Some g -> g + 1
      | None ->
        (* First save this process: continue after whatever verified
           generation is already on disk. *)
        let best p = match verified ~job p with Some s -> s.gen | None -> 0 in
        1 + max (best path) (best (prev_path d.dir job))
    in
    let raw = encode_slot ~gen ~job ~round payload in
    (* Retain the old slot as the previous generation only when it is
       known good: linking a rotted current over the last good
       fallback would destroy the one copy recovery needs. *)
    let current_ok =
      match Hashtbl.find_opt d.clean job with
      | Some ok -> ok
      | None -> verified ~job path <> None
    in
    let status =
      Executor.with_retry
        ~retryable:(function
          | Io.No_space _ | Unix.Unix_error (Unix.ENOSPC, _, _) -> true
          | _ -> false)
        ~hint:(function
          | Io.No_space { hint_s; _ } -> Some hint_s
          | _ -> None)
        (fun ~attempt ->
          let ctx = { Io.job; round; attempt } in
          Io.write_tmp d.io ~ctx ~path:tmp raw;
          Io.replace d.io ~ctx
            ?prev:(if current_ok then Some (prev_path d.dir job) else None)
            ~tmp ~dst:path ())
    in
    Hashtbl.replace d.gens job gen;
    Hashtbl.replace d.clean job (status = `Intact)

let load t ~job =
  match t with
  | Memory tbl -> Hashtbl.find_opt tbl job
  | Disk d ->
    let accept ~promote (s : slot) raw =
      if promote then begin
        (* The current generation was damaged or missing: put the
           verified previous one back under the slot name, atomically
           and without injection — recovery must not be wedged by the
           plan that made it necessary. *)
        let tmp = tmp_path d.dir job in
        Io.write_tmp d.io ~path:tmp raw;
        ignore (Io.replace d.io ~tmp ~dst:(slot_path d.dir job) ());
        d.fallbacks <- d.fallbacks + 1;
        Trace.incr fallback_counter
      end;
      Hashtbl.replace d.gens job s.gen;
      Hashtbl.replace d.clean job true;
      Some (s.round, s.payload)
    in
    let current = slot_path d.dir job and previous = prev_path d.dir job in
    let read p =
      match if Io.exists p then Some (Io.read_file p) else None with
      | Some raw -> (
        match decode_slot ~job ~path:p raw with
        | s -> `Good (s, raw)
        | exception (Torn _ | Corrupt _) -> `Damaged)
      | None | (exception Sys_error _) -> `Absent
    in
    (match read current with
    | `Good (s, raw) -> accept ~promote:false s raw
    | (`Damaged | `Absent) as c -> (
      match read previous with
      | `Good (s, raw) -> accept ~promote:true s raw
      | `Damaged | `Absent ->
        if c = `Damaged then begin
          (* Slot files exist but nothing verifies: report the job as
             unstarted. Checkpoints are recomputable — the supervisor
             restarts from round 0 and still converges bit-identically
             — but count the loss loudly. *)
          d.lost <- d.lost + 1;
          Trace.incr lost_counter
        end;
        None))

let verify t ~job =
  match t with
  | Memory tbl ->
    Option.map (fun (round, _) -> (0, round)) (Hashtbl.find_opt tbl job)
  | Disk d ->
    let path = slot_path d.dir job in
    if not (Io.exists path) then None
    else
      let s = decode_slot ~job ~path (Io.read_file path) in
      Some (s.gen, s.round)

let clear t ~job =
  match t with
  | Memory tbl -> Hashtbl.remove tbl job
  | Disk d ->
    Io.remove (slot_path d.dir job);
    Io.remove (prev_path d.dir job);
    Io.remove (tmp_path d.dir job);
    Hashtbl.remove d.gens job;
    Hashtbl.remove d.clean job

let pp ppf = function
  | Memory _ -> Fmt.string ppf "memory"
  | Disk d ->
    if Io.plan d.io |> Disk_plan.is_none then Fmt.pf ppf "disk:%s" d.dir
    else Fmt.pf ppf "disk:%s[%a]" d.dir Disk_plan.pp (Io.plan d.io)

let swept = function Memory _ -> 0 | Disk d -> d.swept
let fallbacks = function Memory _ -> 0 | Disk d -> d.fallbacks
let lost = function Memory _ -> 0 | Disk d -> d.lost
let injected = function Memory _ -> [] | Disk d -> Io.injected d.io

(* ------------------------------------------------------------------ *)
(* fsck: offline scan/repair of a checkpoint directory. All I/O is
   plain (never injected) — fsck is the recovery tool. *)

type report = {
  file : string;
  kind : [ `Slot | `Previous | `Tmp ];
  verdict :
    [ `Ok of int * int | `Torn of int | `Corrupt of string | `Stale ];
  action : [ `None | `Swept | `Promoted | `Pruned | `Flagged ];
}

(* Validate one slot file, including that it sits under the file name
   its stored job name sanitizes to — a slot copied under the wrong
   name must not pass. *)
let file_verdict dir ~expect_base name =
  let path = Filename.concat dir name in
  match Io.read_file path with
  | exception Sys_error _ -> `Corrupt "unreadable"
  | raw -> (
    match parse_slot ~job:"" ~path raw with
    | exception Torn { offset; _ } -> `Torn offset
    | exception Corrupt { reason; _ } -> `Corrupt reason
    | s ->
      if sanitize s.job ^ ".ckpt" <> expect_base then
        `Corrupt (Fmt.str "slot claims job %S, filed under %S" s.job name)
      else `Ok (s.gen, s.round))

let fsck ?(repair = false) dir =
  let entries = Io.list_dir dir in
  let reports =
    List.filter_map
      (fun name ->
        let path = Filename.concat dir name in
        if is_tmp_litter name then begin
          let action =
            if repair then begin
              Io.remove path;
              `Swept
            end
            else `None
          in
          Some { file = name; kind = `Tmp; verdict = `Stale; action }
        end
        else if Filename.check_suffix name ".ckpt.prev" then
          let base = Filename.chop_suffix name ".prev" in
          Some
            {
              file = name;
              kind = `Previous;
              verdict = file_verdict dir ~expect_base:base name;
              action = `None;
            }
        else if Filename.check_suffix name ".ckpt" then
          Some
            {
              file = name;
              kind = `Slot;
              verdict = file_verdict dir ~expect_base:name name;
              action = `None;
            }
        else None)
      entries
  in
  if not repair then reports
  else begin
    (* Pair each slot with its previous generation and decide repairs:
       promote a good prev over a bad (or missing) slot, prune a bad
       prev behind a good slot, and never delete a sole survivor. *)
    let ok r = match r.verdict with `Ok _ -> true | _ -> false in
    let find kind base =
      List.find_opt
        (fun r ->
          r.kind = kind
          && (match kind with
             | `Previous -> r.file = base ^ ".prev"
             | _ -> r.file = base))
        reports
    in
    let promote base =
      let tmp = Filename.concat dir (base ^ ".tmp") in
      let raw = Io.read_file (Filename.concat dir (base ^ ".prev")) in
      let io = Io.create Disk_plan.none in
      Io.write_tmp io ~path:tmp raw;
      ignore (Io.replace io ~tmp ~dst:(Filename.concat dir base) ())
    in
    List.map
      (fun r ->
        match r.kind with
        | `Tmp -> r
        | `Slot -> (
          if ok r then r
          else
            match find `Previous r.file with
            | Some p when ok p ->
              promote r.file;
              { r with action = `Promoted }
            | _ -> { r with action = `Flagged })
        | `Previous -> (
          let base = Filename.chop_suffix r.file ".prev" in
          match find `Slot base with
          | Some s when ok s ->
            if ok r then r
            else begin
              Io.remove (Filename.concat dir r.file);
              { r with action = `Pruned }
            end
          | Some _ when ok r ->
            (* The slot is bad; this prev is about to be promoted over
               it — keep it. *)
            r
          | None when ok r ->
            (* No current slot at all: restore it from here. *)
            promote base;
            { r with action = `Promoted }
          | _ -> { r with action = `Flagged }))
      reports
  end

let healthy reports =
  List.for_all
    (fun r ->
      match (r.verdict, r.action) with
      | `Ok _, _ -> true
      | _, (`Swept | `Promoted | `Pruned) -> true
      | _ -> false)
    reports

let pp_report ppf r =
  let kind =
    match r.kind with `Slot -> "slot" | `Previous -> "prev" | `Tmp -> "tmp"
  in
  let verdict ppf = function
    | `Ok (gen, round) -> Fmt.pf ppf "ok (generation %d, round %d)" gen round
    | `Torn offset -> Fmt.pf ppf "torn (%d bytes present)" offset
    | `Corrupt reason -> Fmt.pf ppf "corrupt: %s" reason
    | `Stale -> Fmt.string ppf "stale tmp litter"
  in
  let action ppf = function
    | `None -> ()
    | `Swept -> Fmt.string ppf " [swept]"
    | `Promoted -> Fmt.string ppf " [promoted previous generation]"
    | `Pruned -> Fmt.string ppf " [pruned]"
    | `Flagged -> Fmt.string ppf " [UNREPAIRABLE]"
  in
  Fmt.pf ppf "%-6s %s: %a%a" kind r.file verdict r.verdict action r.action
