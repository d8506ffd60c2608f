(* The filesystem shim between Store and the OS. All slot traffic goes
   through here so a Faults.Disk plan can turn the syscall sequence
   hostile — torn writes, lost renames, bit rot, ENOSPC — against real
   files, deterministically. Without a plan it is the plain fsync'd
   write/rename discipline. *)

module Disk = Lamp_faults.Disk

exception Crashed of {
  job : string;
  round : int;
  point : string;
}

exception No_space of {
  path : string;
  hint_s : float;
}

type ctx = {
  job : string;
  round : int;
  attempt : int;
}

type t = {
  plan : Disk.t;
  lock : Mutex.t;
  counts : (string, int) Hashtbl.t;
}

let create plan = { plan; lock = Mutex.create (); counts = Hashtbl.create 8 }
let plan t = t.plan

let count t kind =
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.counts kind
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts kind)))

let injected t =
  Mutex.protect t.lock (fun () ->
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []))

(* How long an injected ENOSPC asks the retry loop to wait: long
   enough to be a real sleep, short enough that a chaos matrix of
   hundreds of saves stays fast. *)
let enospc_hint_s = 0.0005

(* ------------------------------------------------------------------ *)
(* Plain operations (never injected). *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let exists = Sys.file_exists

let list_dir dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    List.sort compare (Array.to_list (Sys.readdir dir))
  else []

let remove path =
  try Sys.remove path with Sys_error _ -> ()

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let rec write_bytes fd b i len =
  if len > 0 then begin
    match Unix.write fd b i len with
    | n -> write_bytes fd b (i + n) (len - n)
    | exception Unix.Unix_error (EINTR, _, _) -> write_bytes fd b i len
  end

(* [fsync] on a directory fd is how rename durability is actually
   obtained on POSIX; some filesystems refuse it (EINVAL), which is
   the best we can do there. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (_, _, _) -> ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () -> try Unix.fsync fd with Unix.Unix_error (_, _, _) -> ())

(* Write [prefix_len] bytes of [contents] to [path]; fsync only when
   asked — a torn write is precisely one that was never synced. *)
let write_raw ?(fsync = true) path contents prefix_len =
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      write_bytes fd (Bytes.unsafe_of_string contents) 0 prefix_len;
      if fsync then Unix.fsync fd)

(* ------------------------------------------------------------------ *)
(* Injection points. *)

let faults_for t = function
  | Some { job; round; _ } -> Disk.save t.plan ~job ~round
  | None -> Disk.no_save_faults

let write_tmp t ?ctx ~path contents =
  let faults = faults_for t ctx in
  let len = String.length contents in
  if faults.litter then begin
    (* A previous crash's leftover: a half-written tmp next to the
       slot, to be swept — its name keeps the ".tmp" marker. *)
    let stale =
      path ^ "." ^ string_of_int (match ctx with Some c -> c.round | None -> 0)
    in
    write_raw ~fsync:false stale contents (len / 2);
    count t "litter"
  end;
  (match (faults.crash, ctx) with
  | Some (Disk.Torn_write f), Some { job; round; _ } ->
    (* The power cut lands mid-write: a prefix of the slot reaches the
       file, nothing is synced, and the process dies. *)
    let torn = int_of_float (f *. float_of_int len) in
    write_raw ~fsync:false path contents (min torn len);
    count t "torn";
    raise (Crashed { job; round; point = Fmt.str "torn:%g" f })
  | _ -> ());
  (match ctx with
  | Some { attempt; _ } when attempt <= faults.enospc_failures ->
    (* Disk full after a partial write; the caller's retry loop gets a
       sleep hint, and a later attempt finds space. *)
    write_raw ~fsync:false path contents (len / 2);
    count t "enospc";
    raise (No_space { path; hint_s = enospc_hint_s })
  | _ -> ());
  write_raw path contents len

let crash_at t ctx point_name =
  match ctx with
  | Some { job; round; _ } ->
    count t point_name;
    raise (Crashed { job; round; point = point_name })
  | None -> assert false (* crashes only fire under a ctx *)

(* Retain the old slot as the previous generation. Same directory, so
   a hard link is a metadata-only operation; fall back to a copy on
   filesystems without link support. *)
let retain ~dst ~prev =
  remove prev;
  try Unix.link dst prev
  with Unix.Unix_error (_, _, _) ->
    let data = read_file dst in
    write_raw prev data (String.length data)

let replace t ?ctx ?prev ~tmp ~dst () =
  let faults = faults_for t ctx in
  let crash point = faults.crash = Some point && ctx <> None in
  if crash Disk.Before_rename then
    (* Died after the tmp was complete but before the rename: the slot
       directory still names the old generation. *)
    crash_at t ctx "pre-rename";
  (match prev with
  | Some prev when exists dst -> retain ~dst ~prev
  | _ -> ());
  fsync_dir (Filename.dirname dst);
  if crash Disk.After_rename then begin
    (* The rename was issued, but the power cut lost the directory
       update (the fsync-lie / rename-lost case): on "reboot" the old
       slot is back and the new bytes survive only as tmp litter. *)
    let old = if exists dst then Some (read_file dst) else None in
    let fresh = read_file tmp in
    Unix.rename tmp dst;
    (match old with
    | Some old -> write_raw ~fsync:false dst old (String.length old)
    | None -> remove dst);
    write_raw ~fsync:false tmp fresh (String.length fresh);
    crash_at t ctx "post-rename"
  end;
  Unix.rename tmp dst;
  let damaged = ref false in
  (match faults.rot_at with
  | Some (frac, mask) ->
    (* Bit rot on the just-written slot: one byte XORed in place. *)
    let raw = read_file dst in
    let len = String.length raw in
    if len > 0 then begin
      let j = min (len - 1) (int_of_float (frac *. float_of_int (len - 1))) in
      let b = Bytes.of_string raw in
      Bytes.set b j (Char.chr (Char.code (Bytes.get b j) lxor mask land 0xff));
      write_raw ~fsync:false dst (Bytes.unsafe_to_string b) len;
      damaged := true;
      count t "rot"
    end
  | None -> ());
  (match faults.truncate_at with
  | Some frac ->
    let len =
      try (Unix.stat dst).Unix.st_size with Unix.Unix_error (_, _, _) -> 0
    in
    if len > 1 then begin
      let keep = max 1 (int_of_float (frac *. float_of_int len)) in
      (try Unix.truncate dst (min keep (len - 1))
       with Unix.Unix_error (_, _, _) -> ());
      damaged := true;
      count t "truncate"
    end
  | None -> ());
  fsync_dir (Filename.dirname dst);
  if !damaged then `Damaged else `Intact
