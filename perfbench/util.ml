(* Clock, sample statistics, host probes, bench-side spans and the
   result printer shared by both workload families. *)

open Lamp

let now = Unix.gettimeofday

(* p, the number of servers of every MPC run: the KST and GYM jobs and
   the serve workload's HyperCube probe. *)
let servers = 8

(* ------------------------------------------------------------------ *)
(* Sample statistics                                                   *)

(* Nearest-rank percentile of an unsorted sample: the value at rank
   ceil(q n). With n samples, p99 leaves n - ceil(0.99 n) samples above
   it, which is ten or more once n >= 1000; p90 needs n >= 100. *)
let percentile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    Array.sort compare a;
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
  end

let median xs = percentile 0.5 xs

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Median seconds per call of [f], over samples filling about 0.2 s
   (at least 3, at most 2000). A sample times enough calls in a row to
   last 0.2 ms or more, beyond the clock's resolution of 1 us; the call
   count doubles until it does, after one untimed call, because a first
   call can be far slower than the rest (a lazily built index). *)
let timed_median f =
  let time calls =
    let t0 = now () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (f ()))
    done;
    now () -. t0
  in
  ignore (time 1);
  let rec calibrate calls = if time calls >= 2e-4 then calls else calibrate (2 * calls) in
  let calls = calibrate 1 in
  let t_end = now () +. 0.2 in
  let rec go n acc =
    if n >= 2000 || (n >= 3 && now () > t_end) then median acc
    else go (n + 1) ((time calls /. float_of_int calls) :: acc)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Host probes (Linux /proc)                                           *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let words s =
  String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) s)
  |> List.filter (( <> ) "")

(* Aggregate (steal, total) jiffies from the first line of /proc/stat. *)
let cpu_jiffies () =
  match String.split_on_char '\n' (read_file "/proc/stat") with
  | line :: _ -> (
    match words line with
    | "cpu" :: fields ->
      let v = List.map int_of_string fields in
      let steal = match List.nth_opt v 7 with Some s -> s | None -> 0 in
      (* guest time is already counted in user/nice *)
      let total = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < 8) v) in
      (steal, total)
    | _ -> (0, 0))
  | [] -> (0, 0)

let steal_pct (s0, t0) (s1, t1) =
  if t1 > t0 then 100.0 *. float_of_int (s1 - s0) /. float_of_int (t1 - t0)
  else 0.0

(* Peak resident set (VmHWM) of a process, in MiB. *)
let peak_rss_mb pid =
  let status = read_file (Printf.sprintf "/proc/%s/status" pid) in
  String.split_on_char '\n' status
  |> List.find_map (fun line ->
         match words line with
         | "VmHWM:" :: kb :: _ -> Some (float_of_string kb /. 1024.0)
         | _ -> None)
  |> Option.value ~default:nan

(* Type of the filesystem holding [path]: the longest mount point that
   prefixes its real path, from /proc/self/mountinfo. *)
let fs_type path =
  let real = Unix.realpath path in
  let under mp =
    mp = "/"
    || real = mp
    || String.length real > String.length mp
       && String.sub real 0 (String.length mp) = mp
       && real.[String.length mp] = '/'
  in
  String.split_on_char '\n' (read_file "/proc/self/mountinfo")
  |> List.fold_left
       (fun best line ->
         match String.split_on_char ' ' line with
         | _ :: _ :: _ :: _ :: mp :: rest when under mp -> (
           let rec after_dash = function
             | "-" :: fstype :: _ -> Some fstype
             | _ :: tl -> after_dash tl
             | [] -> None
           in
           match after_dash rest, best with
           | Some ty, Some (bmp, _) when String.length mp >= String.length bmp ->
             Some (mp, ty)
           | Some ty, None -> Some (mp, ty)
           | _ -> best)
         | _ -> best)
       None
  |> Option.fold ~none:"unknown" ~some:snd

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Bench-side spans                                                    *)

(* Time [f] as a span of the benchmark's own, with the allocation it
   caused (Gc.quick_stat deltas) attached as span arguments. Recorded
   only while Obs.Trace is on, like the program's spans. *)
let span ?(args = []) name f =
  let g0 = Gc.quick_stat () in
  let t0 = Obs.Trace.now () in
  let v = f () in
  let dur = Obs.Trace.now () -. t0 in
  let g1 = Gc.quick_stat () in
  Obs.Trace.emit_span ~cat:"bench" ~name ~t0 ~dur
    ~args:
      (("minor_words", Obs.Trace.Float (g1.minor_words -. g0.minor_words))
      :: ("promoted_words",
          Obs.Trace.Float (g1.promoted_words -. g0.promoted_words))
      :: args)
    ();
  v

(* Total duration of the recorded spans named [name], in seconds. *)
let span_total name =
  List.fold_left
    (fun sum -> function
      | Obs.Trace.Span { name = nm; dur; _ } when nm = name -> sum +. dur
      | _ -> sum)
    0.0 (Obs.Trace.events ())

(* ------------------------------------------------------------------ *)
(* Results                                                             *)

type result = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (** name, value, unit *)
  mutable diagnostics : (string * string) list;
}

let result () = { attempted = 0; failed = 0; metrics = []; diagnostics = [] }

let metric r name unit v = r.metrics <- (name, v, unit) :: r.metrics
let diag r name v = r.diagnostics <- (name, v) :: r.diagnostics

(* A wrong answer: counted as a failed operation and printed at once. *)
let mismatch r fmt =
  Printf.ksprintf
    (fun s ->
      r.failed <- r.failed + 1;
      Printf.printf "MISMATCH %s\n%!" s)
    fmt

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Human-readable lines (workload/name value unit), then the one JSON
   object that must be the last line of standard output. *)
let print_result ~workload r =
  List.iter
    (fun (name, v) -> Printf.printf "%s/%s %s\n" workload name v)
    (List.rev r.diagnostics);
  let ms = List.rev r.metrics in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s/%s %s %s\n" workload name (json_number v) unit)
    ms;
  let bad = List.filter (fun (_, v, _) -> not (Float.is_finite v)) ms in
  List.iter (fun (n, _, _) -> mismatch r "metric %s is not a finite number" n) bad;
  let body =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string name)
          (json_number (if Float.is_finite v then v else 0.0))
          (json_string unit))
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) (max 1 r.attempted) r.failed (String.concat ", " body)
