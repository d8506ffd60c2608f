(* Job-level robustness: durable checkpoints, kill/resume, speculative
   straggler re-execution and survivor rebalancing.

   The headline property: every multi-round algorithm, killed after any
   round r and resumed from the durable checkpoint, produces output and
   statistics bit-identical to an uninterrupted run — on the sequential
   and pool backends alike, under fault plans or not. *)

open Lamp_relational
open Lamp_cq
open Lamp_mpc
module Codec = Lamp_jobs.Codec
module Store = Lamp_jobs.Store
module Supervisor = Lamp_jobs.Supervisor
module Plan = Lamp_faults.Plan
module Disk = Lamp_faults.Disk
module Io = Lamp_jobs.Io
module Executor = Lamp_runtime.Executor
module Pool = Lamp_runtime.Pool
module Trace = Lamp_obs.Trace

let instance = Alcotest.testable Instance.pp Instance.equal

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                   *)

let test_codec_roundtrip () =
  let w = Codec.writer () in
  Codec.w_int w 0;
  Codec.w_int w (-42);
  Codec.w_int w max_int;
  Codec.w_bool w true;
  Codec.w_bool w false;
  Codec.w_float w 3.14159;
  Codec.w_float w (-0.0);
  Codec.w_float w infinity;
  Codec.w_string w "";
  Codec.w_string w "hello\000binary\255";
  Codec.w_option w Codec.w_int None;
  Codec.w_option w Codec.w_int (Some 7);
  Codec.w_list w Codec.w_string [ "a"; "b"; "c" ];
  Codec.w_array w Codec.w_int [| 1; 2; 3 |];
  Codec.w_value w (Value.int 99);
  Codec.w_value w (Value.str "xyz");
  Codec.w_fact w (Fact.of_list "R" [ Value.int 1; Value.str "two" ]);
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check int) "int 0" 0 (Codec.r_int r);
  Alcotest.(check int) "negative int" (-42) (Codec.r_int r);
  Alcotest.(check int) "max_int" max_int (Codec.r_int r);
  Alcotest.(check bool) "true" true (Codec.r_bool r);
  Alcotest.(check bool) "false" false (Codec.r_bool r);
  Alcotest.(check (float 0.0)) "float" 3.14159 (Codec.r_float r);
  Alcotest.(check bool) "-0.0 sign preserved" true
    (1.0 /. Codec.r_float r = neg_infinity);
  Alcotest.(check (float 0.0)) "infinity" infinity (Codec.r_float r);
  Alcotest.(check string) "empty string" "" (Codec.r_string r);
  Alcotest.(check string) "binary string" "hello\000binary\255"
    (Codec.r_string r);
  Alcotest.(check bool) "None" true (Codec.r_option r Codec.r_int = None);
  Alcotest.(check bool) "Some" true (Codec.r_option r Codec.r_int = Some 7);
  Alcotest.(check (list string)) "list" [ "a"; "b"; "c" ]
    (Codec.r_list r Codec.r_string);
  Alcotest.(check (array int)) "array" [| 1; 2; 3 |]
    (Codec.r_array r Codec.r_int);
  Alcotest.(check bool) "int value" true
    (Value.equal (Value.int 99) (Codec.r_value r));
  Alcotest.(check bool) "str value" true
    (Value.equal (Value.str "xyz") (Codec.r_value r));
  Alcotest.(check bool) "fact" true
    (Fact.equal
       (Fact.of_list "R" [ Value.int 1; Value.str "two" ])
       (Codec.r_fact r));
  Codec.r_end r

let test_codec_instance_canonical () =
  let i1 = Instance.of_string "R(1,2). S(2,3). R(4,5)." in
  let i2 = Instance.of_string "S(2,3). R(4,5). R(1,2)." in
  let enc i =
    let w = Codec.writer () in
    Codec.w_instance w i;
    Codec.contents w
  in
  Alcotest.(check string) "equal instances encode identically" (enc i1)
    (enc i2);
  let r = Codec.reader (enc i1) in
  Alcotest.check instance "instance round-trips" i1 (Codec.r_instance r);
  Codec.r_end r

(* An instance is written relation by relation: a relation's name
   appears once, however many facts it holds. *)
let test_codec_names_once () =
  let name = "Edge_relation" in
  let i =
    Instance.of_facts
      (List.init 1000 (fun k ->
           Fact.of_list name [ Value.int k; Value.int (k + 1) ]))
  in
  let w = Codec.writer () in
  Codec.w_instance w i;
  let enc = Codec.contents w in
  let occurrences =
    let n = String.length name in
    let count = ref 0 in
    for k = 0 to String.length enc - n do
      if String.sub enc k n = name then incr count
    done;
    !count
  in
  Alcotest.(check int) "the relation name is written once" 1 occurrences;
  Alcotest.check instance "and the instance reads back" i
    (Codec.r_instance (Codec.reader enc))

let test_codec_corrupt () =
  let w = Codec.writer () in
  Codec.w_string w "payload";
  let raw = Codec.contents w in
  let truncated = String.sub raw 0 (String.length raw - 2) in
  (try
     ignore (Codec.r_string (Codec.reader truncated));
     Alcotest.fail "truncated input must raise"
   with Codec.Corrupt _ -> ());
  let r = Codec.reader (raw ^ "x") in
  ignore (Codec.r_string r);
  (try
     Codec.r_end r;
     Alcotest.fail "trailing bytes must raise"
   with Codec.Corrupt _ -> ());
  let r = Codec.reader "\000\000\000\000\000\000\000\005bo" in
  try
    ignore (Codec.r_string r);
    Alcotest.fail "overrunning length prefix must raise"
  with Codec.Corrupt _ -> ()

(* ------------------------------------------------------------------ *)
(* Codec hardening: the wire protocol feeds it untrusted bytes, so
   malformed input of any shape must surface as [Corrupt] — never an
   [Invalid_argument] from a missed bound check, never an allocation
   sized by an attacker-controlled length prefix. *)

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map Value.int (int_range (-1000) 1000);
        map Value.str (string_size ~gen:printable (int_range 0 8));
      ])

let fact_gen =
  QCheck.Gen.(
    oneofl [ "R"; "S"; "T" ] >>= fun rel ->
    list_size (int_range 0 3) value_gen >>= fun args ->
    return (Fact.of_list rel args))

let instance_gen =
  QCheck.Gen.(map Instance.of_facts (list_size (int_range 0 12) fact_gen))

let instance_arb = QCheck.make ~print:(Fmt.to_to_string Instance.pp) instance_gen

let encode_instance i =
  let w = Codec.writer () in
  Codec.w_instance w i;
  Codec.contents w

let decode_instance s =
  let r = Codec.reader s in
  let i = Codec.r_instance r in
  Codec.r_end r;
  i

let qcheck_roundtrip =
  QCheck.Test.make ~name:"random instances round-trip canonically" ~count:200
    instance_arb (fun i ->
      let enc = encode_instance i in
      let dec = decode_instance enc in
      Instance.equal i dec && String.equal enc (encode_instance dec))

let qcheck_truncation =
  (* Every strict prefix of a valid encoding is truncated somewhere, so
     decoding must raise [Corrupt] — a prefix can never silently decode
     (the byte budget of the announced lengths does not fit). *)
  QCheck.Test.make ~name:"every strict prefix raises Corrupt" ~count:50
    instance_arb (fun i ->
      let enc = encode_instance i in
      let ok = ref true in
      for len = 0 to String.length enc - 1 do
        match decode_instance (String.sub enc 0 len) with
        | _ -> ok := false
        | exception Codec.Corrupt _ -> ()
        | exception _ -> ok := false
      done;
      !ok)

let qcheck_byte_flip =
  (* Flipping one byte may still decode (a constant changed) but must
     never escape as anything but [Corrupt]. *)
  QCheck.Test.make ~name:"byte flips: clean decode or Corrupt" ~count:300
    (QCheck.pair instance_arb (QCheck.pair QCheck.small_nat QCheck.small_nat))
    (fun (i, (pos, bits)) ->
      let enc = encode_instance i in
      QCheck.assume (String.length enc > 0);
      let pos = pos mod String.length enc in
      let flip = 1 + (bits mod 255) in
      let b = Bytes.of_string enc in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor flip));
      match decode_instance (Bytes.unsafe_to_string b) with
      | _ -> true
      | exception Codec.Corrupt _ -> true
      | exception _ -> false)

let test_codec_hostile_lengths () =
  let enc_int n =
    let w = Codec.writer () in
    Codec.w_int w n;
    Codec.contents w
  in
  let expect_corrupt name s read =
    match read (Codec.reader s) with
    | _ -> Alcotest.failf "%s must raise Corrupt" name
    | exception Codec.Corrupt _ -> ()
    | exception e ->
      Alcotest.failf "%s escaped as %s, not Corrupt" name (Printexc.to_string e)
  in
  (* A length prefix near max_int used to overflow [pos + n] past the
     bound check; a merely huge one used to size an allocation. Both
     must die in the length guard, byte-for-byte untouched. *)
  expect_corrupt "max_int list length" (enc_int max_int) (fun r ->
      Codec.r_list r Codec.r_int);
  expect_corrupt "huge array length"
    (enc_int 1_000_000_000)
    (fun r -> Codec.r_array r Codec.r_fact);
  expect_corrupt "negative list length" (enc_int (-1)) (fun r ->
      Codec.r_list r Codec.r_int);
  expect_corrupt "max_int string length" (enc_int max_int) Codec.r_string;
  expect_corrupt "negative string length" (enc_int min_int) Codec.r_string;
  (* The new char primitive behaves like the other fixed-size reads. *)
  let w = Codec.writer () in
  Codec.w_char w 'z';
  let r = Codec.reader (Codec.contents w) in
  Alcotest.(check char) "char round-trips" 'z' (Codec.r_char r);
  Codec.r_end r;
  expect_corrupt "char past the end" "" Codec.r_char

(* ------------------------------------------------------------------ *)
(* Store: memory and disk backends                                     *)

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "lamp_jobs_test_%d_%d" (Unix.getpid ()) !counter)
    in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    dir

let test_store_memory () =
  let s = Store.in_memory () in
  Alcotest.(check bool) "empty store loads nothing" true
    (Store.load s ~job:"j" = None);
  Store.save s ~job:"j" ~round:1 "one";
  Store.save s ~job:"other" ~round:5 "five";
  Alcotest.(check bool) "latest slot" true
    (Store.load s ~job:"j" = Some (1, "one"));
  Store.save s ~job:"j" ~round:2 "two";
  Alcotest.(check bool) "save supersedes" true
    (Store.load s ~job:"j" = Some (2, "two"));
  Alcotest.(check bool) "jobs are independent" true
    (Store.load s ~job:"other" = Some (5, "five"));
  Store.clear s ~job:"j";
  Alcotest.(check bool) "clear drops the slot" true
    (Store.load s ~job:"j" = None)

let test_store_disk () =
  let dir = temp_dir () in
  let s = Store.on_disk dir in
  Store.save s ~job:"alg/1" ~round:3 "payload\000with\255bytes";
  Alcotest.(check bool) "disk round-trip" true
    (Store.load s ~job:"alg/1" = Some (3, "payload\000with\255bytes"));
  (* A fresh handle on the same directory sees the slot: durability. *)
  let s2 = Store.on_disk dir in
  Alcotest.(check bool) "fresh handle reads the slot" true
    (Store.load s2 ~job:"alg/1" = Some (3, "payload\000with\255bytes"));
  Store.save s ~job:"alg/1" ~round:4 "next";
  (* Atomic writes leave only the slot and its retained previous
     generation behind — never temp files. *)
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           not
             (Filename.check_suffix f ".ckpt"
             || Filename.check_suffix f ".ckpt.prev"))
  in
  Alcotest.(check (list string)) "no temp files left" [] leftovers;
  Store.clear s ~job:"alg/1";
  Alcotest.(check bool) "clear removes the file" true
    (Store.load s2 ~job:"alg/1" = None)

let test_store_disk_rejects_mismatch () =
  let dir = temp_dir () in
  let s = Store.on_disk dir in
  Store.save s ~job:"a" ~round:1 "data";
  let file j = Filename.concat dir (j ^ ".ckpt") in
  (* A slot copied under another job's name is rejected. *)
  let contents =
    let ic = open_in_bin (file "a") in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let oc = open_out_bin (file "b") in
  output_string oc contents;
  close_out oc;
  (try
     ignore (Store.verify s ~job:"b");
     Alcotest.fail "job-name mismatch must raise"
   with Store.Corrupt _ -> ());
  Alcotest.(check bool) "mismatched slot is never loaded" true
    (Store.load s ~job:"b" = None);
  (* A corrupted magic header is rejected. *)
  let oc = open_out_bin (file "a") in
  output_string oc ("XAMPCKPT" ^ String.sub contents 8 (String.length contents - 8));
  close_out oc;
  (try
     ignore (Store.verify s ~job:"a");
     Alcotest.fail "bad magic must raise"
   with Store.Corrupt _ | Store.Torn _ -> ());
  Alcotest.(check bool) "corrupt slot with no fallback loads nothing" true
    (Store.load s ~job:"a" = None);
  Alcotest.(check int) "both unrecoverable loads are counted" 2 (Store.lost s)

(* In-place file surgery for corruption tests. *)
let rewrite_file path f =
  let ic = open_in_bin path in
  let raw =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let b = Bytes.of_string raw in
  f b;
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let flip_byte path off =
  rewrite_file path (fun b ->
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40)))

let test_store_generations () =
  let dir = temp_dir () in
  let s = Store.on_disk dir in
  Store.save s ~job:"j" ~round:1 "one";
  Store.save s ~job:"j" ~round:2 "two";
  Store.save s ~job:"j" ~round:3 "three";
  let slot = Filename.concat dir "j.ckpt" in
  let prev = Filename.concat dir "j.ckpt.prev" in
  Alcotest.(check bool) "previous generation retained" true
    (Sys.file_exists prev);
  (* Bit-rot the current slot: a fresh handle must refuse it and fall
     back to the previous generation. *)
  flip_byte slot ((Unix.stat slot).Unix.st_size / 2);
  let s2 = Store.on_disk dir in
  Alcotest.(check bool) "load falls back one generation" true
    (Store.load s2 ~job:"j" = Some (2, "two"));
  Alcotest.(check int) "fallback counted" 1 (Store.fallbacks s2);
  (* The fallback promoted the good generation back to the slot name:
     a third handle reads it directly, no fallback needed. *)
  let s3 = Store.on_disk dir in
  Alcotest.(check bool) "promoted slot verifies in place" true
    (match Store.verify s3 ~job:"j" with Some (_, 2) -> true | _ -> false);
  Alcotest.(check bool) "promoted slot loads directly" true
    (Store.load s3 ~job:"j" = Some (2, "two") && Store.fallbacks s3 = 0);
  (* Saving again on the fallen-back state keeps generations monotone:
     damage both generations and the job reports unstarted instead of
     ever returning unverified bytes. *)
  Store.save s3 ~job:"j" ~round:3 "three'";
  flip_byte slot 40;
  flip_byte prev 40;
  let s4 = Store.on_disk dir in
  Alcotest.(check bool) "no verifiable generation loads nothing" true
    (Store.load s4 ~job:"j" = None);
  Alcotest.(check int) "lost counted" 1 (Store.lost s4)

let test_store_sweeps_litter () =
  let dir = temp_dir () in
  let plant n =
    let oc = open_out_bin (Filename.concat dir n) in
    output_string oc "stale";
    close_out oc
  in
  plant "j.ckpt.tmp";
  plant "j.ckpt.tmp.3";
  plant "other.ckpt.tmp.17";
  let s = Store.on_disk dir in
  Alcotest.(check int) "all litter swept on open" 3 (Store.swept s);
  Alcotest.(check (list string)) "directory is clean" []
    (Sys.readdir dir |> Array.to_list)

let test_store_enospc_retry () =
  let dir = temp_dir () in
  let plan = Disk.make ~seed:6 { Disk.zero with enospc = 1.0 } in
  let s = Store.on_disk ~faults:plan dir in
  (* Every save's first attempt dies with ENOSPC; the store's internal
     retry absorbs it and the slot still lands intact. *)
  Store.save s ~job:"j" ~round:1 "one";
  Store.save s ~job:"j" ~round:2 "two";
  Alcotest.(check bool) "saves land despite ENOSPC" true
    (Store.load s ~job:"j" = Some (2, "two"));
  Alcotest.(check bool) "ENOSPC injections recorded" true
    (match List.assoc_opt "enospc" (Store.injected s) with
    | Some n -> n >= 2
    | None -> false)

let crash_points =
  [
    ("torn:0.25", Disk.Torn_write 0.25);
    ("torn:0.75", Disk.Torn_write 0.75);
    ("pre-rename", Disk.Before_rename);
    ("post-rename", Disk.After_rename);
  ]

let test_store_crash_leaves_good_generation () =
  List.iter
    (fun (pname, point) ->
      let dir = temp_dir () in
      let plan = Disk.make ~seed:8 { Disk.zero with crash = Some (2, point) } in
      let s = Store.on_disk ~faults:plan dir in
      Store.save s ~job:"j" ~round:1 "one";
      (match Store.save s ~job:"j" ~round:2 "two" with
      | () -> Alcotest.fail (pname ^ ": crash must fire during the save")
      | exception Io.Crashed { round; _ } ->
        Alcotest.(check int) (pname ^ ": crashed in the round-2 save") 2 round);
      (* Reboot: a clean store on the same directory must recover the
         round-1 checkpoint — never a torn slot. *)
      let s2 = Store.on_disk dir in
      Alcotest.(check bool)
        (pname ^ ": recovery reads the last durable generation")
        true
        (Store.load s2 ~job:"j" = Some (1, "one")))
    crash_points

let test_fsck () =
  let dir = temp_dir () in
  let s = Store.on_disk dir in
  let payload j r = Fmt.str "%s-round-%d-%s" j r (String.make 64 'x') in
  List.iter
    (fun j ->
      Store.save s ~job:j ~round:1 (payload j 1);
      Store.save s ~job:j ~round:2 (payload j 2))
    [ "a"; "b"; "c" ];
  let ok (r : Store.report) =
    match r.verdict with `Ok _ -> true | _ -> false
  in
  let clean = Store.fsck dir in
  Alcotest.(check bool) "clean directory: all ok, zero false positives" true
    (clean <> [] && List.for_all ok clean && Store.healthy clean);
  (* Hand corruption: flipped byte mid-payload, truncated header,
     zeroed generation field, stale tmp litter. *)
  let file j = Filename.concat dir (j ^ ".ckpt") in
  flip_byte (file "a") ((Unix.stat (file "a")).Unix.st_size / 2);
  Unix.truncate (file "b") 10;
  rewrite_file (file "c") (fun bytes -> Bytes.fill bytes 24 8 '\000');
  let oc = open_out_bin (Filename.concat dir "a.ckpt.tmp.3") in
  output_string oc "stale";
  close_out oc;
  let reports = Store.fsck dir in
  let verdict f =
    match List.find_opt (fun (r : Store.report) -> r.file = f) reports with
    | Some r -> r.verdict
    | None -> Alcotest.fail (f ^ " missing from the fsck report")
  in
  Alcotest.(check bool) "flipped byte detected" true
    (match verdict "a.ckpt" with `Ok _ -> false | _ -> true);
  Alcotest.(check bool) "truncated header reported torn" true
    (match verdict "b.ckpt" with `Torn n -> n = 10 | _ -> false);
  Alcotest.(check bool) "zeroed generation reported corrupt" true
    (match verdict "c.ckpt" with `Corrupt _ -> true | _ -> false);
  Alcotest.(check bool) "planted litter reported stale" true
    (verdict "a.ckpt.tmp.3" = `Stale);
  Alcotest.(check bool) "undamaged previous generations stay ok" true
    (List.for_all
       (fun (r : Store.report) ->
         match r.kind with `Previous -> ok r | `Slot | `Tmp -> true)
       reports);
  Alcotest.(check bool) "damage means unhealthy" false (Store.healthy reports);
  (* Repair: sweep the litter, promote the good previous generations
     over the damaged slots, leave the directory verifying clean. *)
  let repaired = Store.fsck ~repair:true dir in
  Alcotest.(check bool) "repair leaves a healthy directory" true
    (Store.healthy repaired);
  Alcotest.(check bool) "post-repair scan is all ok" true
    (List.for_all ok (Store.fsck dir));
  let s2 = Store.on_disk dir in
  Alcotest.(check bool) "repaired slots load a good generation" true
    (List.for_all
       (fun j ->
         match Store.load s2 ~job:j with
         | Some (r, p) -> (r = 1 || r = 2) && p = payload j r
         | None -> false)
       [ "a"; "b"; "c" ])

(* ------------------------------------------------------------------ *)
(* Cluster snapshot/restore                                            *)

let tri_instance =
  Instance.of_string
    "R(1,2). R(2,3). R(4,5). R(7,2). R(8,2). S(2,3). S(3,4). S(5,6). \
     S(2,9). T(3,1). T(4,2). T(6,4). T(9,7). T(9,8)."

let test_cluster_snapshot_roundtrip () =
  let c = Cluster.create ~p:4 tri_instance in
  let snap0 = Cluster.snapshot c in
  let c' = Cluster.restore snap0 in
  Alcotest.(check int) "p restored" 4 (Cluster.p c');
  Alcotest.check instance "locals restored" (Cluster.union_all c)
    (Cluster.union_all c');
  Alcotest.(check bool) "equal states snapshot identically" true
    (Cluster.snapshot c = Cluster.snapshot c');
  (* Run a round on the original and on the restored copy: both end in
     the same state with the same stats. *)
  let round =
    {
      Cluster.communicate =
        Cluster.route_by (fun f ->
            [ Hashtbl.hash (Fact.rel f, (Fact.args f).(0)) mod 4 ]);
      compute = Cluster.keep_received;
    }
  in
  Cluster.run_round c round;
  Cluster.run_round c' round;
  Alcotest.check instance "same output after a round" (Cluster.union_all c)
    (Cluster.union_all c');
  Alcotest.(check bool) "same stats after a round" true
    (Cluster.stats c = Cluster.stats c');
  Alcotest.(check bool) "post-round snapshots identical" true
    (Cluster.snapshot c = Cluster.snapshot c')

let test_cluster_restore_corrupt () =
  let c = Cluster.create ~p:2 tri_instance in
  let snap = Cluster.snapshot c in
  try
    ignore (Cluster.restore (String.sub snap 0 (String.length snap / 2)));
    Alcotest.fail "truncated snapshot must raise"
  with Codec.Corrupt _ -> ()

(* ------------------------------------------------------------------ *)
(* Kill-after-every-round / resume: the bit-identity matrix            *)

let path_query = Parser.query "H(x,w) <- R(x,y), S(y,z), T(z,w)"
let triangle_query = Parser.query "H(x,y,z) <- R(x,y), S(y,z), T(z,x)"

(* Each algorithm as [run ?job ~executor ~faults ()], normalized to the
   result instance and its full statistics (compared structurally:
   stitched checkpoint stats must be bit-identical to an uninterrupted
   run's). *)
type algo =
  ?job:Supervisor.t ->
  executor:Executor.t ->
  faults:Plan.t ->
  unit ->
  Instance.t * Stats.t

let algorithms : (string * algo) list =
  [
    ( "cascade_triangle",
      fun ?job ~executor ~faults () ->
        let r, s =
          Multi_round.cascade_triangle ~seed:1 ~executor ~faults ?job ~p:4
            tri_instance
        in
        (r, s) );
    ( "skew_resilient_triangle",
      fun ?job ~executor ~faults () ->
        let r, s, _ =
          Multi_round.skew_resilient_triangle ~seed:1 ~executor ~faults ?job
            ~p:4 tri_instance
        in
        (r, s) );
    ( "gym",
      fun ?job ~executor ~faults () ->
        Yannakakis.gym ~seed:1 ~executor ~faults ?job ~p:4 path_query
          tri_instance );
    ( "gym_ghd",
      fun ?job ~executor ~faults () ->
        let r, s, _ =
          Gym_ghd.run ~seed:1 ~executor ~faults ?job ~p:4 triangle_query
            tri_instance
        in
        (r, s) );
    ( "hypercube",
      fun ?job ~executor ~faults () ->
        let r, s, _ =
          Hypercube.run ~seed:1 ~executor ~faults ?job ~p:4 triangle_query
            tri_instance
        in
        (r, s) );
    ( "kst",
      (* threshold 1 forces the heavy decomposition even on this small
         instance, so the resumed run replays the staged round too. *)
      fun ?job ~executor ~faults () ->
        let r, s, _ =
          Kst.run ~seed:1 ~threshold:1 ~executor ~faults ?job ~p:4
            triangle_query tri_instance
        in
        (r, s) );
  ]

(* Kill the job after round [r], resume it, and return the final
   result; [None] when the job finished before round [r] was reached
   (the kill never fired). *)
let kill_and_resume ~store ~executor ~faults ~(run : algo) r =
  let job = Supervisor.create ~kill_after_round:r ~store "t" in
  match run ~job ~executor ~faults () with
  | result -> `Finished result
  | exception Supervisor.Killed { round; _ } ->
    Alcotest.(check int) "killed at the requested round" r round;
    let job = Supervisor.create ~resume:true ~store "t" in
    let result = run ~job ~executor ~faults () in
    Alcotest.(check bool) "resumed from the kill round" true
      (job.Supervisor.resumed_from = Some r);
    `Resumed result

let kill_matrix ~executor ~faults name (run : algo) =
  let baseline = run ~executor ~faults () in
  let resumed = ref 0 in
  let r = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if !r > 50 then Alcotest.fail (name ^ ": kill matrix did not terminate");
    let store = Store.in_memory () in
    (match kill_and_resume ~store ~executor ~faults ~run !r with
    | (`Finished (out, stats) | `Resumed (out, stats)) as tagged ->
      Alcotest.check instance
        (Fmt.str "%s kill=%d output bit-identical" name !r)
        (fst baseline) out;
      Alcotest.(check bool)
        (Fmt.str "%s kill=%d stats bit-identical" name !r)
        true
        (snd baseline = stats);
      (match tagged with
      | `Resumed _ -> incr resumed
      | `Finished _ -> continue_ := false));
    incr r
  done;
  Alcotest.(check bool)
    (Fmt.str "%s: at least one kill round actually fired" name)
    true (!resumed > 0)

let test_kill_resume_seq () =
  List.iter
    (fun (name, run) ->
      kill_matrix ~executor:Executor.sequential ~faults:Plan.none name run)
    algorithms

let test_kill_resume_pool () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let executor = Executor.pool pool in
      List.iter
        (fun (name, run) -> kill_matrix ~executor ~faults:Plan.none name run)
        algorithms)

(* Under an active fault plan the restored run must draw the same
   faults for the remaining rounds: round numbering survives the
   checkpoint. *)
let test_kill_resume_under_faults () =
  let faults =
    Plan.make ~seed:11
      { Plan.zero with crash = 0.3; transient = 0.3; drop = 0.2 }
  in
  List.iter
    (fun (name, run) ->
      kill_matrix ~executor:Executor.sequential ~faults name run)
    algorithms

(* The crash-point matrix: a simulated power cut at every injected I/O
   point of every round's checkpoint save. After each crash a clean
   store on the same directory must resume to output and statistics
   bit-identical to an uninterrupted run. *)
let crash_matrix ~executor name (run : algo) =
  let baseline = run ~executor ~faults:Plan.none () in
  List.iter
    (fun (pname, point) ->
      let r = ref 1 in
      let continue_ = ref true in
      let crashed = ref 0 in
      while !continue_ do
        if !r > 50 then
          Alcotest.fail (name ^ ": crash matrix did not terminate");
        let dir = temp_dir () in
        let plan =
          Disk.make ~seed:5 { Disk.zero with crash = Some (!r, point) }
        in
        let store = Store.on_disk ~faults:plan dir in
        let job = Supervisor.create ~store "t" in
        (match run ~job ~executor ~faults:Plan.none () with
        | out, stats ->
          (* The crash round lies beyond the job's last save: the
             matrix for this point is exhausted. *)
          Alcotest.check instance
            (Fmt.str "%s/%s uncrashed run bit-identical" name pname)
            (fst baseline) out;
          Alcotest.(check bool)
            (Fmt.str "%s/%s uncrashed stats bit-identical" name pname)
            true
            (snd baseline = stats);
          continue_ := false
        | exception Io.Crashed { round; _ } ->
          incr crashed;
          Alcotest.(check int)
            (Fmt.str "%s/%s crashed in the requested save" name pname)
            !r round;
          let store = Store.on_disk dir in
          let job = Supervisor.create ~resume:true ~store "t" in
          let out, stats = run ~job ~executor ~faults:Plan.none () in
          Alcotest.check instance
            (Fmt.str "%s/%s crash=%d output bit-identical" name pname !r)
            (fst baseline) out;
          Alcotest.(check bool)
            (Fmt.str "%s/%s crash=%d stats bit-identical" name pname !r)
            true
            (snd baseline = stats));
        incr r
      done;
      Alcotest.(check bool)
        (Fmt.str "%s/%s: the crash actually fired" name pname)
        true (!crashed > 0))
    crash_points

let test_crash_matrix_seq () =
  List.iter
    (fun (name, run) -> crash_matrix ~executor:Executor.sequential name run)
    algorithms

let test_crash_matrix_pool () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let name, run = List.hd algorithms in
      crash_matrix ~executor:(Executor.pool pool) name run)

(* Satellite: a resume whose freshest checkpoint was damaged on disk
   falls back one generation — re-running one more round — instead of
   crashing or restarting, and still converges bit-identically. *)
let test_resume_falls_back_a_generation () =
  let name, run = List.hd algorithms in
  let executor = Executor.sequential in
  let baseline = run ~executor ~faults:Plan.none () in
  let dir = temp_dir () in
  let store = Store.on_disk dir in
  let job = Supervisor.create ~kill_after_round:2 ~store "t" in
  (try ignore (run ~job ~executor ~faults:Plan.none ())
   with Supervisor.Killed _ -> ());
  let slot = Filename.concat dir "t.ckpt" in
  flip_byte slot ((Unix.stat slot).Unix.st_size / 2);
  let store = Store.on_disk dir in
  let job = Supervisor.create ~resume:true ~store "t" in
  let out, stats = run ~job ~executor ~faults:Plan.none () in
  Alcotest.(check bool)
    (Fmt.str "%s: resumed from the previous generation" name)
    true
    (job.Supervisor.resumed_from = Some 1);
  Alcotest.(check int) "exactly one fallback" 1 (Store.fallbacks store);
  Alcotest.check instance "output bit-identical after fallback"
    (fst baseline) out;
  Alcotest.(check bool) "stats bit-identical after fallback" true
    (snd baseline = stats)

(* A checkpoint written on one backend resumes on the other with
   bit-identical results. *)
let test_resume_across_backends () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let name, run = List.hd algorithms in
      let baseline = run ~executor:Executor.sequential ~faults:Plan.none () in
      let store = Store.in_memory () in
      let job = Supervisor.create ~kill_after_round:1 ~store "t" in
      (try
         ignore (run ~job ~executor:Executor.sequential ~faults:Plan.none ())
       with Supervisor.Killed _ -> ());
      let job = Supervisor.create ~resume:true ~store "t" in
      let out, stats =
        run ~job ~executor:(Executor.pool pool) ~faults:Plan.none ()
      in
      Alcotest.check instance
        (name ^ ": seq checkpoint resumes on pool")
        (fst baseline) out;
      Alcotest.(check bool) "stats bit-identical across backends" true
        (snd baseline = stats))

(* The kill can also come from the fault plan (kill=N in a CLI spec). *)
let test_kill_from_plan () =
  let faults = Plan.make ~seed:0 { Plan.zero with kill_after = Some 1 } in
  let store = Store.in_memory () in
  let job = Supervisor.create ~store "t" in
  (try
     ignore
       (Multi_round.cascade_triangle ~faults ~job ~p:4 tri_instance);
     Alcotest.fail "plan kill must fire"
   with Supervisor.Killed { round; _ } ->
     Alcotest.(check int) "plan kill round honoured" 1 round);
  let job = Supervisor.create ~resume:true ~store "t" in
  let out, _ =
    Multi_round.cascade_triangle ~faults ~job ~p:4 tri_instance
  in
  let clean, _ = Multi_round.cascade_triangle ~p:4 tri_instance in
  Alcotest.check instance "resume after plan kill" clean out

let test_fingerprint_mismatch () =
  let store = Store.in_memory () in
  let faults_a = Plan.make ~seed:1 { Plan.zero with kill_after = Some 1 } in
  let job = Supervisor.create ~store "t" in
  (try
     ignore
       (Multi_round.cascade_triangle ~faults:faults_a ~job ~p:4 tri_instance)
   with Supervisor.Killed _ -> ());
  let faults_b = Plan.make ~seed:2 { Plan.zero with crash = 0.5 } in
  let job = Supervisor.create ~resume:true ~store "t" in
  try
    ignore
      (Multi_round.cascade_triangle ~faults:faults_b ~job ~p:4 tri_instance);
    Alcotest.fail "resume under a different plan must raise"
  with Invalid_argument _ -> ()

(* The plan's kill and perma entries act through a job; without one
   they are errors, not silently ignored. *)
let test_kill_and_perma_need_a_job () =
  List.iter
    (fun spec ->
      let faults = Plan.make ~seed:0 spec in
      List.iter
        (fun (name, (run : algo)) ->
          match run ~executor:Executor.sequential ~faults () with
          | _ ->
            Alcotest.failf "%s: %a without a job must raise" name Plan.pp
              faults
          | exception Invalid_argument _ -> ())
        algorithms)
    [
      { Plan.zero with kill_after = Some 1 };
      { Plan.zero with perma = Some (1, 0) };
    ]

(* A perma= server must be one of the job's p servers, and p = 1 has
   no survivor to rebalance onto: both raise before any round runs
   rather than report a rebalance that never happened. Every algorithm
   runs on p = 4 (HyperCube on the grid it picks from 4). *)
let test_perma_outside_cluster_rejected () =
  List.iter
    (fun (name, (run : algo)) ->
      List.iter
        (fun dead ->
          let faults =
            Plan.make ~seed:0 { Plan.zero with perma = Some (1, dead) }
          in
          let job = Supervisor.create ~store:(Store.in_memory ()) "t" in
          match run ~job ~executor:Executor.sequential ~faults () with
          | _ -> Alcotest.failf "%s: perma=1:%d must raise" name dead
          | exception Invalid_argument _ ->
            Alcotest.(check int)
              (Fmt.str "%s: perma=1:%d ran no round" name dead)
              0 job.Supervisor.checkpoints)
        [ 9; 4 ])
    algorithms;
  let faults = Plan.make ~seed:0 { Plan.zero with perma = Some (1, 0) } in
  let job = Supervisor.create ~store:(Store.in_memory ()) "t" in
  match Multi_round.cascade_triangle ~faults ~job ~p:1 tri_instance with
  | _ -> Alcotest.fail "perma= on p = 1 must raise"
  | exception Invalid_argument _ -> ()

(* Resuming a finished job is a no-op returning the same results. *)
let test_resume_finished_job () =
  let store = Store.in_memory () in
  let job = Supervisor.create ~store "t" in
  let first = Multi_round.cascade_triangle ~job ~p:4 tri_instance in
  Alcotest.(check int) "one checkpoint per round" 2
    job.Supervisor.checkpoints;
  let job = Supervisor.create ~resume:true ~store "t" in
  let again = Multi_round.cascade_triangle ~job ~p:4 tri_instance in
  Alcotest.check instance "finished job resumes to the same output"
    (fst first) (fst again);
  Alcotest.(check bool) "stats identical" true (snd first = snd again)

(* Datalog: every fixpoint iteration is a checkpointable step. *)
let test_datalog_kill_resume () =
  let program =
    Lamp_datalog.Program.parse
      "T(x,y) <- E(x,y)\n\
       T(x,z) <- T(x,y), E(y,z)\n\
       NT(x,y) <- ADom(x), ADom(y), not T(x,y)"
  in
  let edges = Instance.of_string "E(1,2). E(2,3). E(3,4). E(5,1)." in
  List.iter
    (fun strategy ->
      let baseline = Lamp_datalog.Eval.run ~strategy program edges in
      let r = ref 0 in
      let continue_ = ref true in
      let resumed = ref 0 in
      while !continue_ do
        if !r > 60 then Alcotest.fail "datalog kill matrix did not terminate";
        let store = Store.in_memory () in
        let job = Supervisor.create ~kill_after_round:!r ~store "dl" in
        (match Lamp_datalog.Eval.run ~strategy ~job program edges with
        | _ -> continue_ := false
        | exception Supervisor.Killed _ ->
          incr resumed;
          let job = Supervisor.create ~resume:true ~store "dl" in
          let out = Lamp_datalog.Eval.run ~strategy ~job program edges in
          Alcotest.check instance
            (Fmt.str "datalog kill=%d model bit-identical" !r)
            baseline out);
        incr r
      done;
      Alcotest.(check bool) "datalog kills fired" true (!resumed > 0))
    [ Lamp_datalog.Eval.Naive; Lamp_datalog.Eval.Seminaive ]

(* Disk-backed end-to-end: kill, reopen the directory, resume. *)
let test_kill_resume_on_disk () =
  let dir = temp_dir () in
  let job =
    Supervisor.create ~kill_after_round:1 ~store:(Store.on_disk dir) "t"
  in
  (try ignore (Multi_round.cascade_triangle ~job ~p:4 tri_instance)
   with Supervisor.Killed _ -> ());
  (* A different store handle — as a fresh process would build. *)
  let job = Supervisor.create ~resume:true ~store:(Store.on_disk dir) "t" in
  let out, stats = Multi_round.cascade_triangle ~job ~p:4 tri_instance in
  let clean_out, clean_stats = Multi_round.cascade_triangle ~p:4 tri_instance in
  Alcotest.check instance "disk resume output" clean_out out;
  Alcotest.(check bool) "disk resume stats" true (clean_stats = stats)

(* ------------------------------------------------------------------ *)
(* Survivor rebalancing: permanent crash-stops                         *)

let test_rebalance () =
  List.iter
    (fun (name, (run : algo)) ->
      let clean_out, _ = run ~executor:Executor.sequential ~faults:Plan.none () in
      let faults = Plan.make ~seed:5 { Plan.zero with perma = Some (2, 1) } in
      let store = Store.in_memory () in
      let job = Supervisor.create ~store "t" in
      let out, stats = run ~job ~executor:Executor.sequential ~faults () in
      Alcotest.check instance
        (name ^ ": output survives a permanent crash")
        clean_out out;
      Alcotest.(check int)
        (name ^ ": cluster shrank to the survivors")
        3 stats.Stats.p;
      Alcotest.(check bool)
        (name ^ ": rebalance recorded exactly one crash")
        true
        (List.exists
           (fun (r : Stats.recovery) -> r.Stats.crashed = 1 && r.replayed > 0)
           stats.Stats.recoveries);
      Alcotest.(check bool)
        (name ^ ": supervisor reports the rebalance")
        true
        (job.Supervisor.rebalanced <> []))
    (List.filter (fun (n, _) -> n <> "hypercube") algorithms)

(* Hypercube's grid is a function of p: a restart runs on the survivors,
   one server fewer than the grid, with shares re-optimized for them. *)
let test_rebalance_hypercube () =
  let clean_out, _, _ =
    Hypercube.run ~seed:1 ~p:8 triangle_query tri_instance
  in
  let faults = Plan.make ~seed:5 { Plan.zero with perma = Some (1, 0) } in
  let job = Supervisor.create ~store:(Store.in_memory ()) "t" in
  let out, stats, shares =
    Hypercube.run ~seed:1 ~faults ~job ~p:8 triangle_query tri_instance
  in
  Alcotest.check instance "hypercube output survives a permanent crash"
    clean_out out;
  Alcotest.(check bool) "crash recorded" true
    (List.exists
       (fun (r : Stats.recovery) -> r.Stats.crashed = 1)
       stats.Stats.recoveries);
  Alcotest.(check int) "restarted on the 7 survivors" 7 stats.Stats.p;
  let optimized, _ =
    Shares.optimize ~objective:Shares.Max_load ~p:7
      ~sizes:(fun (a : Ast.atom) ->
        Tuple.Set.cardinal (Instance.tuples tri_instance a.Ast.rel))
      triangle_query
  in
  Alcotest.(check (list (pair string int)))
    "shares re-optimized for the survivors" optimized shares

(* A restart replans for the survivors, and the number the algorithm
   reports is the survivors' plan's: a clean run on p−1 servers gives
   the same. *)
let test_restart_reports_survivor_plan () =
  let faults = Plan.make ~seed:5 { Plan.zero with perma = Some (1, 1) } in
  List.iter
    (fun (name, run) ->
      let job = Supervisor.create ~store:(Store.in_memory ()) "t" in
      let _, stats, after_crash = run ~faults ~job:(Some job) ~p:4 in
      let _, _, clean = run ~faults:Plan.none ~job:None ~p:3 in
      Alcotest.(check int) (name ^ ": restarted on 3 servers") 3 stats.Stats.p;
      Alcotest.(check int)
        (name ^ ": the p = 3 plan's count")
        clean after_crash)
    [
      ( "kst",
        fun ~faults ~job ~p ->
          Kst.run ~seed:1 ~threshold:1 ~faults ?job ~p triangle_query
            tri_instance );
      ( "skew_resilient_triangle",
        fun ~faults ~job ~p ->
          Multi_round.skew_resilient_triangle ~seed:1 ~faults ?job ~p
            tri_instance );
    ]

(* The crash fires once per job, even across a kill/resume boundary
   placed right after the rebalance. *)
let test_rebalance_once_across_resume () =
  let faults = Plan.make ~seed:5 { Plan.zero with perma = Some (1, 2) } in
  let store = Store.in_memory () in
  let job = Supervisor.create ~kill_after_round:1 ~store "t" in
  (try
     ignore
       (Multi_round.cascade_triangle ~faults ~job ~p:4 tri_instance)
   with Supervisor.Killed _ -> ());
  let job = Supervisor.create ~resume:true ~store "t" in
  let out, stats =
    Multi_round.cascade_triangle ~faults ~job ~p:4 tri_instance
  in
  let clean_out, _ = Multi_round.cascade_triangle ~p:4 tri_instance in
  Alcotest.check instance "output correct" clean_out out;
  let crashes =
    List.fold_left
      (fun acc (r : Stats.recovery) -> acc + r.Stats.crashed)
      0 stats.Stats.recoveries
  in
  Alcotest.(check int) "the permanent crash was rebalanced exactly once" 1
    crashes

(* Rebalanced runs agree across backends. *)
let test_rebalance_pool_identical () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let faults = Plan.make ~seed:5 { Plan.zero with perma = Some (2, 0) } in
      let run executor =
        let job = Supervisor.create ~store:(Store.in_memory ()) "t" in
        Multi_round.skew_resilient_triangle ~executor ~faults ~job ~p:4
          tri_instance
      in
      let seq_out, seq_stats, _ = run Executor.sequential in
      let pool_out, pool_stats, _ = run (Executor.pool pool) in
      Alcotest.check instance "rebalanced pool output = seq output" seq_out
        pool_out;
      Alcotest.(check bool) "rebalanced pool stats = seq stats" true
        (seq_stats = pool_stats))

(* ------------------------------------------------------------------ *)
(* Speculative straggler re-execution                                  *)

(* The straggler verdict, case by case. Every task straggles
   (straggle = 1, stalls of 0.1–1 ms); the budget decides who wins. *)
let test_speculate_primitive () =
  let verdict ~speculate task =
    Plan.straggler
      (Plan.make ~seed:7 { Plan.zero with straggle = 1.0; speculate })
      ~round:1 ~phase:Plan.Compute ~task
  in
  let v = verdict ~speculate:0.002 0 in
  Alcotest.(check bool) "primary beats the deadline" false v.Plan.backup;
  Alcotest.(check bool) "stall drawn" true
    (v.Plan.stall >= 0.0001 && v.Plan.stall <= 0.001);
  Alcotest.(check bool) "primary waits its stall" true (v.Plan.wait = v.Plan.stall);
  let v' = verdict ~speculate:0.00005 0 in
  Alcotest.(check bool) "straggler loses to the backup" true v'.Plan.backup;
  Alcotest.(check bool) "the budget does not move the stall" true
    (v'.Plan.stall = v.Plan.stall);
  Alcotest.(check bool) "backup waits the budget" true (v'.Plan.wait = 0.00005);
  Alcotest.(check bool) "no budget, no backup" true
    (verdict ~speculate:0.0 0 = v);
  Alcotest.(check bool) "the same verdict every call" true
    (verdict ~speculate:0.00005 0 = v');
  (* A budget equal to a drawn stall: the seeded draw breaks the tie,
     and over 32 tasks it goes both ways. *)
  let tie task =
    let stall = (verdict ~speculate:0.0 task).Plan.stall in
    let v = verdict ~speculate:stall task in
    Alcotest.(check bool) "a tie waits the stall" true (v.Plan.wait = stall);
    v.Plan.backup
  in
  let ties = List.init 32 tie in
  Alcotest.(check bool) "tie to primary" true (List.mem false ties);
  Alcotest.(check bool) "tie to backup" true (List.mem true ties);
  Alcotest.(check bool) "no plan, no straggler" true
    (Plan.straggler Plan.none ~round:1 ~phase:Plan.Compute ~task:0
    = { Plan.stall = 0.0; wait = 0.0; backup = false })

let straggler_plan =
  Plan.make ~seed:7 { Plan.zero with straggle = 1.0; speculate = 0.0005 }

let unmitigated_plan = Plan.make ~seed:7 { Plan.zero with straggle = 1.0 }

let test_speculation_bit_identity () =
  let clean_out, clean_stats =
    Multi_round.cascade_triangle ~p:4 tri_instance
  in
  let out, stats =
    Multi_round.cascade_triangle ~faults:straggler_plan ~p:4 tri_instance
  in
  Alcotest.check instance "speculated output bit-identical" clean_out out;
  Alcotest.(check bool) "loads unchanged by speculation" true
    (Stats.without_recoveries stats = clean_stats);
  Alcotest.(check bool) "speculations recorded" true
    (Stats.speculations stats > 0)

let test_speculation_pool_identical () =
  let pool = Pool.create ~domains:4 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      let seq =
        Multi_round.cascade_triangle ~faults:straggler_plan ~p:4 tri_instance
      in
      let pooled =
        Multi_round.cascade_triangle
          ~executor:(Executor.pool pool)
          ~faults:straggler_plan ~p:4 tri_instance
      in
      Alcotest.check instance "pool speculation output = seq" (fst seq)
        (fst pooled);
      Alcotest.(check bool) "pool speculation stats = seq" true
        (snd seq = snd pooled))

(* The whole point: mitigation takes the straggler off the critical
   path. Every task stalls 0.1–1 ms; with a 0.5 ms budget the long
   stalls are cut to the budget, so wall-clock must drop. *)
let test_speculation_saves_wallclock () =
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  (* Median of three to shrug off scheduler noise. *)
  let median f =
    let ts = List.sort compare [ time f; time f; time f ] in
    List.nth ts 1
  in
  let run faults () =
    Multi_round.cascade_triangle ~faults ~p:8 tri_instance
  in
  let full = median (run unmitigated_plan) in
  let mitigated = median (run straggler_plan) in
  Alcotest.(check bool)
    (Fmt.str "mitigated %.1fms < unmitigated %.1fms" (mitigated *. 1000.)
       (full *. 1000.))
    true
    (mitigated < full)

(* Satellite: the injected stall is visible in the observability
   samples, and backup wins are marked. *)
let test_straggle_surfaces_in_obs () =
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    (fun () ->
      Trace.reset ();
      ignore
        (Multi_round.cascade_triangle ~faults:straggler_plan ~p:4 tri_instance);
      let events = Trace.events () in
      let samples =
        List.filter
          (function
            | Trace.Sample { name = "fault.straggle_delay_ms"; value; _ } ->
              value > 0.0
            | _ -> false)
          events
      in
      Alcotest.(check bool) "straggle delays sampled" true (samples <> []);
      let speculated =
        List.exists
          (function
            | Trace.Instant { name = "fault.speculate"; _ } -> true
            | _ -> false)
          events
      in
      Alcotest.(check bool) "backup wins marked" true speculated)

(* ------------------------------------------------------------------ *)
(* Retry backoff                                                       *)

let test_exponential_backoff () =
  let d1 = Executor.exponential_backoff ~seed:3 () in
  let d2 = Executor.exponential_backoff ~seed:3 () in
  let d3 = Executor.exponential_backoff ~seed:4 () in
  let differs = ref false in
  for k = 1 to 8 do
    Alcotest.(check (float 0.0))
      (Fmt.str "same seed, same delay for attempt %d" k)
      (d1 k) (d2 k);
    if d1 k <> d3 k then differs := true;
    Alcotest.(check bool) "delay positive" true (d1 k > 0.0);
    (* base 1ms, factor 2, cap 100ms, jitter < 0.5 *)
    Alcotest.(check bool) "delay below jittered cap" true (d1 k <= 0.15)
  done;
  Alcotest.(check bool) "different seeds decorrelate" true !differs;
  Alcotest.(check bool) "growth before the cap" true (d1 3 > d1 1);
  Alcotest.check_raises "negative base rejected"
    (Invalid_argument "Executor.exponential_backoff: negative parameter")
    (fun () ->
      ignore (Executor.exponential_backoff ~base:(-1.0) ~seed:0 () : int -> float))

exception Boom

let test_with_retry_delay_and_budget () =
  (* Transient failure absorbed; delays slept between attempts. *)
  let attempts = ref 0 in
  let slept = ref [] in
  let v =
    Executor.with_retry
      ~delay:(fun k ->
        slept := k :: !slept;
        0.0005)
      ~retryable:(fun e -> e = Boom)
      (fun ~attempt ->
        incr attempts;
        if attempt < 3 then raise Boom else "ok")
  in
  Alcotest.(check string) "eventually succeeds" "ok" v;
  Alcotest.(check int) "three attempts" 3 !attempts;
  Alcotest.(check (list int)) "delay consulted per failed attempt" [ 2; 1 ]
    !slept;
  (* The budget caps cumulative sleep: the retry whose delay would
     exceed it is abandoned and the failure propagates. *)
  let attempts = ref 0 in
  (try
     ignore
       (Executor.with_retry
          ~delay:(fun _ -> 0.002)
          ~budget:0.003
          ~retryable:(fun e -> e = Boom)
          (fun ~attempt:_ ->
            incr attempts;
            raise Boom));
     Alcotest.fail "budget exhaustion must propagate"
   with Boom -> ());
  Alcotest.(check int) "gave up after the budget, before max_attempts" 2
    !attempts;
  (* Non-retryable exceptions propagate immediately, no sleeping. *)
  let attempts = ref 0 in
  (try
     ignore
       (Executor.with_retry
          ~delay:(fun _ -> 10.0)
          ~retryable:(fun _ -> false)
          (fun ~attempt:_ ->
            incr attempts;
            raise Boom));
     Alcotest.fail "non-retryable must propagate"
   with Boom -> ());
  Alcotest.(check int) "single attempt" 1 !attempts

(* Transient faults + backoff delays inside a cluster round stay
   bit-identical to the clean run. *)
let test_retry_backoff_in_cluster () =
  let faults = Plan.make ~seed:9 { Plan.zero with transient = 0.5 } in
  let clean_out, clean_stats = Multi_round.cascade_triangle ~p:4 tri_instance in
  let out, stats =
    Multi_round.cascade_triangle ~faults ~p:4 tri_instance
  in
  Alcotest.check instance "retried output bit-identical" clean_out out;
  Alcotest.(check bool) "clean portion unchanged" true
    (Stats.without_recoveries stats = clean_stats);
  Alcotest.(check bool) "retries recorded" true (Stats.retries stats > 0)

(* ------------------------------------------------------------------ *)

let () =
  let open Alcotest in
  run "lamp.jobs"
    [
      ( "codec",
        [
          test_case "primitive round-trips" `Quick test_codec_roundtrip;
          test_case "canonical instances" `Quick test_codec_instance_canonical;
          test_case "each relation name once" `Quick test_codec_names_once;
          test_case "corruption detected" `Quick test_codec_corrupt;
          test_case "hostile length prefixes" `Quick test_codec_hostile_lengths;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ qcheck_roundtrip; qcheck_truncation; qcheck_byte_flip ] );
      ( "store",
        [
          test_case "memory backend" `Quick test_store_memory;
          test_case "disk backend" `Quick test_store_disk;
          test_case "generations and fallback" `Quick test_store_generations;
          test_case "stale tmp litter swept" `Quick test_store_sweeps_litter;
          test_case "ENOSPC absorbed by retry" `Quick test_store_enospc_retry;
          test_case "crash leaves a good generation" `Quick
            test_store_crash_leaves_good_generation;
          test_case "fsck detects and repairs" `Quick test_fsck;
          test_case "disk mismatch rejected" `Quick
            test_store_disk_rejects_mismatch;
        ] );
      ( "cluster",
        [
          test_case "snapshot/restore round-trip" `Quick
            test_cluster_snapshot_roundtrip;
          test_case "corrupt snapshot rejected" `Quick
            test_cluster_restore_corrupt;
        ] );
      ( "kill-resume",
        [
          test_case "matrix (seq)" `Quick test_kill_resume_seq;
          test_case "matrix (pool)" `Quick test_kill_resume_pool;
          test_case "matrix under faults" `Quick test_kill_resume_under_faults;
          test_case "crash-point matrix (seq)" `Quick test_crash_matrix_seq;
          test_case "crash-point matrix (pool)" `Quick test_crash_matrix_pool;
          test_case "falls back a generation" `Quick
            test_resume_falls_back_a_generation;
          test_case "across backends" `Quick test_resume_across_backends;
          test_case "kill from the fault plan" `Quick test_kill_from_plan;
          test_case "fingerprint mismatch rejected" `Quick
            test_fingerprint_mismatch;
          test_case "finished job resumes as no-op" `Quick
            test_resume_finished_job;
          test_case "kill and perma need a job" `Quick
            test_kill_and_perma_need_a_job;
          test_case "perma server outside the cluster" `Quick
            test_perma_outside_cluster_rejected;
          test_case "datalog per-iteration" `Quick test_datalog_kill_resume;
          test_case "disk-backed end to end" `Quick test_kill_resume_on_disk;
        ] );
      ( "rebalance",
        [
          test_case "survivors produce the clean output" `Quick test_rebalance;
          test_case "hypercube replans its grid" `Quick
            test_rebalance_hypercube;
          test_case "fires once across kill/resume" `Quick
            test_rebalance_once_across_resume;
          test_case "backend-independent" `Quick test_rebalance_pool_identical;
          test_case "restart reports the survivors' plan" `Quick
            test_restart_reports_survivor_plan;
        ] );
      ( "speculation",
        [
          test_case "primitive decides deterministically" `Quick
            test_speculate_primitive;
          test_case "bit-identical results" `Quick
            test_speculation_bit_identity;
          test_case "backend-independent" `Quick
            test_speculation_pool_identical;
          test_case "removes stall from the critical path" `Quick
            test_speculation_saves_wallclock;
          test_case "stalls surface in obs" `Quick
            test_straggle_surfaces_in_obs;
        ] );
      ( "retry",
        [
          test_case "exponential backoff deterministic" `Quick
            test_exponential_backoff;
          test_case "delay schedule and budget" `Quick
            test_with_retry_delay_and_budget;
          test_case "bit-identity in cluster rounds" `Quick
            test_retry_backoff_in_cluster;
        ] );
    ]
