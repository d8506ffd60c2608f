(* The idempotency-key dedup window. One entry per (client, key): a
   keyed op that completed successfully keeps its recorded response
   payloads, encoded once when they were first sent, until capacity
   evicts it; a retry of the same logical op writes those payloads
   again instead of re-executing. In-flight entries are
   Pending so a concurrent retry (the first attempt's connection died
   but its session thread is still executing) blocks and then replays,
   rather than racing a second execution of the same ingest.

   Every entry also carries a digest of the request it was recorded
   for. Client names are self-reported and keys are client-allocated,
   so a colliding (client, key) — a restarted client reusing its
   counter, or two processes sharing a name — must never be answered
   with another operation's recording: a digest mismatch surfaces as
   [`Mismatch] and the server types it as a bad request. *)

type state =
  | Pending of int
  | Finished of int * string list

type token = (string * int) * int

type t = {
  lock : Mutex.t;
  done_cond : Condition.t;
  capacity : int;
  entries : (string * int, state) Hashtbl.t;
  (* Completion order; only Finished entries are queued for eviction. *)
  order : (string * int) Queue.t;
  mutable hits : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Dedup.create: capacity < 1";
  {
    lock = Mutex.create ();
    done_cond = Condition.create ();
    capacity;
    entries = Hashtbl.create (min capacity 64);
    order = Queue.create ();
    hits = 0;
  }

let acquire t ~client ~key ~digest =
  let k = (client, key) in
  Mutex.protect t.lock (fun () ->
      let rec claim () =
        match Hashtbl.find_opt t.entries k with
        | Some (Finished (d, rs)) when d = digest ->
          t.hits <- t.hits + 1;
          `Replay rs
        | Some (Finished _) ->
          (* The key was recorded for a different request: replaying
             would hand this caller someone else's answer. *)
          `Mismatch
        | Some (Pending d) when d <> digest -> `Mismatch
        | Some (Pending _) ->
          (* First execution still running; wait for its verdict. An
             abort removes the entry and we claim the re-execution. *)
          Condition.wait t.done_cond t.lock;
          claim ()
        | None ->
          Hashtbl.replace t.entries k (Pending digest);
          `Run (k, digest)
      in
      claim ())

let commit t ((k, digest) : token) payloads =
  Mutex.protect t.lock (fun () ->
      Hashtbl.replace t.entries k (Finished (digest, payloads));
      Queue.push k t.order;
      (* Evict oldest finished entries past capacity; pendings are not
         in [order] and never evicted. *)
      while Queue.length t.order > t.capacity do
        let old = Queue.pop t.order in
        match Hashtbl.find_opt t.entries old with
        | Some (Finished _) -> Hashtbl.remove t.entries old
        | Some (Pending _) | None -> ()
      done;
      Condition.broadcast t.done_cond)

let abort t ((k, _) : token) =
  Mutex.protect t.lock (fun () ->
      (match Hashtbl.find_opt t.entries k with
      | Some (Pending _) -> Hashtbl.remove t.entries k
      | Some (Finished _) | None -> ());
      Condition.broadcast t.done_cond)

let hits t = Mutex.protect t.lock (fun () -> t.hits)
let length t = Mutex.protect t.lock (fun () -> Hashtbl.length t.entries)
