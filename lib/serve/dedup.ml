(* The idempotency-key dedup window. One entry per (client, key): a
   keyed op that completed successfully keeps its recorded response,
   as the server encoded it, until capacity evicts it; a retry of the
   same logical op writes that record again instead of re-executing. An entry is Pending from [acquire]
   to [commit] or [abort], which the server's loop does within one
   request.

   Every entry also carries a digest of the request it was recorded
   for. Client names are self-reported and keys are client-allocated,
   so a colliding (client, key) — a restarted client reusing its
   counter, or two processes sharing a name — must never be answered
   with another operation's recording: a digest mismatch surfaces as
   [`Mismatch] and the server types it as a bad request. *)

type state =
  | Pending
  | Finished of int * string list

type token = (string * int) * int

type t = {
  capacity : int;
  entries : (string * int, state) Hashtbl.t;
  (* Completion order; only Finished entries are queued for eviction. *)
  order : (string * int) Queue.t;
  mutable hits : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Dedup.create: capacity < 1";
  {
    capacity;
    entries = Hashtbl.create (min capacity 64);
    order = Queue.create ();
    hits = 0;
  }

let acquire t ~client ~key ~digest =
  let k = (client, key) in
  match Hashtbl.find_opt t.entries k with
  | Some (Finished (d, rs)) when d = digest ->
    t.hits <- t.hits + 1;
    `Replay rs
  | Some _ ->
    (* Recorded for a different request, whose answer this caller must
       never get, or claimed and not yet resolved. *)
    `Mismatch
  | None ->
    Hashtbl.replace t.entries k Pending;
    `Run (k, digest)

let commit t ((k, digest) : token) payloads =
  Hashtbl.replace t.entries k (Finished (digest, payloads));
  Queue.push k t.order;
  (* Evict oldest finished entries past capacity; pendings are not in
     [order] and never evicted. *)
  while Queue.length t.order > t.capacity do
    let old = Queue.pop t.order in
    match Hashtbl.find_opt t.entries old with
    | Some (Finished _) -> Hashtbl.remove t.entries old
    | Some Pending | None -> ()
  done

let abort t ((k, _) : token) =
  match Hashtbl.find_opt t.entries k with
  | Some Pending -> Hashtbl.remove t.entries k
  | Some (Finished _) | None -> ()

let hits t = t.hits
let length t = Hashtbl.length t.entries
