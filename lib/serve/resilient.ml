module Executor = Lamp_runtime.Executor

type config = {
  max_attempts : int;
  seed : int;
  base_delay_s : float;
  max_delay_s : float;
  budget_s : float option;
}

let default_config =
  {
    max_attempts = 5;
    seed = 1;
    base_delay_s = 0.001;
    max_delay_s = 0.25;
    budget_s = Some 10.0;
  }

type t = {
  config : config;
  connect : unit -> Client.t;
  client_name : string;
  mutex : Mutex.t;
  (* The live session, re-established lazily after a fatal failure. *)
  mutable conn : Client.t option;
  (* Idempotency keys: one monotone counter per wrapper, seeded with a
     per-wrapper nonce in the high bits, so each logical operation gets
     a fresh key and every retry of that operation re-sends the same
     one — and a restarted process sharing a client name lands in a
     different key range instead of replaying the old process's dedup
     entries. *)
  mutable next_key : int;
  retries : int Atomic.t;
}

let create ?(config = default_config) ?(client = "resilient") ?key_nonce
    connect =
  if config.max_attempts < 1 then
    invalid_arg "Resilient.create: max_attempts must be >= 1";
  if config.base_delay_s < 0.0 || config.max_delay_s < 0.0 then
    invalid_arg "Resilient.create: negative delay";
  let nonce =
    (match key_nonce with
    | Some n -> n
    | None ->
      (* Time-and-pid entropy, not the seeded streams: the nonce must
         differ across process restarts, which is exactly what seeded
         determinism would forbid. Keys never influence results, only
         which dedup entries two wrappers could collide on — and the
         server's digest check turns any residual collision into a
         typed error, not a wrong answer. *)
      Random.State.bits (Random.State.make_self_init ()))
    land 0x3FFFFFFF
  in
  {
    config;
    connect;
    client_name = client;
    mutex = Mutex.create ();
    conn = None;
    next_key = nonce lsl 32;
    retries = Atomic.make 0;
  }

let retries t = Atomic.get t.retries

(* The server-suggested floor for the next sleep. *)
let hint = function
  | Client.Server_error (Overloaded { retry_after_s }, _) ->
    Some retry_after_s
  | _ -> None

(* The live session, (re)connecting and re-identifying as needed. The
   client name is stable across reconnects, so the server's dedup
   window keeps recognizing this wrapper's keys. *)
let session t =
  match t.conn with
  | Some c when not (Client.closed c) -> c
  | _ ->
    (match t.conn with Some c -> Client.close c | None -> ());
    let c = t.connect () in
    (match Client.hello ~client:t.client_name c with
    | (_ : string) -> ()
    | exception e ->
      Client.close c;
      raise e);
    t.conn <- Some c;
    c

let fresh_key t =
  let k = t.next_key in
  t.next_key <- k + 1;
  k

(* Run [f] against the live session under the retry policy. Each
   attempt reconnects if the previous one tore the session down; the
   backoff schedule is seeded, so a given wrapper retries on the same
   deterministic cadence every run.

   A failure is worth another attempt when the transport broke, when
   the server asked us to back off ([Overloaded]), or when it could
   not even decode our frame ([Corrupt_frame] — the op never ran).
   [Throttled] (the client's own quota) and [Rejected] (the server is
   full of sessions) are final. A lost connection is always
   retryable: every engine op carries its idempotency key, so the
   server replays instead of re-applying. *)
let run t f =
  Mutex.protect t.mutex (fun () ->
      let delay =
        Executor.exponential_backoff ~base:t.config.base_delay_s
          ~max_delay:t.config.max_delay_s ~seed:t.config.seed ()
      in
      let retryable = function
        | Client.Connection_lost _ | Client.Timed_out _
        | Client.Server_error ((Overloaded _ | Corrupt_frame), _) ->
          true
        | _ -> false
      in
      Executor.with_retry ~max_attempts:t.config.max_attempts ~delay
        ?budget:t.config.budget_s ~hint
        ~backoff:(fun _ -> Atomic.incr t.retries)
        ~retryable
        (fun ~attempt:_ -> f (session t)))

let prepare t ~instance ~query =
  let key = fresh_key t in
  run t (fun c -> Client.prepare ~key c ~instance ~query)

let execute t ~instance ?mode plan =
  let key = fresh_key t in
  run t (fun c -> Client.execute ~key c ~instance ?mode plan)

let ingest t ~instance facts =
  let key = fresh_key t in
  run t (fun c -> Client.ingest ~key c ~instance facts)

let stats t = run t Client.stats
let health t = run t Client.health
let metrics t = run t Client.metrics
let trace_dump ?limit t = run t (fun c -> Client.trace_dump ?limit c)

let close t =
  Mutex.protect t.mutex (fun () ->
      match t.conn with
      | Some c ->
        t.conn <- None;
        Client.close c
      | None -> ())
