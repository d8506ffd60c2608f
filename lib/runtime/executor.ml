type seq_state = {
  batches : int ref;  (* inline task counter *)
  active : int Atomic.t;  (* indices of the running batch not yet done *)
}

type backend =
  | Sequential of seq_state
  | Pool_backend of Pool.t

type t = {
  backend : backend;
  chunk : int option;
}

let sequential =
  { backend = Sequential { batches = ref 0; active = Atomic.make 0 };
    chunk = None }

let pool ?chunk p = { backend = Pool_backend p; chunk }

let workers t =
  match t.backend with Sequential _ -> 1 | Pool_backend p -> Pool.size p

let backend_name t =
  match t.backend with Sequential _ -> "seq" | Pool_backend _ -> "pool"

(* At most 4 chunks per worker: enough slack for stealing to rebalance
   skewed per-index costs, few enough that per-task locking stays
   negligible. *)
let chunk_size t ~chunk ~n =
  match chunk, t.chunk with
  | Some c, _ | None, Some c ->
    if c < 1 then invalid_arg "Executor: chunk must be >= 1";
    c
  | None, None -> max 1 ((n + (4 * workers t) - 1) / (4 * workers t))

(* The sequential gauge counts remaining indices of the running batch,
   mirroring [Pool.in_flight]; a monitoring thread (the serve stats
   endpoint) reads it concurrently, hence the [Fun.protect] so a raising
   task cannot leave the gauge stuck non-zero. *)
let seq_batch s ~n body =
  incr s.batches;
  Atomic.set s.active n;
  Fun.protect
    ~finally:(fun () -> Atomic.set s.active 0)
    (fun () ->
      body (fun () -> Atomic.decr s.active))

let parallel_for t ?chunk ~n f =
  if n > 0 then
    match t.backend with
    | Sequential s ->
      seq_batch s ~n (fun done_one ->
          for i = 0 to n - 1 do
            f ~worker:0 i;
            done_one ()
          done)
    | Pool_backend p ->
      let c = chunk_size t ~chunk ~n in
      let tasks = (n + c - 1) / c in
      Pool.run p ~tasks (fun ~worker k ->
          let hi = min n ((k + 1) * c) in
          for i = k * c to hi - 1 do
            f ~worker i
          done)

let map_array t ?chunk ~n f =
  let out = Array.make n None in
  parallel_for t ?chunk ~n (fun ~worker:_ i -> out.(i) <- Some (f i));
  Array.map (function Some x -> x | None -> assert false) out

let map_reduce t ?chunk ~n ~map ~combine init =
  if n <= 0 then init
  else begin
    let c = chunk_size t ~chunk ~n in
    let tasks = (n + c - 1) / c in
    let fold_range k =
      let hi = min n ((k + 1) * c) in
      let acc = ref (map (k * c)) in
      for i = (k * c) + 1 to hi - 1 do
        acc := combine !acc (map i)
      done;
      !acc
    in
    let partials =
      match t.backend with
      | Sequential s ->
        seq_batch s ~n:tasks (fun done_one ->
            Array.init tasks (fun k ->
                let r = fold_range k in
                done_one ();
                r))
      | Pool_backend p ->
        let out = Array.make tasks None in
        Pool.run p ~tasks (fun ~worker:_ k -> out.(k) <- Some (fold_range k));
        Array.map (function Some x -> x | None -> assert false) out
    in
    Array.fold_left combine init partials
  end

let retry_counter = Lamp_obs.Trace.counter "runtime.retries"

(* Draw label of the backoff jitter, outside the fault models' label
   spaces (see [Lamp_faults.Plan.draw]). *)
let jitter_label = 300

let exponential_backoff ?(base = 0.001) ?(factor = 2.0) ?(max_delay = 0.1)
    ?(jitter = 0.5) ~seed () =
  if base < 0.0 || factor < 1.0 || max_delay < 0.0 || jitter < 0.0 then
    invalid_arg "Executor.exponential_backoff: negative parameter";
  fun attempt ->
    let raw = base *. (factor ** float_of_int (attempt - 1)) in
    let capped = Float.min raw max_delay in
    let u = Lamp_faults.Plan.draw ~seed ~label:jitter_label attempt 0 0 in
    capped *. (1.0 +. (jitter *. u))

let with_retry ?(max_attempts = 4) ?(backoff = ignore) ?delay ?budget
    ?(hint = fun (_ : exn) -> None) ~retryable f =
  if max_attempts < 1 then invalid_arg "Executor.with_retry: max_attempts < 1";
  (match budget with
  | Some b when b < 0.0 -> invalid_arg "Executor.with_retry: budget < 0"
  | _ -> ());
  (* The sleep before the next attempt: the schedule's delay, floored
     by any server-suggested retry-after the failed attempt carried
     (an [Overloaded {retry_after_s}] style hint). *)
  let effective_delay e attempt =
    let d = match delay with Some d -> d attempt | None -> 0.0 in
    match hint e with Some h when h > d -> h | _ -> d
  in
  let slept = ref 0.0 in
  let rec go attempt =
    try f ~attempt
    with
    | e
      when retryable e
           && attempt < max_attempts
           &&
           (* a retry whose backoff sleep would exceed the budget is
              abandoned: the exception propagates instead *)
           (match budget with
           | Some b -> !slept +. effective_delay e attempt <= b
           | None -> true)
    ->
      Lamp_obs.Trace.incr retry_counter;
      backoff attempt;
      let s = effective_delay e attempt in
      if s > 0.0 then Unix.sleepf s;
      slept := !slept +. s;
      go (attempt + 1)
  in
  go 1

type counters = {
  tasks : int;
  steals : int;
}

let counters t =
  match t.backend with
  | Sequential s -> { tasks = !(s.batches); steals = 0 }
  | Pool_backend p -> { tasks = Pool.tasks_run p; steals = Pool.steals p }

let in_flight t =
  match t.backend with
  | Sequential s -> Atomic.get s.active
  | Pool_backend p -> Pool.in_flight p

let backend_pool t =
  match t.backend with Sequential _ -> None | Pool_backend p -> Some p
