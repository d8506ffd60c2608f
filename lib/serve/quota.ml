type t = {
  rate : float;
  burst : float;
  clock : unit -> float;
  mutable tokens : float;
  mutable last : float;
}

let create ?(clock = Unix.gettimeofday) ~rate ~burst () =
  if not (rate > 0.0) then invalid_arg "Quota.create: rate must be > 0";
  if not (burst >= 1.0) then invalid_arg "Quota.create: burst must be >= 1";
  { rate; burst; clock; tokens = burst; last = clock () }

(* Lazy refill: tokens accrue on observation, so an idle bucket costs
   nothing. Clock jumps grant no free capacity in either direction: a
   backwards step (ntp) refills nothing but still resyncs [last] —
   otherwise every refill until the clock re-passed the old mark would
   be skipped, freezing the bucket — and a huge forward jump (or an
   [infinity] clock) is clamped at [burst], never an overflowing token
   count. *)
let refill t =
  let now = t.clock () in
  let dt = now -. t.last in
  if dt > 0.0 then
    t.tokens <- Float.min t.burst (t.tokens +. (dt *. t.rate));
  (* nan from an insane clock would poison every later comparison;
     keep the previous mark instead. *)
  if not (Float.is_nan now) then t.last <- now

let try_take ?(cost = 1.0) t =
  refill t;
  if t.tokens >= cost then begin
    t.tokens <- t.tokens -. cost;
    true
  end
  else false

let tokens t =
  refill t;
  t.tokens
