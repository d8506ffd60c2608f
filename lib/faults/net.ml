(* Seeded, deterministic wire-level fault plans and the in-process
   chaos proxy that applies them between a Serve.Client and a
   Serve.Server. Follows the Faults.Plan philosophy: every decision is
   a pure function of (seed, connection ordinal, direction), never of
   wall-clock time or scheduling, so a hostile-network run is
   reproducible from its seed alone. *)

type spec = {
  refuse : float;
  accept_delay : float;
  accept_delay_s : float;
  reset : float;
  truncate : float;
  stall : float;
  stall_s : float;
  trickle : float;
  flip : float;
  window : int;
}

let zero =
  {
    refuse = 0.0;
    accept_delay = 0.0;
    accept_delay_s = 0.02;
    reset = 0.0;
    truncate = 0.0;
    stall = 0.0;
    stall_s = 0.05;
    trickle = 0.0;
    flip = 0.0;
    window = 2048;
  }

let chaos =
  {
    zero with
    refuse = 0.05;
    accept_delay = 0.2;
    reset = 0.12;
    truncate = 0.08;
    stall = 0.15;
    trickle = 0.15;
    flip = 0.1;
  }

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
      invalid_arg (Fmt.str "Faults.Net.make: %s = %g not in [0, 1]" name v)
  in
  prob "refuse" spec.refuse;
  prob "accept_delay" spec.accept_delay;
  prob "reset" spec.reset;
  prob "truncate" spec.truncate;
  prob "stall" spec.stall;
  prob "trickle" spec.trickle;
  prob "flip" spec.flip;
  if spec.reset +. spec.truncate > 1.0 then
    invalid_arg "Faults.Net.make: reset + truncate > 1";
  if spec.accept_delay_s < 0.0 || spec.stall_s < 0.0 then
    invalid_arg "Faults.Net.make: negative duration";
  if spec.window < 1 then
    invalid_arg (Fmt.str "Faults.Net.make: window = %d < 1" spec.window);
  On { seed; spec }

let seed = function Off -> 0 | On p -> p.seed
let spec = function Off -> zero | On p -> p.spec

(* ------------------------------------------------------------------ *)
(* Decisions. Labels live in the 100+ range so they never collide with
   Faults.Plan's (1-7) under a shared seed. Coordinates are
   (conn, dir, 0) where dir is 0 for client->server, 1 for
   server->client; accept-time decisions use dir = 0. *)

let refuse_label = 100
and accept_delay_label = 101
and accept_delay_len_label = 102
and cut_label = 103
and cut_off_label = 104
and stall_label = 105
and stall_off_label = 106
and stall_len_label = 107
and flip_label = 108
and flip_off_label = 109
and flip_mask_label = 110
and trickle_label = 111
and trickle_chunk_label = 112
and trickle_delay_label = 113

type cut =
  | Reset
  | Truncate

type stream_faults = {
  cut : (int * cut) option;
  stall_at : (int * float) option;
  flip_at : (int * int) option;
  trickle_by : (int * float) option;
}

type conn_faults = {
  refused : bool;
  delay_s : float;
  c2s : stream_faults;
  s2c : stream_faults;
}

let no_stream_faults =
  { cut = None; stall_at = None; flip_at = None; trickle_by = None }

let stream ~seed ~spec ~conn ~dir =
  let draw label = Plan.draw ~seed ~label conn dir 0 in
  let offset label = int_of_float (draw label *. float_of_int spec.window) in
  let cut =
    let u = draw cut_label in
    if u < spec.reset then Some (offset cut_off_label, Reset)
    else if u < spec.reset +. spec.truncate then
      Some (offset cut_off_label, Truncate)
    else None
  in
  let stall_at =
    if spec.stall > 0.0 && draw stall_label < spec.stall then
      Some
        ( offset stall_off_label,
          spec.stall_s *. (0.2 +. (0.8 *. draw stall_len_label)) )
    else None
  in
  let flip_at =
    if spec.flip > 0.0 && draw flip_label < spec.flip then
      Some
        ( offset flip_off_label,
          1 + int_of_float (draw flip_mask_label *. 254.999) )
    else None
  in
  let trickle_by =
    if spec.trickle > 0.0 && draw trickle_label < spec.trickle then
      Some
        ( 1 + int_of_float (draw trickle_chunk_label *. 7.0),
          0.0002 +. (0.0008 *. draw trickle_delay_label) )
    else None
  in
  { cut; stall_at; flip_at; trickle_by }

let no_conn_faults =
  { refused = false; delay_s = 0.0; c2s = no_stream_faults;
    s2c = no_stream_faults }

let connection t ~conn =
  match t with
  | Off -> no_conn_faults
  | On { seed; spec } ->
    let draw label = Plan.draw ~seed ~label conn 0 0 in
    let refused = spec.refuse > 0.0 && draw refuse_label < spec.refuse in
    let delay_s =
      if spec.accept_delay > 0.0 && draw accept_delay_label < spec.accept_delay
      then spec.accept_delay_s *. (0.1 +. (0.9 *. draw accept_delay_len_label))
      else 0.0
    in
    {
      refused;
      delay_s;
      c2s = stream ~seed ~spec ~conn ~dir:0;
      s2c = stream ~seed ~spec ~conn ~dir:1;
    }

(* ------------------------------------------------------------------ *)

let field spec key v =
  let open Grammar in
  match (key, v) with
  | "refuse", Some v -> { spec with refuse = float v }
  | "delay", Some v -> { spec with accept_delay = float v }
  | "delay_s", Some v -> { spec with accept_delay_s = float v }
  | "reset", Some v -> { spec with reset = float v }
  | "truncate", Some v -> { spec with truncate = float v }
  | "stall", Some v -> { spec with stall = float v }
  | "stall_s", Some v -> { spec with stall_s = float v }
  | "trickle", Some v -> { spec with trickle = float v }
  | "flip", Some v -> { spec with flip = float v }
  | "window", Some v -> { spec with window = int v }
  | _ -> raise Bad_field

let of_string ?(seed = 0) s =
  Grammar.parse ~who:"Net"
    ~expected:
      "key=float among refuse/delay/reset/truncate/stall/trickle/flip, \
       key=seconds among delay_s/stall_s, or window=BYTES"
    ~none ~chaos ~zero ~make field ~seed s

let pp ppf = function
  | Off -> Fmt.string ppf "none"
  | On { seed; spec } ->
    Grammar.pp ~seed ppf
      (Grammar.probs
         [
           ("refuse", spec.refuse);
           ("delay", spec.accept_delay);
           ("reset", spec.reset);
           ("truncate", spec.truncate);
           ("stall", spec.stall);
           ("trickle", spec.trickle);
           ("flip", spec.flip);
         ]
      @ (if spec.accept_delay > 0.0 && spec.accept_delay_s <> zero.accept_delay_s
         then [ "delay_s=" ^ Grammar.num spec.accept_delay_s ]
         else [])
      @ (if spec.stall > 0.0 && spec.stall_s <> zero.stall_s then
           [ "stall_s=" ^ Grammar.num spec.stall_s ]
         else [])
      @
      if spec.window <> zero.window then [ Fmt.str "window=%d" spec.window ]
      else [])

(* ------------------------------------------------------------------ *)
(* The chaos proxy: a real listening socket that relays every accepted
   connection to an upstream server through the plan's stream faults.
   One acceptor thread plus two pump threads per live connection. The
   acceptor blocks in accept(2), woken by the listener's SO_RCVTIMEO or
   by [stop] shutting the listener down, as in Serve.Server. *)

module Proxy = struct
  type proxy = {
    plan : t;
    upstream : Unix.sockaddr;
    listen_fd : Unix.file_descr;
    listen_addr : Unix.sockaddr;
    lock : Mutex.t;
    mutable stopped : bool;
    mutable conns : int;
    counts : (string, int) Hashtbl.t;
    live : (Unix.file_descr, unit) Hashtbl.t;
    mutable acceptor : Thread.t option;
    mutable relays : Thread.t list;
  }

  let count t kind =
    Mutex.protect t.lock (fun () ->
        Hashtbl.replace t.counts kind
          (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts kind)))

  let track t fd = Mutex.protect t.lock (fun () -> Hashtbl.replace t.live fd ())

  let untrack t fd =
    Mutex.protect t.lock (fun () -> Hashtbl.remove t.live fd)

  (* Writes after the peer shuts its read side raise SIGPIPE, whose
     default disposition terminates the process before EPIPE can reach
     the relay's cleanup — a hazard of the proxy's trade, since its
     whole purpose is severing streams mid-flight. *)
  let sigpipe_ignored =
    lazy
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ -> ())

  let rec write_all fd b i len =
    Lazy.force sigpipe_ignored;
    if len > 0 then begin
      match Unix.write fd b i len with
      | n -> write_all fd b (i + n) (len - n)
      | exception Unix.Unix_error (EINTR, _, _) -> write_all fd b i len
    end

  exception Cut_stream of cut

  (* Forward one direction of the connection, applying the stream's
     faults at their drawn byte offsets. [other] is the opposite fd, so
     a Reset can tear down the whole conversation. *)
  let pump t fl ~src ~dst =
    let window = (spec t.plan).window in
    let buf = Bytes.create 8192 in
    let pos = ref 0 in
    let stalled = ref false in
    let flipped = ref false in
    let trickled = ref false in
    (* Send buf[i, n) occupying stream offsets [!pos, !pos + n - i);
       raises Cut_stream when the plan severs the stream. *)
    let rec forward i n =
      if i < n then begin
        (match fl.flip_at with
        | Some (o, mask) when (not !flipped) && o >= !pos && o < !pos + n - i ->
          let j = i + o - !pos in
          Bytes.set buf j
            (Char.chr (Char.code (Bytes.get buf j) lxor mask land 0xff));
          flipped := true;
          count t "flip"
        | _ -> ());
        (match fl.cut with
        | Some (o, kind) when !pos >= o ->
          count t (match kind with Reset -> "reset" | Truncate -> "truncate");
          raise (Cut_stream kind)
        | _ -> ());
        (match fl.stall_at with
        | Some (o, d) when (not !stalled) && !pos >= o ->
          stalled := true;
          count t "stall";
          Unix.sleepf d
        | _ -> ());
        let limit = ref n in
        (match fl.cut with
        | Some (o, _) when o - !pos + i < !limit -> limit := o - !pos + i
        | _ -> ());
        (match fl.stall_at with
        | Some (o, _) when (not !stalled) && o > !pos && o - !pos + i < !limit
          -> limit := o - !pos + i
        | _ -> ());
        let sleep_after = ref 0.0 in
        (match fl.trickle_by with
        | Some (chunk, d) when !pos < window ->
          if not !trickled then begin
            trickled := true;
            count t "trickle"
          end;
          if i + chunk < !limit then limit := i + chunk;
          sleep_after := d
        | _ -> ());
        write_all dst buf i (!limit - i);
        pos := !pos + (!limit - i);
        if !sleep_after > 0.0 then Unix.sleepf !sleep_after;
        forward !limit n
      end
    in
    let rec copy () =
      match Unix.read src buf 0 (Bytes.length buf) with
      | 0 ->
        (* EOF: propagate the half-close downstream. *)
        (try Unix.shutdown dst Unix.SHUTDOWN_SEND with _ -> ())
      | n ->
        forward 0 n;
        copy ()
      | exception Unix.Unix_error (EINTR, _, _) -> copy ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
        (* A receive timeout inherited from the listener: relays wait
           for as long as their peers do. *)
        Unix.setsockopt_float src Unix.SO_RCVTIMEO 0.0;
        copy ()
      | exception Unix.Unix_error (_, _, _) ->
        (try Unix.shutdown dst Unix.SHUTDOWN_SEND with _ -> ())
    in
    try copy () with
    | Cut_stream Reset ->
      (* Hard reset: tear down both directions at once. *)
      (try Unix.shutdown src Unix.SHUTDOWN_ALL with _ -> ());
      (try Unix.shutdown dst Unix.SHUTDOWN_ALL with _ -> ())
    | Cut_stream Truncate ->
      (try Unix.shutdown dst Unix.SHUTDOWN_SEND with _ -> ());
      (try Unix.shutdown src Unix.SHUTDOWN_RECEIVE with _ -> ())
    | Unix.Unix_error (_, _, _) -> ()

  let relay t client fl =
    let finish fd = untrack t fd; (try Unix.close fd with _ -> ()) in
    if fl.refused then begin
      count t "refuse";
      finish client
    end
    else begin
      if fl.delay_s > 0.0 then begin
        count t "delay";
        Unix.sleepf fl.delay_s
      end;
      match
        let fd =
          Unix.socket (Unix.domain_of_sockaddr t.upstream) Unix.SOCK_STREAM 0
        in
        (try Unix.connect fd t.upstream
         with e -> (try Unix.close fd with _ -> ()); raise e);
        fd
      with
      | exception _ -> finish client
      | up ->
        track t up;
        let back = Thread.create (fun () -> pump t fl.s2c ~src:up ~dst:client) () in
        pump t fl.c2s ~src:client ~dst:up;
        Thread.join back;
        finish client;
        finish up
    end

  let acceptor t =
    let rec loop () =
      if not (Mutex.protect t.lock (fun () -> t.stopped)) then
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception Unix.Unix_error (_, _, _) -> loop ()
        | fd, _ ->
          let conn =
            Mutex.protect t.lock (fun () ->
                let n = t.conns in
                t.conns <- n + 1;
                n)
          in
          track t fd;
          let fl = connection t.plan ~conn in
          let th = Thread.create (fun () -> relay t fd fl) () in
          Mutex.protect t.lock (fun () -> t.relays <- th :: t.relays);
          loop ()
    in
    loop ()

  let start ?(backlog = 64) ~plan ~listen ~upstream () =
    (match listen with
    | Unix.ADDR_UNIX path when Sys.file_exists path -> (
      try Unix.unlink path with _ -> ())
    | _ -> ());
    let fd =
      Unix.socket (Unix.domain_of_sockaddr listen) Unix.SOCK_STREAM 0
    in
    (match listen with
    | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
    | _ -> ());
    (try
       Unix.bind fd listen;
       Unix.listen fd backlog;
       Unix.setsockopt_float fd Unix.SO_RCVTIMEO 0.2
     with e ->
       (try Unix.close fd with _ -> ());
       raise e);
    let t =
      {
        plan;
        upstream;
        listen_fd = fd;
        listen_addr = Unix.getsockname fd;
        lock = Mutex.create ();
        stopped = false;
        conns = 0;
        counts = Hashtbl.create 8;
        live = Hashtbl.create 16;
        acceptor = None;
        relays = [];
      }
    in
    t.acceptor <- Some (Thread.create (fun () -> acceptor t) ());
    t

  let addr t = t.listen_addr
  let connections t = Mutex.protect t.lock (fun () -> t.conns)

  let injected t =
    Mutex.protect t.lock (fun () ->
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.counts []))

  let stop t =
    let already = Mutex.protect t.lock (fun () ->
        let s = t.stopped in
        t.stopped <- true;
        s)
    in
    if not already then begin
      (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
      (match t.acceptor with Some th -> Thread.join th | None -> ());
      let fds =
        Mutex.protect t.lock (fun () ->
            Hashtbl.fold (fun fd () acc -> fd :: acc) t.live [])
      in
      List.iter
        (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
        fds;
      let relays = Mutex.protect t.lock (fun () -> t.relays) in
      List.iter Thread.join relays;
      (try Unix.close t.listen_fd with _ -> ());
      match t.listen_addr with
      | Unix.ADDR_UNIX path -> ( try Unix.unlink path with _ -> ())
      | _ -> ()
    end
end
