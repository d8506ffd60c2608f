(* The metrics registry: the live-telemetry layer over Trace's atomic
   counters and histograms.

   Trace is a batch collector — record everything, export once at
   exit. This module adds what a *running* server needs to be scraped
   while it works: HELP/TYPE metadata for the expositor, callback
   gauges (current-value signals evaluated only at scrape time, so
   "sessions connected" or "uptime" cost nothing between scrapes), and
   the [name{k="v"}] label rendering the expositor splits back. Windows
   over successive scrapes are the scraper's business
   (Export.window_buckets / window_quantile).

   Everything here is read-only on the instrumented program and safe
   from any domain. *)

(* ------------------------------------------------------------------ *)
(* Help/type metadata, read by the OpenMetrics expositor.              *)

type kind =
  | Counter
  | Gauge
  | Histogram

let meta_mutex = Mutex.create ()
let help_registry : (string, string) Hashtbl.t = Hashtbl.create 32
let kind_registry : (string, kind) Hashtbl.t = Hashtbl.create 32

let describe ?help ?kind name =
  Mutex.protect meta_mutex (fun () ->
      (match help with
      | Some h -> Hashtbl.replace help_registry name h
      | None -> ());
      match kind with
      | Some k -> Hashtbl.replace kind_registry name k
      | None -> ())

let help name =
  Mutex.protect meta_mutex (fun () -> Hashtbl.find_opt help_registry name)

let kind name =
  Mutex.protect meta_mutex (fun () -> Hashtbl.find_opt kind_registry name)

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)

let gauge_mutex = Mutex.create ()
let callback_registry : (string, unit -> float) Hashtbl.t = Hashtbl.create 16

let register_callback name f =
  Mutex.protect gauge_mutex (fun () ->
      Hashtbl.replace callback_registry name f)

let unregister_callback name =
  Mutex.protect gauge_mutex (fun () -> Hashtbl.remove callback_registry name)

let gauges () =
  (* Callbacks are evaluated outside the registry lock: they may read
     state protected by their owner's locks (e.g. the serve layer), and
     holding ours across foreign code invites ordering trouble. *)
  let callbacks =
    Mutex.protect gauge_mutex (fun () ->
        Hashtbl.fold (fun name f acc -> (name, f) :: acc) callback_registry [])
  in
  let called =
    List.map
      (fun (name, f) ->
        (name, match f () with v -> v | exception _ -> Float.nan))
      callbacks
  in
  List.sort compare called

(* ------------------------------------------------------------------ *)
(* Labels                                                              *)

(* A labeled metric lives in the Trace registries under the rendered
   name [base{k="v",...}], so Trace.reset, Trace.counters ~all and the
   expositor all see it with no extra bookkeeping here. *)

let escape_label_value v =
  let buf = Buffer.create (String.length v + 2) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels name labels =
  match labels with
  | [] -> name
  | _ ->
    let buf = Buffer.create 64 in
    Buffer.add_string buf name;
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_label_value v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}';
    Buffer.contents buf

(* Splits a rendered cell name back into (base, labels-part). The
   labels part keeps its braces: ["f{k=\"v\"}"] -> [("f", "{k=\"v\"}")]. *)
let split_labels name =
  match String.index_opt name '{' with
  | None -> (name, "")
  | Some i ->
    (String.sub name 0 i, String.sub name i (String.length name - i))
