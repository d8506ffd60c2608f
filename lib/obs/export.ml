(* Serialization of Trace's collected state. All JSON is emitted
   through the small helpers below — one escaping routine, one number
   formatter — so every exporter agrees on the details. *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no infinities or NaN; clamp to null-ish sentinels. *)
let add_json_float buf f =
  if Float.is_nan f then Buffer.add_string buf "0"
  else if f = Float.infinity then Buffer.add_string buf "1e308"
  else if f = Float.neg_infinity then Buffer.add_string buf "-1e308"
  else Buffer.add_string buf (Printf.sprintf "%.3f" f)

let add_arg buf (k, v) =
  add_json_string buf k;
  Buffer.add_char buf ':';
  match v with
  | Trace.Int i -> Buffer.add_string buf (string_of_int i)
  | Trace.Float f -> add_json_float buf f
  | Trace.Str s -> add_json_string buf s

let add_args buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i a ->
      if i > 0 then Buffer.add_char buf ',';
      add_arg buf a)
    args;
  Buffer.add_char buf '}'

let us t = 1e6 *. t

let with_out path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> f oc)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event format                                           *)

let chrome_event buf e =
  (match e with
  | Trace.Span { name; cat; tid; t; dur; args } ->
    Buffer.add_string buf "{\"name\":";
    add_json_string buf name;
    Buffer.add_string buf ",\"cat\":";
    add_json_string buf (if cat = "" then "lamp" else cat);
    Buffer.add_string buf ",\"ph\":\"X\",\"ts\":";
    add_json_float buf (us t);
    Buffer.add_string buf ",\"dur\":";
    add_json_float buf (us dur);
    Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d" tid);
    if args <> [] then begin
      Buffer.add_string buf ",\"args\":";
      add_args buf args
    end
  | Trace.Instant { name; cat; tid; t; args } ->
    Buffer.add_string buf "{\"name\":";
    add_json_string buf name;
    Buffer.add_string buf ",\"cat\":";
    add_json_string buf (if cat = "" then "lamp" else cat);
    Buffer.add_string buf ",\"ph\":\"i\",\"s\":\"t\",\"ts\":";
    add_json_float buf (us t);
    Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d" tid);
    if args <> [] then begin
      Buffer.add_string buf ",\"args\":";
      add_args buf args
    end
  | Trace.Sample { name; cat; tid = _; t; value } ->
    Buffer.add_string buf "{\"name\":";
    add_json_string buf name;
    Buffer.add_string buf ",\"cat\":";
    add_json_string buf (if cat = "" then "lamp" else cat);
    Buffer.add_string buf ",\"ph\":\"C\",\"ts\":";
    add_json_float buf (us t);
    Buffer.add_string buf ",\"pid\":1,\"args\":{\"value\":";
    add_json_float buf value;
    Buffer.add_char buf '}');
  Buffer.add_char buf '}'

let chrome_buffer () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  let first = ref true in
  let emit e =
    if !first then first := false else Buffer.add_string buf ",\n";
    chrome_event buf e
  in
  let events = Trace.events () in
  List.iter emit events;
  (* Final counter and histogram values, as counter points at the end
     of the trace so they render as flat tracks with the totals. *)
  let t_end =
    List.fold_left
      (fun acc e ->
        match e with
        | Trace.Span { t; dur; _ } -> Float.max acc (t +. dur)
        | Trace.Instant { t; _ } | Trace.Sample { t; _ } -> Float.max acc t)
      0.0 events
  in
  List.iter
    (fun (name, v) ->
      emit
        (Trace.Sample
           { name; cat = "counter"; tid = 0; t = t_end; value = float_of_int v }))
    (Trace.counters ());
  List.iter
    (fun (name, (s : Trace.histogram_snapshot)) ->
      emit
        (Trace.Instant
           {
             name;
             cat = "histogram";
             tid = 0;
             t = t_end;
             args =
               [
                 ("count", Trace.Int s.count);
                 ("sum", Trace.Int s.sum);
                 ("max", Trace.Int s.max_value);
               ]
               @ List.map
                   (fun (ub, c) -> ("le_" ^ string_of_int ub, Trace.Int c))
                   s.buckets;
           }))
    (Trace.histograms ());
  Buffer.add_string buf "]}\n";
  buf

let write_chrome path =
  with_out path (fun oc -> Buffer.output_buffer oc (chrome_buffer ()))

(* ------------------------------------------------------------------ *)
(* JSONL                                                               *)

let jsonl_line buf e =
  (match e with
  | Trace.Span { name; cat; tid; t; dur; args } ->
    Buffer.add_string buf "{\"type\":\"span\",\"name\":";
    add_json_string buf name;
    Buffer.add_string buf ",\"cat\":";
    add_json_string buf cat;
    Buffer.add_string buf (Printf.sprintf ",\"tid\":%d,\"ts_us\":" tid);
    add_json_float buf (us t);
    Buffer.add_string buf ",\"dur_us\":";
    add_json_float buf (us dur);
    Buffer.add_string buf ",\"args\":";
    add_args buf args
  | Trace.Instant { name; cat; tid; t; args } ->
    Buffer.add_string buf "{\"type\":\"instant\",\"name\":";
    add_json_string buf name;
    Buffer.add_string buf ",\"cat\":";
    add_json_string buf cat;
    Buffer.add_string buf (Printf.sprintf ",\"tid\":%d,\"ts_us\":" tid);
    add_json_float buf (us t);
    Buffer.add_string buf ",\"args\":";
    add_args buf args
  | Trace.Sample { name; cat; tid; t; value } ->
    Buffer.add_string buf "{\"type\":\"sample\",\"name\":";
    add_json_string buf name;
    Buffer.add_string buf ",\"cat\":";
    add_json_string buf cat;
    Buffer.add_string buf (Printf.sprintf ",\"tid\":%d,\"ts_us\":" tid);
    add_json_float buf (us t);
    Buffer.add_string buf ",\"value\":";
    add_json_float buf value);
  Buffer.add_string buf "}\n"

let write_jsonl path =
  with_out path (fun oc ->
      let buf = Buffer.create 65536 in
      List.iter (jsonl_line buf) (Trace.events ());
      List.iter
        (fun (name, v) ->
          Buffer.add_string buf "{\"type\":\"counter\",\"name\":";
          add_json_string buf name;
          Buffer.add_string buf (Printf.sprintf ",\"value\":%d}\n" v))
        (Trace.counters ());
      List.iter
        (fun (name, (s : Trace.histogram_snapshot)) ->
          Buffer.add_string buf "{\"type\":\"histogram\",\"name\":";
          add_json_string buf name;
          Buffer.add_string buf
            (Printf.sprintf ",\"count\":%d,\"sum\":%d,\"max\":%d,\"buckets\":["
               s.count s.sum s.max_value);
          List.iteri
            (fun i (ub, c) ->
              if i > 0 then Buffer.add_char buf ',';
              Buffer.add_string buf (Printf.sprintf "[%d,%d]" ub c))
            s.buckets;
          Buffer.add_string buf "]}\n")
        (Trace.histograms ());
      Buffer.output_buffer oc buf)

(* ------------------------------------------------------------------ *)
(* Console report                                                      *)

let pp_report ppf () =
  let spans = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (function
      | Trace.Span { name; dur; _ } ->
        (match Hashtbl.find_opt spans name with
        | Some (n, total) -> Hashtbl.replace spans name (n + 1, total +. dur)
        | None ->
          order := name :: !order;
          Hashtbl.add spans name (1, dur))
      | _ -> ())
    (Trace.events ());
  if !order <> [] then begin
    Fmt.pf ppf "spans (aggregated by name):@.";
    List.iter
      (fun name ->
        let n, total = Hashtbl.find spans name in
        Fmt.pf ppf "  %-40s %8d calls %12.2f ms total %10.3f ms/call@." name n
          (1000.0 *. total)
          (1000.0 *. total /. float_of_int n))
      (List.rev !order)
  end;
  (match Trace.counters () with
  | [] -> ()
  | cs ->
    Fmt.pf ppf "counters:@.";
    List.iter (fun (name, v) -> Fmt.pf ppf "  %-40s %12d@." name v) cs);
  match Trace.histograms () with
  | [] -> ()
  | hs ->
    Fmt.pf ppf "histograms:@.";
    List.iter
      (fun (name, (s : Trace.histogram_snapshot)) ->
        Fmt.pf ppf "  %-40s count %8d mean %10.1f max %10d@." name s.count
          (if s.count = 0 then 0.0
           else float_of_int s.sum /. float_of_int s.count)
          s.max_value)
      hs

(* ------------------------------------------------------------------ *)
(* OpenMetrics / Prometheus text exposition                            *)

(* Prometheus metric names are [a-zA-Z0-9_:]; ours use dots. Sanitize
   and prefix with the exporter namespace. *)
let om_name name =
  let buf = Buffer.create (String.length name + 5) in
  if String.length name < 5 || String.sub name 0 5 <> "lamp_" then
    Buffer.add_string buf "lamp_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' ->
        Buffer.add_char buf c
      | _ -> Buffer.add_char buf '_')
    name;
  Buffer.contents buf

let om_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%.9g" f

(* One [# HELP]/[# TYPE] header per metric family. [raw] is the
   pre-sanitization name {!Metrics.describe} was keyed on. *)
let om_header buf seen ~raw ~base kind =
  if not (Hashtbl.mem seen base) then begin
    Hashtbl.add seen base ();
    (match Metrics.help raw with
    | Some h ->
      Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" base h)
    | None -> ());
    Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" base kind)
  end

let om_skew buf seen =
  match Sketch.latest () with
  | None -> ()
  | Some (r : Sketch.report) ->
    let g raw v =
      let base = om_name raw in
      om_header buf seen ~raw ~base "gauge";
      Buffer.add_string buf (Printf.sprintf "%s %s\n" base (om_float v))
    in
    g "skew.round" (float_of_int r.round);
    g "skew.p" (float_of_int r.p);
    g "skew.m" (float_of_int r.m);
    g "skew.threshold" (float_of_int r.threshold);
    g "skew.est_max_load" (float_of_int r.est_max_load);
    g "skew.max_received" (float_of_int r.max_received);
    g "skew.total_received" (float_of_int r.total_received);
    g "skew.error_bound" (float_of_int r.error_bound);
    let top_base = om_name "skew.top" in
    om_header buf seen ~raw:"skew.top" ~base:top_base "gauge";
    List.iteri
      (fun i (key, est) ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" top_base
             (Metrics.render_labels ""
                [
                  ("ctx", r.label);
                  ("rank", string_of_int (i + 1));
                  ("key", key);
                ])
             est))
      r.top;
    let rel_base = om_name "skew.rel" in
    om_header buf seen ~raw:"skew.rel" ~base:rel_base "gauge";
    List.iter
      (fun (rel, n) ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %d\n" rel_base
             (Metrics.render_labels "" [ ("rel", rel) ])
             n))
      r.rels;
    let base = om_name "skew.reports" in
    om_header buf seen ~raw:"skew.reports" ~base "counter";
    Buffer.add_string buf
      (Printf.sprintf "%s_total %d\n" base (Sketch.report_count ()))

let openmetrics () =
  let buf = Buffer.create 8192 in
  let seen = Hashtbl.create 64 in
  (* Counters: zeros included, so a scraper's rate() resets cleanly. *)
  List.iter
    (fun (name, v) ->
      let raw, labels = Metrics.split_labels name in
      let base = om_name raw in
      om_header buf seen ~raw ~base "counter";
      Buffer.add_string buf (Printf.sprintf "%s_total%s %d\n" base labels v))
    (Trace.counters ~all:true ());
  (* Gauges: on-demand callbacks. *)
  List.iter
    (fun (name, v) ->
      let raw, labels = Metrics.split_labels name in
      let base = om_name raw in
      om_header buf seen ~raw ~base "gauge";
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s\n" base labels (om_float v)))
    (Metrics.gauges ());
  (* Histograms: the power-of-two buckets, made cumulative as the
     exposition format requires. *)
  List.iter
    (fun (name, (s : Trace.histogram_snapshot)) ->
      let raw, labels = Metrics.split_labels name in
      let base = om_name raw in
      om_header buf seen ~raw ~base "histogram";
      let strip l =
        (* merge the le label into an existing label set *)
        if l = "" then "" else String.sub l 1 (String.length l - 2) ^ ","
      in
      let cum = ref 0 in
      List.iter
        (fun (ub, c) ->
          cum := !cum + c;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{%sle=\"%d\"} %d\n" base (strip labels)
               ub !cum))
        s.buckets;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket{%sle=\"+Inf\"} %d\n" base (strip labels)
           s.count);
      Buffer.add_string buf (Printf.sprintf "%s_sum%s %d\n" base labels s.sum);
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" base labels s.count))
    (Trace.histograms ~all:true ());
  om_skew buf seen;
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

(* Parser for the exposition format — enough for [lamp top] and the
   tests to read back what [openmetrics] (or any Prometheus exporter)
   emits: [name{k="v",...} value] lines, comments skipped. *)
let parse_openmetrics text =
  let parse_line line =
    let n = String.length line in
    if n = 0 || line.[0] = '#' then None
    else
      try
        let i = ref 0 in
        while !i < n && line.[!i] <> '{' && line.[!i] <> ' ' do incr i done;
        let name = String.sub line 0 !i in
        let labels = ref [] in
        if !i < n && line.[!i] = '{' then begin
          incr i;
          let rec pairs () =
            if line.[!i] = '}' then incr i
            else begin
              let k0 = !i in
              while line.[!i] <> '=' do incr i done;
              let k = String.sub line k0 (!i - k0) in
              i := !i + 2 (* skip the = and the opening quote *);
              let b = Buffer.create 8 in
              let rec scan () =
                match line.[!i] with
                | '\\' ->
                  incr i;
                  (match line.[!i] with
                  | 'n' -> Buffer.add_char b '\n'
                  | c -> Buffer.add_char b c);
                  incr i;
                  scan ()
                | '"' -> incr i
                | c ->
                  Buffer.add_char b c;
                  incr i;
                  scan ()
              in
              scan ();
              labels := (k, Buffer.contents b) :: !labels;
              if line.[!i] = ',' then begin
                incr i;
                pairs ()
              end
              else incr i (* '}' *)
            end
          in
          pairs ()
        end;
        while !i < n && line.[!i] = ' ' do incr i done;
        let j = ref !i in
        while !j < n && line.[!j] <> ' ' do incr j done;
        match float_of_string_opt (String.sub line !i (!j - !i)) with
        | Some v -> Some (name, List.rev !labels, v)
        | None -> None
      with _ -> None
  in
  String.split_on_char '\n' text |> List.filter_map parse_line

(* The cumulative buckets of histogram [name], sorted by upper bound;
   a bucket whose [le] is not a number is dropped like any other
   malformed line. *)
let buckets samples name =
  let bucket = name ^ "_bucket" in
  let bound = function
    | "+Inf" -> Some infinity
    | le -> float_of_string_opt le
  in
  List.filter_map
    (fun (n, labels, v) ->
      if String.equal n bucket then
        Option.map
          (fun le -> (le, v))
          (Option.bind (List.assoc_opt "le" labels) bound)
      else None)
    samples
  |> List.sort compare

(* Only non-empty buckets are exported, so a bound the newer scrape has
   may be missing from the older one: the older cumulative count there
   is the one at its largest bound below. *)
let window_buckets ~newer ~older name =
  let ob = buckets older name in
  let cum_at le =
    List.fold_left (fun acc (b, v) -> if b <= le then v else acc) 0.0 ob
  in
  List.map (fun (le, v) -> (le, v -. cum_at le)) (buckets newer name)

let window_quantile ~newer ~older name q =
  let d = window_buckets ~newer ~older name in
  match List.rev d with
  | [] -> nan
  | (_, total) :: _ when total <= 0.0 -> nan
  | (_, total) :: _ ->
    let rank = q *. total in
    let rec walk lo lo_cum = function
      | [] -> nan
      | (le, cum) :: rest ->
        if cum >= rank && cum > 0.0 then
          if le = infinity then lo
          else if cum <= lo_cum then le
          else lo +. ((le -. lo) *. ((rank -. lo_cum) /. (cum -. lo_cum)))
        else walk le cum rest
    in
    walk 0.0 0.0 d

(* ------------------------------------------------------------------ *)
(* Metrics JSON (bench results file)                                   *)

type meta =
  | Mstr of string
  | Mint of int
  | Mbool of bool

let write_metrics_json path ~meta ~groups =
  with_out path (fun oc ->
      let buf = Buffer.create 4096 in
      Buffer.add_string buf "{\n";
      List.iter
        (fun (k, v) ->
          Buffer.add_string buf "  ";
          add_json_string buf k;
          Buffer.add_string buf ": ";
          (match v with
          | Mstr s -> add_json_string buf s
          | Mint i -> Buffer.add_string buf (string_of_int i)
          | Mbool b -> Buffer.add_string buf (string_of_bool b));
          Buffer.add_string buf ",\n")
        meta;
      Buffer.add_string buf "  \"experiments\": {\n";
      List.iteri
        (fun i (name, metrics) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf "    ";
          add_json_string buf name;
          Buffer.add_string buf ": {\n";
          List.iteri
            (fun j (k, v) ->
              if j > 0 then Buffer.add_string buf ",\n";
              Buffer.add_string buf "      ";
              add_json_string buf k;
              Buffer.add_string buf ": ";
              add_json_float buf v)
            metrics;
          Buffer.add_string buf "\n    }")
        groups;
      Buffer.add_string buf "\n  }\n}\n";
      Buffer.output_buffer oc buf)
