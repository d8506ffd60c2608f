(** Exporters for the state collected by {!Trace}.

    Three formats:

    - {e Chrome [trace_event]} ([write_chrome]): a JSON object with a
      [traceEvents] array — load it at [ui.perfetto.dev] (or
      [chrome://tracing]). Spans become ["X"] complete events on the
      recording domain's track, instants become ["i"] events, samples
      and final counter values become ["C"] counter tracks.
    - {e JSONL} ([write_jsonl]): one self-describing JSON object per
      line — every line has ["type"] and ["name"] fields — for ad-hoc
      [jq]/pandas analysis and for CI schema validation.
    - {e console} ([pp_report]): spans aggregated by name, counters,
      histograms; the [--profile] output of the CLI. *)

val write_chrome : string -> unit
(** Write the full collected state to [path] in Chrome trace-event
    format. Timestamps are microseconds since the trace clock anchor. *)

val write_jsonl : string -> unit

val pp_report : Format.formatter -> unit -> unit

(** {1 OpenMetrics / Prometheus text exposition} *)

val openmetrics : unit -> string
(** A Prometheus-scrapable snapshot of the whole registry: every
    {!Trace} counter ([lamp_<name>_total], zeros included) and
    histogram (cumulative [_bucket{le="..."}]/[_sum]/[_count] over the
    power-of-two bounds), every {!Metrics} callback gauge, labeled
    names ({!Metrics.render_labels}) with their labels re-attached,
    [# HELP]/[# TYPE] headers from {!Metrics.describe}, the latest
    {!Sketch} skew report as [lamp_skew_*] gauges and
    [lamp_skew_top{rank,key}] entries, and a final [# EOF]. Metric
    names are sanitized to [a-zA-Z0-9_:] and prefixed [lamp_]. *)

val parse_openmetrics :
  string -> (string * (string * string) list * float) list
(** Parse exposition text back into [(name, labels, value)] samples —
    comments skipped, malformed lines dropped. Enough to read
    {!openmetrics} output (it's what [lamp top] runs on each poll). *)

val window_buckets :
  newer:(string * (string * string) list * float) list ->
  older:(string * (string * string) list * float) list ->
  string ->
  (float * float) list
(** The cumulative buckets of histogram [name] (an exposition name such
    as ["lamp_serve_request_us"]) over the window between two parsed
    scrapes: [(le, count)] sorted by bound, [+Inf] as [infinity]. The
    older scrape's count at a bound it did not export is its count at
    the largest bound below, so the counts never decrease and the last
    is the window's [_count]. *)

val window_quantile :
  newer:(string * (string * string) list * float) list ->
  older:(string * (string * string) list * float) list ->
  string ->
  float ->
  float
(** [histogram_quantile] over {!window_buckets}: rank-interpolated
    within the bucket holding quantile [q]. NaN when the window saw no
    observations. *)

val om_name : string -> string
(** The exposition name for a registry name: [om_name "serve.qps"] =
    ["lamp_serve_qps"]. *)

(** {1 Metrics JSON}

    The bench harness's machine-readable results file: experiment
    groups of named numbers plus a flat metadata header. Lives here so
    the JSON rendering (escaping, layout) is shared with the trace
    exporters instead of hand-rolled at the call site. *)

type meta =
  | Mstr of string
  | Mint of int
  | Mbool of bool

val write_metrics_json :
  string ->
  meta:(string * meta) list ->
  groups:(string * (string * float) list) list ->
  unit
