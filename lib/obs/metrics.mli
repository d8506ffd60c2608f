(** Live metrics registry — the scrapeable layer over {!Trace}.

    {!Trace} is a batch collector: counters and histograms accumulate
    and are exported once at exit. This module adds what a running
    server needs to be observed {e while it works}:

    - HELP/TYPE metadata the expositor emits;
    - {e callback gauges}: current-value signals computed at scrape
      time;
    - the [name{k="v"}] rendering of labeled metric names.

    Rates and quantiles over a window are computed by the scraper from
    two scrapes ({!Export.window_buckets}, {!Export.window_quantile}).
    Everything is read-only on the instrumented program and safe from
    any domain. The OpenMetrics text exposition lives in
    {!Export.openmetrics}. *)

(** {1 Metadata} *)

type kind =
  | Counter
  | Gauge
  | Histogram

val describe : ?help:string -> ?kind:kind -> string -> unit
(** Attach HELP text and/or a TYPE to a metric name; the expositor
    emits both. Idempotent, last write wins. *)

val help : string -> string option
val kind : string -> kind option

(** {1 Gauges} *)

val register_callback : string -> (unit -> float) -> unit
(** A gauge computed on demand: evaluated (outside registry locks) at
    each {!gauges} call, never between. A raising callback yields
    [nan] rather than killing the scrape. *)

val unregister_callback : string -> unit

val gauges : unit -> (string * float) list
(** Every callback gauge, evaluated now, sorted by name. *)

(** {1 Labels} *)

val render_labels : string -> (string * string) list -> string
(** [render_labels "f" [("k", "v")]] = ["f{k=\"v\"}"], the name under
    which a labeled {!Trace} counter or histogram is registered; label
    values are escaped. No labels yields the bare name. *)

val split_labels : string -> string * string
(** [split_labels "f{k=\"v\"}"] = [("f", "{k=\"v\"}")]; a plain name
    yields [(name, "")]. Used by the expositor to re-attach labels. *)
