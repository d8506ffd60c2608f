(** The one text form of a fault plan, shared by {!Plan}, {!Net} and
    {!Disk}: comma-separated [key=value] fields or bare flags, the
    words ["none"] (or [""]) and ["chaos"], and an optional
    ["@seed=N"] suffix. {!pp} prints that suffix, and it takes
    precedence over the caller's seed, so a printed plan parses back
    to the identical plan. *)

exception Bad_field
(** Raised by a field parser for an unknown key or a malformed value. *)

val float : string -> float
val int : string -> int

val pair : string -> string * string
(** [pair "a:b"] splits at the first colon, trimming both sides.
    @raise Bad_field without one. *)

val parse :
  who:string ->
  expected:string ->
  none:'t ->
  chaos:'spec ->
  zero:'spec ->
  make:(?seed:int -> 'spec -> 't) ->
  ('spec -> string -> string option -> 'spec) ->
  seed:int ->
  string ->
  't
(** [parse ... field ~seed s] folds [field spec key value] over the
    fields of [s], starting from [zero]; a bare flag has value
    [None]. [who] and [expected] name the module and its fields in the
    error.
    @raise Invalid_argument on a bad field or seed suffix, or whatever
    [make] raises. *)

val num : float -> string
(** The shortest of [%.15g] and [%.17g] that reads back exactly. *)

val probs : (string * float) list -> string list
(** [key=value] for every positive probability, in order. *)

val pp : seed:int -> string list Fmt.t
(** [field,field,...@seed=N], or [none@seed=N] with no field. *)
