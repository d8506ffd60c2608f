(** Versioned binary codec for checkpoint payloads.

    Hand-rolled rather than [Marshal]: the byte layout is documented,
    stable across compiler versions, and a truncated or corrupted
    checkpoint raises {!Corrupt} instead of segfaulting. All integers
    are 64-bit big-endian; strings and lists are length-prefixed;
    floats are IEEE-754 bit patterns. The encoding of a value is a
    pure function of the value, so two equal snapshots are
    byte-identical — checkpoint comparisons in tests can compare raw
    payloads. *)

exception Corrupt of string
(** Raised by every reader on truncated input, a bad tag byte, or a
    length prefix that overruns the buffer. Decoding malformed bytes
    must never crash, over-read, or over-allocate: length prefixes are
    validated against the bytes actually remaining before any list or
    array is materialized (the wire protocol of [lamp.serve] feeds this
    codec untrusted input). *)

(** {1 Writing} *)

type w

val writer : unit -> w
val contents : w -> string

val w_int : w -> int -> unit
val w_char : w -> char -> unit
val w_bool : w -> bool -> unit
val w_float : w -> float -> unit
val w_string : w -> string -> unit
val w_option : w -> (w -> 'a -> unit) -> 'a option -> unit
val w_list : w -> (w -> 'a -> unit) -> 'a list -> unit
val w_array : w -> (w -> 'a -> unit) -> 'a array -> unit
val w_value : w -> Lamp_relational.Value.t -> unit
val w_fact : w -> Lamp_relational.Fact.t -> unit

val w_instance : w -> Lamp_relational.Instance.t -> unit
(** Relation by relation in sorted name order: each relation's name
    once, then its tuple count and its tuples in sorted-set order.
    Equal instances encode to equal bytes. *)

(** {1 Reading} *)

type r

val reader : string -> r

val r_int : r -> int
val r_char : r -> char
val r_bool : r -> bool
val r_float : r -> float
val r_string : r -> string
val r_option : r -> (r -> 'a) -> 'a option
val r_list : r -> (r -> 'a) -> 'a list
val r_array : r -> (r -> 'a) -> 'a array
val r_value : r -> Lamp_relational.Value.t
val r_fact : r -> Lamp_relational.Fact.t
val r_instance : r -> Lamp_relational.Instance.t

val r_end : r -> unit
(** Asserts the whole buffer was consumed; raises {!Corrupt} on
    trailing bytes (catches writer/reader schema drift early). *)
