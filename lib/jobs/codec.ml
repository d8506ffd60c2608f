open Lamp_relational

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

(* Writing *)

type w = Buffer.t

(* 256 bytes is 32 words, under the minor heap's 256-word limit: a
   frame header or a small message never takes a major-heap block.
   Larger encodes grow by doubling. *)
let writer () = Buffer.create 256
let contents = Buffer.contents
let w_int b i = Buffer.add_int64_be b (Int64.of_int i)

let w_char = Buffer.add_char
let w_bool b v = Buffer.add_char b (if v then '\001' else '\000')
let w_float b f = Buffer.add_int64_be b (Int64.bits_of_float f)

let w_string b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_option b f = function
  | None -> w_bool b false
  | Some v ->
    w_bool b true;
    f b v

let w_list b f xs =
  w_int b (List.length xs);
  List.iter (f b) xs

let w_array b f xs =
  w_int b (Array.length xs);
  Array.iter (f b) xs

let w_value b = function
  | Value.Int i ->
    Buffer.add_char b 'i';
    w_int b i
  | Value.Str s ->
    Buffer.add_char b 's';
    w_string b s

let w_fact b f =
  w_string b (Fact.rel f);
  w_array b w_value (Fact.args f)

(* Relation by relation, in [Instance.relations] order: the name once,
   then the tuple count and the tuples in set order — so equal
   instances yield byte-identical encodings. *)
let w_instance b inst =
  w_list b
    (fun b rel ->
      let tuples = Instance.tuples inst rel in
      w_string b rel;
      w_int b (Tuple.Set.cardinal tuples);
      Tuple.Set.iter (fun args -> w_array b w_value args) tuples)
    (Instance.relations inst)

(* Reading *)

type r = { buf : string; mutable pos : int }

let reader s = { buf = s; pos = 0 }

(* [String.length r.buf - r.pos] cannot overflow ([pos <= length]),
   whereas [r.pos + n] can when a corrupted length prefix holds a value
   near [max_int] — that overflow used to slip past the bound check and
   surface as an unprotected [String.sub] failure. *)
let need r n =
  if n < 0 || n > String.length r.buf - r.pos then
    corrupt "truncated checkpoint at byte %d (want %d more of %d)" r.pos n
      (String.length r.buf)

let r_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_be r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let r_char r =
  need r 1;
  let c = r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_bool r =
  need r 1;
  let c = r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | '\000' -> false
  | '\001' -> true
  | c -> corrupt "bad bool tag %C at byte %d" c (r.pos - 1)

let r_float r =
  need r 8;
  let v = Int64.float_of_bits (String.get_int64_be r.buf r.pos) in
  r.pos <- r.pos + 8;
  v

let r_string r =
  let n = r_int r in
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let r_option r f = if r_bool r then Some (f r) else None

(* Every element encoding in this codec occupies at least one byte
   (the cheapest, an empty nested list, costs its 8-byte length
   prefix), so a well-formed collection of [n] elements needs at least
   [n] more bytes. Checking that up front turns a corrupted length
   prefix into {!Corrupt} before [Array.init]/[List.init] try to
   allocate billions of slots. *)
let r_len r =
  let n = r_int r in
  if n < 0 then corrupt "negative length %d at byte %d" n (r.pos - 8);
  if n > String.length r.buf - r.pos then
    corrupt "length %d at byte %d exceeds the %d bytes remaining" n (r.pos - 8)
      (String.length r.buf - r.pos);
  n

let r_list r f = List.init (r_len r) (fun _ -> f r)
let r_array r f = Array.init (r_len r) (fun _ -> f r)

let r_value r =
  need r 1;
  let c = r.buf.[r.pos] in
  r.pos <- r.pos + 1;
  match c with
  | 'i' -> Value.int (r_int r)
  | 's' -> Value.str (r_string r)
  | c -> corrupt "bad value tag %C at byte %d" c (r.pos - 1)

let r_fact r =
  let rel = r_string r in
  Fact.make rel (r_array r r_value)

let r_instance r =
  List.fold_left
    (fun inst (rel, tuples) ->
      Instance.add_tuple_set rel (Tuple.Set.of_list tuples) inst)
    Instance.empty
    (r_list r (fun r ->
         let rel = r_string r in
         (rel, r_list r (fun r -> r_array r r_value))))

let r_end r =
  if r.pos <> String.length r.buf then
    corrupt "trailing garbage: %d bytes unread after position %d"
      (String.length r.buf - r.pos)
      r.pos
