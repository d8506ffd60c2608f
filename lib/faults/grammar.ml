(* The one text form of a fault plan, shared by Plan, Net and Disk. *)

exception Bad_field

let float v =
  match float_of_string_opt v with Some f -> f | None -> raise Bad_field

let int v =
  match int_of_string_opt v with Some n -> n | None -> raise Bad_field

let after s i = String.sub s (i + 1) (String.length s - i - 1)

let pair v =
  match String.index_opt v ':' with
  | Some i -> (String.trim (String.sub v 0 i), String.trim (after v i))
  | None -> raise Bad_field

let parse ~who ~expected ~none ~chaos ~zero ~(make : ?seed:int -> _) field
    ~seed s =
  let fail fmt =
    Fmt.kstr (fun m -> invalid_arg (Fmt.str "Faults.%s.of_string: %s" who m)) fmt
  in
  let body, seed =
    match String.index_opt s '@' with
    | None -> (s, seed)
    | Some i -> (
      let tail = String.trim (after s i) in
      match String.split_on_char '=' tail with
      | [ "seed"; n ] -> (
        match int_of_string_opt (String.trim n) with
        | Some n -> (String.sub s 0 i, n)
        | None -> fail "bad seed suffix %S" tail)
      | _ -> fail "bad seed suffix %S" tail)
  in
  match String.trim body with
  | "" | "none" -> none
  | "chaos" -> make ~seed chaos
  | body ->
    let add spec f =
      match String.trim f with
      | "" -> spec
      | f -> (
        let key, value =
          match String.index_opt f '=' with
          | None -> (f, None)
          | Some i ->
            (String.trim (String.sub f 0 i), Some (String.trim (after f i)))
        in
        try field spec key value
        with Bad_field -> fail "bad field %S (expected %s)" f expected)
    in
    make ~seed (List.fold_left add zero (String.split_on_char ',' body))

(* [%.15g] is short for the values people type; the rare float it does
   not carry exactly gets all 17 digits. *)
let num f =
  let s = Printf.sprintf "%.15g" f in
  if float_of_string s = f then s else Printf.sprintf "%.17g" f

let probs fields =
  List.filter_map
    (fun (k, v) -> if v > 0.0 then Some (k ^ "=" ^ num v) else None)
    fields

let pp ~seed ppf fields =
  let body = match fields with [] -> "none" | _ -> String.concat "," fields in
  Fmt.pf ppf "%s@@seed=%d" body seed
