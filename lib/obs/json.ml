type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- Printer ---- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* The shortest of %.15g/%.16g/%.17g that reads back exactly; an
   integral float keeps its ".0" so that it reads back as a [Float]. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let exact p =
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then Some s else None
    in
    match exact 15 with
    | Some s -> s
    | None -> (
        match exact 16 with Some s -> s | None -> Printf.sprintf "%.17g" f)

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> Buffer.add_string b (float_repr f)
  | String s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          add b v)
        l;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          add b (String k);
          Buffer.add_string b ": ";
          add b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 64 in
  add b v;
  Buffer.contents b

let layout emit = function
  | Obj (_ :: _ as kvs) ->
      emit "{";
      List.iteri
        (fun i (k, v) ->
          emit (if i = 0 then "\n  " else ",\n  ");
          emit (to_string (String k));
          emit ": ";
          match v with
          | List (_ :: _ as l) ->
              emit "[";
              List.iteri
                (fun j x ->
                  emit (if j = 0 then "\n    " else ",\n    ");
                  emit (to_string x))
                l;
              emit "\n  ]"
          | v -> emit (to_string v))
        kvs;
      emit "\n}\n"
  | v ->
      emit (to_string v);
      emit "\n"

let output oc v = layout (output_string oc) v

let to_document v =
  let b = Buffer.create 1024 in
  layout (Buffer.add_string b) v;
  Buffer.contents b

(* ---- Reader ---- *)

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail m = raise (Bad (Printf.sprintf "%s at byte %d" m !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let next () =
    if !pos >= n then fail "unexpected end of input";
    let c = s.[!pos] in
    pos := !pos + 1;
    c
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        pos := !pos + 1;
        skip_ws ()
    | _ -> ()
  in
  let expect c = if next () <> c then fail (Printf.sprintf "expected %C" c) in
  let literal lit v =
    String.iter expect lit;
    v
  in
  let parse_string () =
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
          (match next () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              let hex = String.init 4 (fun _ -> next ()) in
              let code =
                match int_of_string_opt ("0x" ^ hex) with
                | Some c -> c
                | None -> fail "bad \\u escape"
              in
              if Uchar.is_valid code then
                Buffer.add_utf_8_uchar b (Uchar.of_int code)
              else Buffer.add_char b '?'
          | _ -> fail "bad escape");
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let integral = ref true in
    let rec scan () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
          pos := !pos + 1;
          scan ()
      | Some ('.' | 'e' | 'E') ->
          integral := false;
          pos := !pos + 1;
          scan ()
      | _ -> ()
    in
    scan ();
    let lexeme = String.sub s start (!pos - start) in
    match
      if !integral then Option.map (fun i -> Int i) (int_of_string_opt lexeme)
      else None
    with
    | Some v -> v
    | None -> (
        match float_of_string_opt lexeme with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        pos := !pos + 1;
        skip_ws ();
        if peek () = Some '}' then (
          pos := !pos + 1;
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            expect '"';
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> members ((k, v) :: acc)
            | '}' -> Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        pos := !pos + 1;
        skip_ws ();
        if peek () = Some ']' then (
          pos := !pos + 1;
          List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match next () with
            | ',' -> elements (v :: acc)
            | ']' -> List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' ->
        pos := !pos + 1;
        String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let of_string s = match parse s with v -> Ok v | exception Bad m -> Error m

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
