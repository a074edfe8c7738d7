type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Raw of string

exception Fail of int * string

(* Recursive-descent parser over the raw string; positions in error
   messages are byte offsets.  Depth is bounded so a pathological
   [[[[... line cannot blow the stack. *)
let max_depth = 64

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %c, found %c" c c')
    | None -> fail (Printf.sprintf "expected %c, found end of input" c)
  in
  let literal word value =
    let m = String.length word in
    if !pos + m <= n && String.sub text !pos m = word then begin
      pos := !pos + m;
      value
    end
    else fail (Printf.sprintf "bad literal (expected %s)" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match text.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      match text.[!pos] with
      | '"' ->
          advance ();
          Buffer.contents buf
      | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape";
           match text.[!pos] with
           | ('"' | '\\' | '/') as c -> Buffer.add_char buf c; advance ()
           | 'b' -> Buffer.add_char buf '\b'; advance ()
           | 'f' -> Buffer.add_char buf '\012'; advance ()
           | 'n' -> Buffer.add_char buf '\n'; advance ()
           | 'r' -> Buffer.add_char buf '\r'; advance ()
           | 't' -> Buffer.add_char buf '\t'; advance ()
           | 'u' ->
               advance ();
               let cp = hex4 () in
               let cp =
                 (* High surrogate: consume the low half if present. *)
                 if cp >= 0xD800 && cp <= 0xDBFF && !pos + 6 <= n
                    && text.[!pos] = '\\' && text.[!pos + 1] = 'u'
                 then begin
                   pos := !pos + 2;
                   let lo = hex4 () in
                   if lo >= 0xDC00 && lo <= 0xDFFF then
                     0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                   else lo (* unpaired: keep the second unit as-is *)
                 end
                 else cp
               in
               (* a lone surrogate has no UTF-8 form: U+FFFD stands in *)
               Buffer.add_utf_8_uchar buf
                 (if Uchar.is_valid cp then Uchar.of_int cp else Uchar.rep)
           | c -> fail (Printf.sprintf "bad escape \\%c" c));
          loop ()
      | c when Char.code c < 0x20 -> fail "raw control byte in string"
      | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ()
  in
  let number () =
    let start = !pos in
    let consume pred =
      while !pos < n && pred text.[!pos] do
        advance ()
      done
    in
    if peek () = Some '-' then advance ();
    consume (function '0' .. '9' -> true | _ -> false);
    if peek () = Some '.' then begin
      advance ();
      consume (function '0' .. '9' -> true | _ -> false)
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        consume (function '0' .. '9' -> true | _ -> false)
    | _ -> ());
    let span = String.sub text start (!pos - start) in
    match float_of_string_opt span with
    | Some f -> Num f
    | None -> fail (Printf.sprintf "bad number %S" span)
  in
  (* The comma-separated items of an array or object up to [close],
     after its opening bracket. *)
  let elements close item =
    advance ();
    skip_ws ();
    if peek () = Some close then (advance (); [])
    else
      let rec loop acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); loop acc
        | Some c when c = close -> advance (); List.rev acc
        | _ -> fail (Printf.sprintf "expected , or %c" close)
      in
      loop []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail "empty input"
    | Some '{' ->
        Obj
          (elements '}' (fun () ->
               skip_ws ();
               let k = string_body () in
               skip_ws ();
               expect ':';
               (k, value (depth + 1))))
    | Some '[' -> Arr (elements ']' (fun () -> value (depth + 1)))
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Fail (p, msg) -> Error (Printf.sprintf "at byte %d: %s" p msg)

let int i = Num (float_of_int i)

(* Runs of bytes that need no escaping are copied in one blit. *)
let add_string buf s =
  Buffer.add_char buf '"';
  let start = ref 0 in
  for i = 0 to String.length s - 1 do
    let c = s.[i] in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Printf.bprintf buf "\\u%04x" (Char.code c));
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (String.length s - !start);
  Buffer.add_char buf '"'

(* Integers below 1e15 print exactly; anything else prints in the
   shortest of 15 or 17 significant digits that reads back to the same
   double.  JSON has no non-finite numbers: those print [null], as
   [JSON.stringify] does. *)
let add_num buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.bprintf buf "%.0f" f
  else
    let short = Printf.sprintf "%.15g" f in
    Buffer.add_string buf
      (if float_of_string short = f then short else Printf.sprintf "%.17g" f)

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> add_num buf f
  | Str s -> add_string buf s
  | Raw text -> Buffer.add_string buf text
  | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          add_string buf k;
          Buffer.add_char buf ':';
          to_buffer buf v)
        members;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 128 in
  to_buffer buf v;
  Buffer.contents buf

let pair_page ~limit name pairs =
  let buf = Buffer.create 1024 in
  Buffer.add_char buf '[';
  let total =
    List.fold_left
      (fun n (a, b) ->
        if n < limit then begin
          if n > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '[';
          add_string buf (name a);
          Buffer.add_char buf ',';
          add_string buf (name b);
          Buffer.add_char buf ']'
        end;
        n + 1)
      0 pairs
  in
  Buffer.add_char buf ']';
  (total, Raw (Buffer.contents buf))

let of_diagnostic (d : Gqkg_analysis.Diagnostic.t) =
  Obj
    [
      ("code", Str d.code);
      ("severity", Str (Gqkg_analysis.Diagnostic.severity_to_string d.severity));
      ("subterm", Str d.subterm);
      ("message", Str d.message);
    ]

let member k = function
  | Obj members -> List.assoc_opt k members
  | _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

let int_opt = function
  | Num f when Float.is_integer f && Float.abs f <= 1e9 -> Some (int_of_float f)
  | _ -> None

let arr = function Arr items -> Some items | _ -> None
