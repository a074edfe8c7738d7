(* Concrete syntax for CRPQs — a Cypher-flavored surface over the
   Section 4 regular expressions:

     SELECT x, z
     WHERE (x:person)-[rides/?bus]->(y),
           (z:company)-[owns]->(y)

   Grammar:

     query   := SELECT vars WHERE clause (',' clause)* (LIMIT n)?
     vars    := ident (',' ident)*
     clause  := node (edge node)*
     node    := '(' ident (':' ident)? ')'
     edge    := '-[' regex ']->' | '<-[' regex ']-'

   A ':label' on a node is sugar for a ?label node test attached to the
   adjacent path atoms; '<-[r]-' reverses the atom.  The regex between
   brackets is the full concrete syntax of {!Gqkg_automata.Regex_parser}. *)

open Gqkg_automata

exception Error of { position : int; message : string }

let fail position fmt = Printf.ksprintf (fun message -> raise (Error { position; message })) fmt

type state = { input : string; mutable pos : int }

let skip_ws st =
  while
    st.pos < String.length st.input
    && (match st.input.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  do
    st.pos <- st.pos + 1
  done

let looking_at st text =
  let n = String.length text in
  st.pos + n <= String.length st.input
  && String.lowercase_ascii (String.sub st.input st.pos n) = String.lowercase_ascii text

let expect st text =
  skip_ws st;
  if looking_at st text then st.pos <- st.pos + String.length text
  else fail st.pos "expected %S" text

let try_consume st text =
  skip_ws st;
  if looking_at st text then begin
    st.pos <- st.pos + String.length text;
    true
  end
  else false

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let ident st =
  skip_ws st;
  let start = st.pos in
  while st.pos < String.length st.input && is_ident_char st.input.[st.pos] do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then fail start "expected an identifier";
  String.sub st.input start (st.pos - start)

(* '(' var (':' label)? ')' *)
let node st =
  expect st "(";
  let var = ident st in
  let label = if try_consume st ":" then Some (ident st) else None in
  expect st ")";
  (var, label)

(* The bracketed regex: everything up to the matching ']'. *)
let bracket_regex st =
  let close =
    match String.index_from_opt st.input st.pos ']' with
    | Some i -> i
    | None -> fail st.pos "unterminated '[' in edge pattern"
  in
  let text = String.sub st.input st.pos (close - st.pos) in
  st.pos <- close;
  match Regex_parser.parse text with
  | r -> r
  | exception Regex_parser.Error { position; message } ->
      fail (st.pos - String.length text + position) "in path expression: %s" message

(* Attach a node-label test to the appropriate end of a path regex. *)
let with_label_prefix label r =
  match label with None -> r | Some l -> Regex.Seq (Regex.node_label l, r)

let with_label_suffix label r =
  match label with None -> r | Some l -> Regex.Seq (r, Regex.node_label l)

let parse input =
  let st = { input; pos = 0 } in
  expect st "select";
  (* Head variables with their positions, for the bound check below. *)
  let head_ident () =
    skip_ws st;
    let at = st.pos in
    (ident st, at)
  in
  let head = ref [ head_ident () ] in
  while try_consume st "," do
    head := head_ident () :: !head
  done;
  expect st "where";
  let atoms = ref [] in
  let clause () =
    let current = ref (node st) in
    let continue = ref true in
    let chained = ref false in
    while !continue do
      skip_ws st;
      if try_consume st "-[" then begin
        let r = bracket_regex st in
        expect st "]->";
        let target = node st in
        let sv, sl = !current and tv, tl = target in
        atoms := { Crpq.src = sv; regex = with_label_suffix tl (with_label_prefix sl r); dst = tv } :: !atoms;
        current := target;
        chained := true
      end
      else if try_consume st "<-[" then begin
        let r = bracket_regex st in
        expect st "]-";
        let target = node st in
        let sv, sl = !current and tv, tl = target in
        (* (a)<-[r]-(b) means a path from b to a. *)
        atoms := { Crpq.src = tv; regex = with_label_suffix sl (with_label_prefix tl r); dst = sv } :: !atoms;
        current := target;
        chained := true
      end
      else continue := false
    done;
    if not !chained then begin
      (* A bare node clause: assert the label as a zero-step atom. *)
      let sv, sl = !current in
      match sl with
      | Some l -> atoms := { Crpq.src = sv; regex = Regex.node_label l; dst = sv } :: !atoms
      | None -> fail st.pos "a clause needs at least one edge or a node label"
    end
  in
  clause ();
  while try_consume st "," do
    clause ()
  done;
  let limit =
    if try_consume st "limit" then begin
      skip_ws st;
      let start = st.pos in
      while st.pos < String.length st.input && st.input.[st.pos] >= '0' && st.input.[st.pos] <= '9' do
        st.pos <- st.pos + 1
      done;
      if st.pos = start then fail start "expected a number after LIMIT";
      Some (int_of_string (String.sub st.input start (st.pos - start)))
    end
    else None
  in
  skip_ws st;
  if st.pos <> String.length st.input then fail st.pos "trailing input";
  let head = List.rev !head and body = List.rev !atoms in
  List.iter
    (fun (v, at) ->
      if not (List.exists (fun a -> a.Crpq.src = v || a.Crpq.dst = v) body) then
        fail at "head variable %s not bound by the body" v)
    head;
  Crpq.query ?limit ~head:(List.map fst head) ~body ()

let parse_opt input = match parse input with q -> Some q | exception Error _ -> None
