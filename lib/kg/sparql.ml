(* SPARQL-lite: a concrete query syntax for the triple store, covering
   the SELECT / basic-graph-pattern fragment the paper treats as the
   declarative face of RDF querying, plus property paths:

     SELECT ?x ?y
     WHERE {
       ?x <http://ex.org/knows> ?y .
       ?y a <http://ex.org/Person> .
       ?x (knows/likes) ?z        # property path, regex syntax
     }
     LIMIT 10

   Terms: [<iri>], [?var], ["literal"] (with optional [^^<dt>] / [@lang]),
   integers (xsd:integer literals), and [a] for rdf:type.  A parenthesized
   predicate position holds a path expression in the {!Regex_parser}
   syntax over predicate local names.  A parsed query is a {!Bgp} query,
   so it compiles like a CRPQ ({!Gqkg_core.Conjunctive}): a path's
   endpoint pairs come through the Governor's per-snapshot result cache.
   Prefix declarations are not supported (write full IRIs) — this is a
   teaching/experiment surface, not a W3C implementation. *)

exception Error of { position : int; message : string }

let fail position fmt = Printf.ksprintf (fun message -> raise (Error { position; message })) fmt

type state = { input : string; mutable pos : int }

let skip_ws st =
  let continue = ref true in
  while !continue do
    if
      st.pos < String.length st.input
      && (match st.input.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    then st.pos <- st.pos + 1
    else if st.pos < String.length st.input && st.input.[st.pos] = '#' then begin
      (* comment to end of line *)
      while st.pos < String.length st.input && st.input.[st.pos] <> '\n' do
        st.pos <- st.pos + 1
      done
    end
    else continue := false
  done

let looking_at st text =
  let n = String.length text in
  st.pos + n <= String.length st.input
  && String.lowercase_ascii (String.sub st.input st.pos n) = String.lowercase_ascii text

let try_consume st text =
  skip_ws st;
  if looking_at st text then begin
    st.pos <- st.pos + String.length text;
    true
  end
  else false

let expect st text = if not (try_consume st text) then fail st.pos "expected %S" text

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let name st =
  let start = st.pos in
  while st.pos < String.length st.input && is_name_char st.input.[st.pos] do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then fail start "expected a name";
  String.sub st.input start (st.pos - start)

let variable st =
  expect st "?";
  name st

(* A term in subject/object position. *)
let term st =
  skip_ws st;
  if st.pos >= String.length st.input then fail st.pos "expected a term";
  match st.input.[st.pos] with
  | '?' -> Bgp.v (variable st)
  | '<' -> begin
      match String.index_from_opt st.input st.pos '>' with
      | None -> fail st.pos "unterminated IRI"
      | Some close ->
          let iri = String.sub st.input (st.pos + 1) (close - st.pos - 1) in
          st.pos <- close + 1;
          Bgp.c (Term.Iri iri)
    end
  | '"' -> begin
      (* Reuse the N-Triples literal lexer on the rest of the line. *)
      let rest = String.sub st.input st.pos (String.length st.input - st.pos) in
      let cursor = { Ntriples.text = rest; pos = 0; line = 1 } in
      match Ntriples.parse_literal cursor with
      | literal ->
          st.pos <- st.pos + cursor.Ntriples.pos;
          Bgp.c literal
      | exception Ntriples.Parse_error _ -> fail st.pos "malformed literal"
    end
  | c when c >= '0' && c <= '9' ->
      let start = st.pos in
      while st.pos < String.length st.input && st.input.[st.pos] >= '0' && st.input.[st.pos] <= '9' do
        st.pos <- st.pos + 1
      done;
      Bgp.c (Term.of_int (int_of_string (String.sub st.input start (st.pos - start))))
  | _ -> fail st.pos "expected ?var, <iri>, \"literal\" or integer"

(* Predicate position: 'a', an IRI, a variable, or a parenthesized path
   expression. *)
type predicate = Plain of Bgp.component | Path of Gqkg_automata.Regex.t

let predicate st =
  skip_ws st;
  if st.pos >= String.length st.input then fail st.pos "expected a predicate";
  match st.input.[st.pos] with
  | 'a' when st.pos + 1 >= String.length st.input || not (is_name_char st.input.[st.pos + 1]) ->
      st.pos <- st.pos + 1;
      Plain (Bgp.c Rdfs.rdf_type)
  | '(' -> begin
      (* Path expression up to the matching close paren (the regex syntax
         itself uses parens, so track depth). *)
      let depth = ref 0 and i = ref st.pos in
      let close = ref (-1) in
      while !close < 0 && !i < String.length st.input do
        (match st.input.[!i] with
        | '(' -> incr depth
        | ')' ->
            decr depth;
            if !depth = 0 then close := !i
        | _ -> ());
        incr i
      done;
      if !close < 0 then fail st.pos "unterminated path expression";
      let text = String.sub st.input (st.pos + 1) (!close - st.pos - 1) in
      let path =
        match Gqkg_automata.Regex_parser.parse text with
        | r -> r
        | exception Gqkg_automata.Regex_parser.Error { position; message } ->
            fail (st.pos + 1 + position) "in path expression: %s" message
      in
      st.pos <- !close + 1;
      Path path
    end
  | _ -> Plain (term st)

let parse input =
  let st = { input; pos = 0 } in
  expect st "select";
  skip_ws st;
  let select = ref [] in
  let star = try_consume st "*" in
  if not star then begin
    skip_ws st;
    while st.pos < String.length st.input && st.input.[st.pos] = '?' do
      let at = st.pos in
      select := (variable st, at) :: !select;
      skip_ws st
    done;
    if !select = [] then fail st.pos "expected ?variables or *"
  end;
  expect st "where";
  expect st "{";
  let patterns = ref [] in
  let continue = ref true in
  while !continue do
    skip_ws st;
    if try_consume st "}" then continue := false
    else begin
      let s = term st in
      let p = predicate st in
      let o = term st in
      (match p with
      | Plain p -> patterns := Bgp.pattern s p o :: !patterns
      | Path path -> patterns := Bgp.path_pattern s path o :: !patterns);
      (* '.' separators are optional before '}'. *)
      ignore (try_consume st ".")
    end
  done;
  let limit =
    if try_consume st "limit" then begin
      skip_ws st;
      let start = st.pos in
      while st.pos < String.length st.input && st.input.[st.pos] >= '0' && st.input.[st.pos] <= '9' do
        st.pos <- st.pos + 1
      done;
      if st.pos = start then fail st.pos "expected a number after LIMIT";
      Some (int_of_string (String.sub st.input start (st.pos - start)))
    end
    else None
  in
  skip_ws st;
  if st.pos <> String.length st.input then fail st.pos "trailing input";
  let where = List.rev !patterns in
  let select =
    if star then
      (* All variables, in order of first appearance. *)
      List.concat_map Bgp.pattern_vars where
      |> List.fold_left (fun acc v -> if List.mem v acc then acc else v :: acc) []
      |> List.rev
    else begin
      let select = List.rev !select in
      List.iter
        (fun (x, at) ->
          if not (List.exists (fun pat -> List.mem x (Bgp.pattern_vars pat)) where) then
            fail at "variable ?%s not used in the pattern" x)
        select;
      List.map fst select
    end
  in
  ({ Bgp.select; where }, limit)

(* Parse and evaluate; LIMIT truncates the sorted projection. *)
(* Evaluation rides on {!Bgp.select}, i.e. on the worst-case-optimal
   join engine; [budget] governs path materialization and the join. *)
let run ?budget store input =
  let query, limit = parse input in
  let rows = Bgp.select ?budget store query in
  match limit with
  | None -> rows
  | Some l -> List.filteri (fun i _ -> i < l) rows
