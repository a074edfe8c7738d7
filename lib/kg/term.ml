(* RDF terms (Section 3's RDF model): IRIs, literals and blank nodes.
   Because Const is a set of URIs in the RDF reading, a constant used in
   two different graphs denotes the same element — the "universal
   interpretation" that makes knowledge-graph integration a plain set
   union ({!Triple_store.merge}). *)

type t =
  | Iri of string
  | Literal of { value : string; datatype : string option; lang : string option }
  | Bnode of string

let iri s = Iri s
let literal ?datatype ?lang value =
  (match (datatype, lang) with
  | Some _, Some _ -> invalid_arg "Term.literal: datatype and language tag are exclusive"
  | _ -> ());
  Literal { value; datatype; lang }

let bnode s = Bnode s

let xsd_integer = "http://www.w3.org/2001/XMLSchema#integer"

let rdf_type = Iri "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

let of_int n = Literal { value = string_of_int n; datatype = Some xsd_integer; lang = None }

let equal a b =
  match (a, b) with
  | Iri x, Iri y -> String.equal x y
  | Bnode x, Bnode y -> String.equal x y
  | Literal x, Literal y -> x.value = y.value && x.datatype = y.datatype && x.lang = y.lang
  | (Iri _ | Literal _ | Bnode _), _ -> false

let compare a b =
  let tag = function Iri _ -> 0 | Bnode _ -> 1 | Literal _ -> 2 in
  match (a, b) with
  | Iri x, Iri y | Bnode x, Bnode y -> String.compare x y
  | Literal x, Literal y ->
      Stdlib.compare (x.value, x.datatype, x.lang) (y.value, y.datatype, y.lang)
  | _ -> Int.compare (tag a) (tag b)

let hash = Hashtbl.hash

(* The fragment / last path segment of an IRI: "http://ex.org/ns#person",
   "urn:label/person" and "urn:bib:person" all have local name "person"
   (separator precedence # then / then :).  Used to match user-friendly
   labels against IRIs. *)
let local_name = function
  | Iri s -> begin
      let after i = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt s '#' with
      | Some i -> after i
      | None -> (
          match String.rindex_opt s '/' with
          | Some i -> after i
          | None -> ( match String.rindex_opt s ':' with Some i -> after i | None -> s))
    end
  | Literal { value; _ } -> value
  | Bnode b -> b

let escape_literal value =
  let buf = Buffer.create (String.length value + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c -> Buffer.add_char buf c)
    value;
  Buffer.contents buf

(* N-Triples lexical form. *)
let to_string = function
  | Iri s -> Printf.sprintf "<%s>" s
  | Bnode b -> Printf.sprintf "_:%s" b
  | Literal { value; datatype; lang } -> begin
      let quoted = Printf.sprintf "\"%s\"" (escape_literal value) in
      match (datatype, lang) with
      | Some dt, _ -> Printf.sprintf "%s^^<%s>" quoted dt
      | None, Some l -> Printf.sprintf "%s@%s" quoted l
      | None, None -> quoted
    end

let pp ppf t = Fmt.string ppf (to_string t)
