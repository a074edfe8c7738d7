(** RDF terms (the RDF model of Section 3): IRIs, literals, blank nodes.
    Shared IRIs denote shared entities — the "universal interpretation"
    that makes knowledge-graph merging a set union. *)

type t =
  | Iri of string
  | Literal of { value : string; datatype : string option; lang : string option }
  | Bnode of string

val iri : string -> t

(** Raises if both [datatype] and [lang] are given. *)
val literal : ?datatype:string -> ?lang:string -> string -> t

val bnode : string -> t
val xsd_integer : string

(** rdf:type, the predicate whose objects are a resource's classes. *)
val rdf_type : t

(** xsd:integer literal. *)
val of_int : int -> t

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** Fragment / last path segment / last [:]-segment of an IRI (value of
    a literal, label of a bnode): how user-facing labels match IRIs. *)
val local_name : t -> string

(** N-Triples lexical form. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
