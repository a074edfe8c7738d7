(** Plain-text serialization of property graphs and Graphviz DOT export.

    Format (one declaration per line; ['#'] starts a comment):
    {v
    node <id> <label> [<prop>=<value> ...]
    edge <id> <src-id> <dst-id> <label> [<prop>=<value> ...]
    v}
    Tokens are whitespace-separated and parsed with {!Const.of_string};
    edges may reference nodes declared later. *)

exception Parse_error of { file : string option; line : int; message : string }

(** ["file:line: message"] (or ["line N: message"] without a file) — the
    rendering the CLI shows for malformed input. *)
val error_to_string : file:string option -> line:int -> message:string -> string

(** Raises {!Parse_error} with a 1-based line number ([file = None]).
    Rejects re-declared node and edge ids (the builder would silently
    merge them) and edges referencing undeclared endpoints. *)
val property_graph_of_string : string -> Property_graph.t

(** Deterministic rendering in declaration (index) order; a fixed point
    of parse ∘ render. *)
val property_graph_to_string : Property_graph.t -> string

val labeled_graph_to_string : Labeled_graph.t -> string

(** Order-insensitive canonical form (node and edge declarations
    sorted): the right equality after set-based round-trips (RDF). *)
val canonical_string : Property_graph.t -> string

(** Like {!property_graph_of_string}; {!Parse_error}s carry the path in
    [file]. *)
val load_property_graph : string -> Property_graph.t
val save_property_graph : string -> Property_graph.t -> unit

(** Graphviz digraph of the labeled view. *)
val to_dot : ?name:string -> Property_graph.t -> string
