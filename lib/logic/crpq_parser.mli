(** Cypher-flavored concrete syntax for CRPQs:

    {v
    SELECT x, z
    WHERE (x:person)-[rides]->(y:bus),
          (z:company)-[owns]->(y)
    v}

    [:label] on a node is sugar for a [?label] node test on the adjacent
    path atoms; [<-\[r\]-] reverses an atom; the bracketed expression is
    the full {!Gqkg_automata.Regex_parser} syntax. Keywords are
    case-insensitive. *)

exception Error of { position : int; message : string }

(** Raises {!Error} with a 0-based character position, also for a head
    variable that no body atom binds. *)
val parse : string -> Crpq.t

val parse_opt : string -> Crpq.t option
