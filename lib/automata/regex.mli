(** Regular expressions over graphs — grammar (1) of Section 4 with the
    property-graph and vector-labeled extensions:

    {v
    test ::= l | (p = v) | (f_i = v) | (!test) | (test | test) | (test & test)
    r    ::= ?test | test | test^- | (r + r) | (r / r) | (r)*
    v} *)

open Gqkg_graph

type test =
  | Atom of Atom.t
  | Not of test
  | Or of test * test
  | And of test * test

type t =
  | Node_test of test  (** [?test] — zero-length paths at satisfying nodes *)
  | Fwd of test  (** one forward edge satisfying the test *)
  | Bwd of test  (** one edge traversed against its direction *)
  | Alt of t * t
  | Seq of t * t
  | Star of t

(** Edge step on a label. *)
val label : string -> t

(** Node test on a label. *)
val node_label : string -> t

(** A test satisfied by every node and edge. *)
val any_test : test

(** Any single forward edge. *)
val any_edge : t

(** r? — the expression or the empty path. *)
val opt : t -> t

(** r+ = r/r*. *)
val plus : t -> t

(** Right-nested concatenation / alternation; raise on []. *)
val seq_of_list : t list -> t

val alt_of_list : t list -> t

(** Evaluate a test given an oracle for its atoms. *)
val eval_test : (Atom.t -> bool) -> test -> bool

(** Does the test only mention [Label] atoms (so its value on an edge is
    a pure function of the edge's label)? *)
val label_pure : test -> bool

val test_size : test -> int
val size : t -> int

(** Shortest possible matching-path length. *)
val min_path_length : t -> int

(** Can the expression match unboundedly long paths? *)
val unbounded : t -> bool

(** Longest matching-path length, when bounded. *)
val max_path_length : t -> int option

(** [[reverse r]] is [[r]] with every path read back to front: edge
    steps swap direction, concatenations swap order. An involution. *)
val reverse : t -> t

(** The test with every atom [a] replaced by [f a]. *)
val map_test_atoms : (Atom.t -> Atom.t) -> test -> test

(** Concrete syntax accepted by {!Regex_parser}. [top] omits the
    outermost parentheses; values that would not re-lex (spaces,
    operator characters, numeric-looking strings) are quoted so the
    output round-trips through {!Regex_parser.parse}. *)
val test_to_string : ?top:bool -> test -> string

val to_string : ?top:bool -> t -> string
val pp : Format.formatter -> t -> unit
val equal_test : test -> test -> bool
val equal : t -> t -> bool

(** Is the expression exactly the [?any_test] unit? *)
val is_any_node_test : t -> bool

(** Bottom-up Kleene-algebra simplification: deduplicated alternations,
    unit elimination, star flattening. Preserves [[r]] (checked by
    property tests); never grows the expression. *)
val simplify : t -> t
