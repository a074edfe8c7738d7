(** Text journals of property-graph mutations: the storage lifecycle
    of Section 2.1 — a graph grows and shrinks by explicit operations
    and is rebuilt by replay. A journal is written whole ([gqkg mutate
    --journal]) as the minimal history of a state; the lossless
    checkpoint of a state is its [.gqs] snapshot ({!Snapshot_io}).

    The op type is {!Mutation.t} re-exported (same constructors), so the
    journal, the delta overlay and the CLI mutation scripts share one
    vocabulary; replay here is the from-scratch reference semantics the
    incremental epoch-commit path is property-tested against. *)

type op = Mutation.t =
  | Add_node of { id : Const.t; label : Const.t }
  | Merge_node of { id : Const.t; label : Const.t }  (** create unless a live node exists *)
  | Add_edge of { id : Const.t; src : Const.t; dst : Const.t; label : Const.t }
  | Merge_edge of { id : Const.t; src : Const.t; dst : Const.t; label : Const.t }
  | Set_node_prop of { id : Const.t; prop : Const.t; value : Const.t }
  | Set_edge_prop of { id : Const.t; prop : Const.t; value : Const.t }
  | Del_node_prop of { id : Const.t; prop : Const.t }  (** absent property: no-op *)
  | Del_edge_prop of { id : Const.t; prop : Const.t }
  | Del_node of { id : Const.t }  (** deletes incident edges too *)
  | Del_edge of { id : Const.t }

(** [file] is the journal path when the error was raised while reading
    or validating a journal file, [None] for in-memory
    text — the CLI renders ["file:line: message"] GQ048 diagnostics
    from it. *)
exception Replay_error of { file : string option; line : int; message : string }

(** One line per op, no trailing newline. *)
val op_to_line : op -> string

(** [None] on blank lines; raises {!Replay_error} on malformed input. *)
val op_of_line : ?file:string -> line:int -> string -> op option

(** Replay a history into a graph. Raises {!Replay_error} on invalid
    sequences (duplicate adds, references to missing objects). *)
val replay_ops : ?file:string -> op list -> Property_graph.t

(** Parse a journal text; [tolerate_partial] ignores a torn final line
    (crash recovery). *)
val ops_of_string : ?file:string -> ?tolerate_partial:bool -> string -> op list

val ops_to_string : op list -> string

(** Read and parse a journal file; {!Replay_error}s carry the path.
    Without [tolerate_partial] a torn final line (the only damage an
    append-only crash can cause) is an error pointing at that line. *)
val load_ops : ?tolerate_partial:bool -> string -> op list

(** [load_ops] followed by {!replay_ops}: the materialized state of a
    journal file. *)
val load : ?tolerate_partial:bool -> string -> Property_graph.t

(** The minimal history recreating a snapshot's state (node adds, edge
    adds, edge props, node props; ids and labels read back from its
    names) — what [gqkg mutate --journal] persists. *)
val ops_of_snapshot : Snapshot.t -> op list

(** [ops_of_snapshot] of the graph's freeze. *)
val ops_of_graph : Property_graph.t -> op list
