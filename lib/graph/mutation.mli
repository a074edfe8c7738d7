(** Typed mutations over property graphs — the write-path vocabulary of
    the Section 2.1 storage lifecycle, shared by the durable journal
    ({!Journal}), the in-memory delta overlay ({!Overlay}) and the CLI's
    [gqkg mutate] scripts.

    Semantics (openCypher CREATE/MERGE/SET/REMOVE/DELETE cues):
    [Add_*] creates and is invalid when a live object with that id
    already exists; [Merge_*] matches-or-creates by id (a no-op on a
    live match, even when the labels differ); [Set_*_prop] upserts;
    [Del_*_prop] removes (absent property: no-op); [Del_node] cascades
    over incident edges. Deleting an object frees its id for re-use. *)

type t =
  | Add_node of { id : Const.t; label : Const.t }
  | Merge_node of { id : Const.t; label : Const.t }
  | Add_edge of { id : Const.t; src : Const.t; dst : Const.t; label : Const.t }
  | Merge_edge of { id : Const.t; src : Const.t; dst : Const.t; label : Const.t }
  | Set_node_prop of { id : Const.t; prop : Const.t; value : Const.t }
  | Set_edge_prop of { id : Const.t; prop : Const.t; value : Const.t }
  | Del_node_prop of { id : Const.t; prop : Const.t }
  | Del_edge_prop of { id : Const.t; prop : Const.t }
  | Del_node of { id : Const.t }
  | Del_edge of { id : Const.t }

(** Raised by {!of_line} on malformed text; the journal wraps it with
    file context. *)
exception Op_error of { line : int; message : string }

(** One line per op, no trailing newline. *)
val to_line : t -> string

(** [None] on blank lines; raises {!Op_error} on malformed input. *)
val of_line : line:int -> string -> t option
