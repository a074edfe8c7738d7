(** The served answer of an RPQ: its distinct (src, dst) pairs in
    ascending order as two int columns (16 bytes a pair), and a memo of
    the state derived from them — the join relation
    ({!Join.relation_of_answer}), the wire page
    ([Gqkg_server.Jsonx.answer_body]).  A result-cache entry is one
    answer ({!Semcache}), so that state lives and dies with the entry. *)

type t = private { src : int array; dst : int array; memo : Gqkg_util.Memo.t }

(** Pair [i] is [(src.(i), dst.(i))]: the caller guarantees that the
    pairs ascend strictly, and hands both arrays over. *)
val of_columns : int array -> int array -> t

val to_pairs : t -> (int * int) list
val length : t -> int

val memo : t -> 'a Type.Id.t -> (unit -> 'a) -> 'a
(** {!Gqkg_util.Memo.get} on the answer's memo. *)
