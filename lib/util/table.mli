(** Aligned ASCII table rendering for the examples. *)

type align = Left | Right
type t

(** [create headers] starts a table; default alignment is [Right]. *)
val create : ?aligns:align list -> string list -> t

(** Append a row; must match the header width. *)
val add_row : t -> string list -> unit

val render : t -> string
val print : t -> unit

(** ASCII bar chart: one group per (series name, (x-label, value) list),
    bars scaled to the global maximum. *)
val bar_chart : ?width:int -> (string * (string * float) list) list -> string
