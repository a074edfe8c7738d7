(** A memo of derived state: at most one value per {!Type.Id.t}, shared
    by every reader of its owner (a snapshot, a cached answer), collected
    with it, and safe across domains. *)

type t

val create : unit -> t

(** [get t id build] is the value held under [id], computed by
    [build ()] on first use.  [build] runs outside any lock; when two
    callers race, the first value inserted wins and both get it. *)
val get : t -> 'a Type.Id.t -> (unit -> 'a) -> 'a
