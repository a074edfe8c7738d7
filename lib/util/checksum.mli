(** Fast non-cryptographic integrity checksum over logical content.

    The binary snapshot format ({!Gqkg_graph.Snapshot_io}) checksums the
    *decoded* values — ints, strings, section shapes — rather than raw
    file bytes, so both the writer (folding from live arrays) and the
    reader (folding from freshly decoded arrays) compute it in one cache-
    friendly pass over native ints with no byte-at-a-time loop. Any
    flipped bit in a stored element changes the decoded value and
    therefore the folded product chain (FNV-1a over 63-bit ints).

    Deterministic across runs and platforms with 64-bit OCaml ints; not
    collision-resistant against an adversary — it detects corruption,
    not tampering. *)

(** Fold seed. *)
val empty : int

(** Fold one int (full 63-bit range accepted). *)
val add_int : int -> int -> int

(** Fold an int array: length, then every element. *)
val add_int_array : int -> int array -> int

(** Fold a string: length, then 8 chars per multiplication, then the
    top two bits of each eighth char, which a word's 62-bit fold drops. *)
val add_string : int -> string -> int

(** {!add_string} without its last step: checksums written before it. *)
val add_string_lossy : int -> string -> int

(** Final avalanche; result is non-negative (storable as an i64 field
    and comparable after reload). *)
val finish : int -> int
