(** Versioned, checksummed binary persistence for {!Snapshot}.

    A `.gqs` file is a direct image of the snapshot's flat columns:

    {v
    "GQKGSNAP"  magic (8 bytes)
    u32 version, u32 flags          (bit 0: permutation present,
                                     bit 1: synthetic names)
    i64 num_nodes, i64 num_edges
    u32 num_labels, u32 num_node_labels
    u32 section_count, u32 reserved
    i64 checksum, i64 reserved      (64-byte header total)
    section table: section_count x (u32 id, u32 elem_width,
                                    i64 byte offset, i64 byte length)
    section payloads, little-endian fixed-width elements
    v}

    Sections carry the endpoint columns (esrc/edst), the edge-label
    column, both CSR directions as offset+edge-id pairs (the neighbour
    columns are a gather [nbr.(i) = edst.(eid.(i))] recomputed at load
    — 8 bytes/edge cheaper on disk), interned label-name string tables,
    node-label membership bitmaps, optional node and edge name tables,
    the optional renumbering permutation and (version 2) the property
    and feature columns: the constant dictionary as a string table of
    tagged encodings, the feature dimension, and per-side row sets
    (offsets, packed key/value entries), each written only when
    non-empty, and per-side label keys (per-label offsets into a list
    of tagged constants), written only when some label's keys are not
    its name read back with [Const.of_string] — the keys a loader
    assumes without them.
    Degree and label statistics are derived, recomputed at load.

    Integer sections pick their element width per section (4 bytes when
    every value fits, 8 otherwise), so bytes-per-edge tracks the graph's
    actual id range rather than the worst case.

    Loading reads the file in one buffered pass and materializes each
    section with a bounds-checked fixed-width decode — no parsing of
    the graph, no CSR rebuild; it is O(file size) with small constants
    where parse + freeze is O(text) with string-machinery constants.

    {2 Round trip}

    A loaded snapshot answers every [Label], [Prop] and [Feature] atom
    as the saved one did, a triple store's view included: constants in
    the dictionary and the label keys are tagged and lossless.
    Version-1 files (no property sections) still load, with no
    properties or features. Names are persisted
    as string tables unless they are the synthetic ["n<id>"]/["e<id>"]
    generator names, which are detected (or forced with [`Drop]) and
    re-synthesized at load through the permutation. *)

(** Structured load failure: every malformed input — short file, bad
    magic, unsupported version, out-of-bounds section, inconsistent
    column, checksum mismatch — raises this, never an [Invalid_argument]
    or a segfault. The CLI maps it to diagnostic GQ047, exit 2. *)
exception Corrupt of string

val magic : string
val version : int

(** Cheap sniff: does the file start with the snapshot magic? False on
    unreadable/short files. *)
val is_snapshot_file : string -> bool

type report = {
  file_bytes : int;
  sections : int;
  bytes_per_edge : float;  (** file size / max(1, edges) *)
  checksum : int;
  renumbered : bool;  (** a non-identity permutation was stored *)
  names_kept : bool;  (** name string tables were written *)
}

(** [save ?names ?perm ~path s] writes [s]. [perm] (from
    {!Renumber.renumber}) records how [s]'s internal ids map back to
    the pre-renumbering ids; identity permutations are elided. [names]:
    [`Auto] (default) detects synthetic generator names and drops the
    tables when lossless to do so, [`Keep] always writes them, [`Drop]
    never does (loaded names become ["n<old-id>"]). *)
val save :
  ?names:[ `Auto | `Keep | `Drop ] ->
  ?perm:Renumber.permutation ->
  path:string ->
  Snapshot.t ->
  report

(** Load a snapshot of version 1 or {!version}; raises {!Corrupt} on
    any malformed input. *)
val load : string -> Snapshot.t

(** Like {!load}, also returning the stored permutation (None when the
    file was saved unrenumbered) — tests and benches use it to map
    internal ids across layouts. *)
val load_with_perm : string -> Snapshot.t * Renumber.permutation option

type info = {
  i_version : int;
  i_nodes : int;
  i_edges : int;
  i_labels : int;
  i_node_labels : int;
  i_renumbered : bool;
  i_synthetic_names : bool;
  i_sections : int;
  i_file_bytes : int;
}

(** Header peek without decoding payloads; raises {!Corrupt} on a file
    that is not a snapshot. *)
val read_info : string -> info
