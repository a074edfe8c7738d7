(* Binary snapshot persistence. See the .mli for the file layout.

   Design notes:

   - Everything integer is stored little-endian at a per-section width:
     1, 4 or 8 bytes per element, picked from the section's actual value
     range. On a 10^7-node graph every hot section fits width 4 (and
     elabel usually width 1), which is where the bytes-per-edge figure
     comes from.

   - The neighbour columns (out_nbr/in_nbr) are NOT stored: they are
     the gather nbr.(i) = dst(eid.(i)), recomputed at load in one O(m)
     pass — trading 8 bytes/edge of file for two array walks.

   - The checksum covers decoded logical values (ints and strings), not
     raw bytes, so both sides fold it in one cache-friendly pass; any
     bit flip in a payload changes some decoded element and breaks the
     product chain (see Gqkg_util.Checksum).

   - Width-8 elements are an int's low 63 bits; the decoder rebuilds
     the native int by oring bytes into bit positions 0..62, which
     reproduces negative ints (bitset words) exactly. *)

module B = Gqkg_util.Bitset
module C = Gqkg_util.Checksum

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let magic = "GQKGSNAP"
let version = 2
let header_bytes = 64
let table_entry_bytes = 24

(* flags *)
let flag_perm = 1
let flag_synthetic_names = 2

(* section ids *)
let sec_esrc = 1
let sec_edst = 2
let sec_elabel = 3
let sec_out_off = 4
let sec_out_eid = 5
let sec_in_off = 6
let sec_in_eid = 7
let sec_label_name_off = 8
let sec_label_name_blob = 9
let sec_nlabel_name_off = 10
let sec_nlabel_name_blob = 11
let sec_nlabel_bits = 12
(* 13-15 carried the freeze-time stats in version 1; they are derived
   from the columns and recomputed at load since version 2 *)
let sec_node_name_off = 16
let sec_node_name_blob = 17
let sec_edge_name_off = 18
let sec_edge_name_blob = 19
let sec_perm_node = 20
let sec_perm_edge = 21

(* version 2: the property and feature columns *)
let sec_dict_off = 22
let sec_dict_blob = 23
let sec_dimension = 24

(* rows group g (node props, edge props, node features, edge features)
   is sections off/kv = 25 + 2g, 26 + 2g *)
let sec_rows g = 25 + (2 * g)

(* The label keys of side g (edge labels, node labels), written only
   when some label's keys are not its name read back as a constant:
   sections 33 + 3g (per-label offsets into the key list), 34 + 3g and
   35 + 3g (the keys as a string table of tagged encodings). *)
let sec_keys g = 33 + (3 * g)

let blob_sections =
  [ sec_label_name_blob; sec_nlabel_name_blob; sec_node_name_blob; sec_edge_name_blob; sec_dict_blob ]
  @ [ sec_keys 0 + 2; sec_keys 1 + 2 ]

type report = {
  file_bytes : int;
  sections : int;
  bytes_per_edge : float;
  checksum : int;
  renumbered : bool;
  names_kept : bool;
}

type payload = Ints of int array | Blob of string

type sec = { id : int; width : int; payload : payload }

let pick_width a =
  let mx = ref 0 and mn = ref 0 in
  Array.iter
    (fun x ->
      if x > !mx then mx := x;
      if x < !mn then mn := x)
    a;
  if !mn < 0 then 8 else if !mx <= 0xff then 1 else if !mx < 1 lsl 31 then 4 else 8

let ints a = { id = 0; width = pick_width a; payload = Ints a }
let blob s = { id = 0; width = 1; payload = Blob s }
let with_id id s = { s with id }

let payload_bytes s =
  match s.payload with
  | Ints a -> Array.length a * s.width
  | Blob b -> String.length b

(* ---- string tables ---------------------------------------------------- *)

let build_string_table n get =
  let off = Array.make (n + 1) 0 in
  let buf = Buffer.create (16 * n) in
  for i = 0 to n - 1 do
    off.(i) <- Buffer.length buf;
    Buffer.add_string buf (get i)
  done;
  off.(n) <- Buffer.length buf;
  (off, Buffer.contents buf)

(* A constant as a tagged string: lossless where [Const.to_string] is
   not (a numeric-looking string, a float's last bits). *)
let encode_const = function
  | Const.Str s -> "s" ^ s
  | Const.Int i -> "i" ^ string_of_int i
  | Const.Real x -> Printf.sprintf "r%h" x
  | Const.Date { year; month; day } -> Printf.sprintf "d%d %d %d" year month day
  | Const.Bottom -> "b"

let decode_const ~what s =
  let body () = String.sub s 1 (String.length s - 1) in
  let bad () = corrupt "malformed constant %S in the %s" s what in
  match if s = "" then ' ' else s.[0] with
  | 's' -> Const.Str (body ())
  | 'i' -> ( match int_of_string_opt (body ()) with Some i -> Const.Int i | None -> bad ())
  | 'r' -> ( match float_of_string_opt (body ()) with Some x -> Const.Real x | None -> bad ())
  | 'd' -> (
      match Scanf.sscanf (body ()) "%d %d %d%!" (fun year month day -> Const.date ~year ~month ~day) with
      | c -> c
      | exception (Scanf.Scan_failure _ | Failure _ | End_of_file | Invalid_argument _) -> bad ())
  | 'b' when String.length s = 1 -> Const.Bottom
  | _ -> bad ()

let const_table consts = build_string_table (Array.length consts) (fun i -> encode_const consts.(i))

(* ---- save -------------------------------------------------------------- *)

(* The header's counts, then each section's id, width and decoded
   payload in table order. *)
let fold_sec add_string h sec =
  let h = C.add_int (C.add_int h sec.id) sec.width in
  match sec.payload with Ints a -> C.add_int_array h a | Blob b -> add_string h b

let checksum add_string header secs =
  C.finish (List.fold_left (fold_sec add_string) (List.fold_left C.add_int C.empty header) secs)

(* Canonical equality against the exact string the loader will
   re-synthesize — "n007" must NOT count as synthetic for old id 7. *)
let names_synthetic (s : Snapshot.t) ~old_node ~old_edge =
  let ok = ref true in
  (let v = ref 0 in
   while !ok && !v < s.num_nodes do
     if not (String.equal (s.node_name !v) ("n" ^ string_of_int (old_node !v))) then ok := false;
     incr v
   done);
  (let e = ref 0 in
   while !ok && !e < s.num_edges do
     if not (String.equal (s.edge_name !e) ("e" ^ string_of_int (old_edge !e))) then ok := false;
     incr e
   done);
  !ok

(* The keys the loader assumes when a side has no key sections. *)
let keys_of_names names = Array.map (fun name -> [| Const.of_string name |]) names

let flat_bits (s : Snapshot.t) =
  let w = B.words_for (max s.num_nodes 1) in
  let flat = Array.make (s.num_node_labels * w) 0 in
  Array.iteri
    (fun l row ->
      if Array.length row <> w then invalid_arg "Snapshot_io.save: bitmap width";
      Array.blit row 0 flat (l * w) w)
    s.node_label_bits;
  flat

let write_ints ch buf width a =
  let n = Array.length a in
  let cap = Bytes.length buf / width in
  let i = ref 0 in
  while !i < n do
    let k = min cap (n - !i) in
    (match width with
    | 1 ->
        for j = 0 to k - 1 do
          Bytes.unsafe_set buf j (Char.unsafe_chr a.(!i + j))
        done
    | 4 ->
        for j = 0 to k - 1 do
          Bytes.set_int32_le buf (4 * j) (Int32.of_int a.(!i + j))
        done
    | _ ->
        for j = 0 to k - 1 do
          Bytes.set_int64_le buf (8 * j) (Int64.of_int a.(!i + j))
        done);
    output_bytes ch (if k = cap then buf else Bytes.sub buf 0 (k * width));
    i := !i + k
  done

let save ?(names = `Auto) ?perm ~path (s : Snapshot.t) =
  let n = s.num_nodes and m = s.num_edges in
  let perm =
    match perm with
    | Some p when not (Renumber.is_identity p) -> Some p
    | _ -> None
  in
  let old_node v = match perm with Some p -> p.Renumber.old_of_new.(v) | None -> v in
  let old_edge e = match perm with Some p -> p.Renumber.edge_old_of_new.(e) | None -> e in
  let keep_names =
    match names with
    | `Keep -> true
    | `Drop -> false
    | `Auto -> not (names_synthetic s ~old_node ~old_edge)
  in
  let label_off, label_blob = build_string_table s.num_labels (fun l -> s.label_names.(l)) in
  let nlabel_off, nlabel_blob =
    build_string_table s.num_node_labels (fun l -> s.node_label_names.(l))
  in
  let secs = ref [] in
  let add id sec = secs := with_id id sec :: !secs in
  add sec_esrc (ints s.esrc);
  add sec_edst (ints s.edst);
  if s.num_labels > 0 then add sec_elabel (ints s.elabel);
  add sec_out_off (ints s.out_off);
  add sec_out_eid (ints s.out_eid);
  add sec_in_off (ints s.in_off);
  add sec_in_eid (ints s.in_eid);
  add sec_label_name_off (ints label_off);
  add sec_label_name_blob (blob label_blob);
  add sec_nlabel_name_off (ints nlabel_off);
  add sec_nlabel_name_blob (blob nlabel_blob);
  add sec_nlabel_bits { id = 0; width = 8; payload = Ints (flat_bits s) };
  if keep_names then begin
    let noff, nblob = build_string_table n (fun v -> s.node_name v) in
    add sec_node_name_off (ints noff);
    add sec_node_name_blob (blob nblob);
    let eoff, eblob = build_string_table m (fun e -> s.edge_name e) in
    add sec_edge_name_off (ints eoff);
    add sec_edge_name_blob (blob eblob)
  end;
  (match perm with
  | Some p ->
      add sec_perm_node (ints p.Renumber.old_of_new);
      add sec_perm_edge (ints p.Renumber.edge_old_of_new)
  | None -> ());
  let a = s.attrs in
  if Array.length a.dict > 0 then begin
    let off, text = const_table a.dict in
    add sec_dict_off (ints off);
    add sec_dict_blob (blob text)
  end;
  if a.dimension > 0 then add sec_dimension (ints [| a.dimension |]);
  List.iteri
    (fun g (r : Snapshot.rows) ->
      if Array.length r.off > 0 then begin
        add (sec_rows g) (ints r.off);
        add (sec_rows g + 1) (ints r.kv)
      end)
    [ a.node_props; a.edge_props; a.node_features; a.edge_features ];
  List.iteri
    (fun g (names, keys) ->
      if keys <> keys_of_names names then begin
        let first = Array.make (Array.length keys + 1) 0 in
        Array.iteri (fun l k -> first.(l + 1) <- first.(l) + Array.length k) keys;
        let off, text = const_table (Array.concat (Array.to_list keys)) in
        add (sec_keys g) (ints first);
        add (sec_keys g + 1) (ints off);
        add (sec_keys g + 2) (blob text)
      end)
    [ (s.label_names, s.label_keys); (s.node_label_names, s.node_label_keys) ];
  let secs = List.rev !secs in
  let flags =
    (if perm <> None then flag_perm else 0)
    lor if keep_names then 0 else flag_synthetic_names
  in
  let checksum =
    checksum C.add_string [ version; flags; n; m; s.num_labels; s.num_node_labels ] secs
  in
  let count = List.length secs in
  let ch = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr ch)
    (fun () ->
      let hdr = Bytes.make header_bytes '\000' in
      Bytes.blit_string magic 0 hdr 0 8;
      Bytes.set_int32_le hdr 8 (Int32.of_int version);
      Bytes.set_int32_le hdr 12 (Int32.of_int flags);
      Bytes.set_int64_le hdr 16 (Int64.of_int n);
      Bytes.set_int64_le hdr 24 (Int64.of_int m);
      Bytes.set_int32_le hdr 32 (Int32.of_int s.num_labels);
      Bytes.set_int32_le hdr 36 (Int32.of_int s.num_node_labels);
      Bytes.set_int32_le hdr 40 (Int32.of_int count);
      Bytes.set_int64_le hdr 48 (Int64.of_int checksum);
      output_bytes ch hdr;
      let table = Bytes.make (count * table_entry_bytes) '\000' in
      let payload_base = header_bytes + (count * table_entry_bytes) in
      let off = ref payload_base in
      List.iteri
        (fun i sec ->
          let b = i * table_entry_bytes in
          Bytes.set_int32_le table b (Int32.of_int sec.id);
          Bytes.set_int32_le table (b + 4) (Int32.of_int sec.width);
          Bytes.set_int64_le table (b + 8) (Int64.of_int !off);
          Bytes.set_int64_le table (b + 16) (Int64.of_int (payload_bytes sec));
          off := !off + payload_bytes sec)
        secs;
      output_bytes ch table;
      let buf = Bytes.create (64 * 1024) in
      List.iter
        (fun sec ->
          match sec.payload with
          | Ints a -> write_ints ch buf sec.width a
          | Blob b -> output_string ch b)
        secs;
      let file_bytes = !off in
      {
        file_bytes;
        sections = count;
        bytes_per_edge = float_of_int file_bytes /. float_of_int (max m 1);
        checksum;
        renumbered = perm <> None;
        names_kept = keep_names;
      })

(* ---- load -------------------------------------------------------------- *)

(* The whole file, read in one buffered pass.  Every section is decoded
   into fresh OCaml arrays regardless, so a Bytes image beats mmap here:
   the fixed-width accessors below are compiler primitives that compile
   to direct loads, where per-byte Bigarray reads through a function
   call cost ~100x per element. *)
type view = Bytes.t

let map_view path : view * int =
  let ch = try open_in_bin path with Sys_error m -> corrupt "cannot open: %s" m in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ch)
    (fun () ->
      let size = in_channel_length ch in
      if size < header_bytes then corrupt "file too short (%d bytes) to be a snapshot" size;
      let g = Bytes.create size in
      really_input ch g 0 size;
      (g, size))

let byte (g : view) i = Char.code (Bytes.unsafe_get g i)

let read_u32 g off = Int32.to_int (Bytes.get_int32_le g off) land 0xffffffff

(* low 63 bits, reproducing the sign of the original native int
   ([Int64.to_int] is reduction modulo 2^63).  Writers sign-extend
   native ints to 64 bits, so bit 63 always equals bit 62 in a valid
   file; rejecting non-canonical values keeps every stored bit
   meaningful (a flipped top bit cannot slip past the checksum, which
   folds decoded values). *)
let read_i63 g off =
  let x = Bytes.get_int64_le g off in
  let v = Int64.to_int x in
  if not (Int64.equal (Int64.of_int v) x) then
    corrupt "non-canonical 64-bit value at byte %d" off;
  v

let is_snapshot_file path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ch ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ch)
        (fun () ->
          match really_input_string ch 8 with
          | s -> String.equal s magic
          | exception End_of_file -> false)

type raw_sec = { r_id : int; r_width : int; r_off : int; r_len : int }

let read_header g size =
  for i = 0 to 7 do
    if byte g i <> Char.code magic.[i] then corrupt "bad magic: not a gqkg snapshot"
  done;
  let v = read_u32 g 8 in
  if v <> 1 && v <> version then
    corrupt "unsupported snapshot version %d (expected 1 or %d)" v version;
  let flags = read_u32 g 12 in
  let n = read_i63 g 16 and m = read_i63 g 24 in
  if n < 0 || m < 0 then corrupt "negative node/edge count";
  let num_labels = read_u32 g 32 and num_node_labels = read_u32 g 36 in
  let count = read_u32 g 40 in
  if count < 0 || count > 64 then corrupt "implausible section count %d" count;
  if read_u32 g 44 <> 0 then corrupt "nonzero reserved header field";
  let checksum = read_i63 g 48 in
  if read_i63 g 56 <> 0 then corrupt "nonzero reserved header field";
  let table_end = header_bytes + (count * table_entry_bytes) in
  if table_end > size then corrupt "section table runs past end of file";
  let secs =
    List.init count (fun i ->
        let b = header_bytes + (i * table_entry_bytes) in
        let r =
          {
            r_id = read_u32 g b;
            r_width = read_u32 g (b + 4);
            r_off = read_i63 g (b + 8);
            r_len = read_i63 g (b + 16);
          }
        in
        if r.r_off < table_end || r.r_len < 0 || r.r_off + r.r_len > size then
          corrupt "section %d out of bounds (offset %d, length %d, file %d)" r.r_id r.r_off
            r.r_len size;
        (match r.r_width with
        | 1 | 4 | 8 -> ()
        | w -> corrupt "section %d has unsupported element width %d" r.r_id w);
        if r.r_len mod r.r_width <> 0 then
          corrupt "section %d length %d not a multiple of width %d" r.r_id r.r_len r.r_width;
        r)
  in
  (v, flags, n, m, num_labels, num_node_labels, checksum, secs)

let decode_ints g r =
  let count = r.r_len / r.r_width in
  let a = Array.make count 0 in
  (match r.r_width with
  | 1 ->
      for i = 0 to count - 1 do
        a.(i) <- byte g (r.r_off + i)
      done
  | 4 ->
      for i = 0 to count - 1 do
        a.(i) <- read_u32 g (r.r_off + (4 * i))
      done
  | _ ->
      for i = 0 to count - 1 do
        a.(i) <- read_i63 g (r.r_off + (8 * i))
      done);
  a

let decode_blob g r = Bytes.sub_string g r.r_off r.r_len

let string_table ~off ~blob ~count ~what =
  if Array.length off <> count + 1 then
    corrupt "%s offsets: %d entries, expected %d" what (Array.length off) (count + 1);
  if off.(0) <> 0 || off.(count) <> String.length blob then
    corrupt "%s offsets do not span the blob" what;
  for i = 0 to count - 1 do
    if off.(i + 1) < off.(i) then corrupt "%s offsets not monotone at %d" what i
  done;
  Array.init count (fun i -> String.sub blob off.(i) (off.(i + 1) - off.(i)))

let table_consts ~what ~off ~blob =
  string_table ~off ~blob ~count:(max 0 (Array.length off - 1)) ~what
  |> Array.map (decode_const ~what)

let check_offsets what off n m =
  if Array.length off <> n + 1 then
    corrupt "%s: %d entries, expected %d" what (Array.length off) (n + 1);
  if n >= 0 && Array.length off > 0 then begin
    if off.(0) <> 0 then corrupt "%s does not start at 0" what;
    if off.(n) <> m then corrupt "%s: total %d, expected %d" what off.(n) m;
    for v = 0 to n - 1 do
      if off.(v + 1) < off.(v) then corrupt "%s not monotone at %d" what v
    done
  end

(* eids must be a permutation of [0, m) whose row assignment matches the
   endpoint column — the bounds check that makes a hostile file safe to
   traverse. *)
let check_csr what ~off ~eid ~endpoint ~n ~m =
  if Array.length eid <> m then corrupt "%s: %d edge ids, expected %d" what (Array.length eid) m;
  let seen = Bytes.make (max m 1) '\000' in
  for v = 0 to n - 1 do
    for i = off.(v) to off.(v + 1) - 1 do
      let e = eid.(i) in
      if e < 0 || e >= m then corrupt "%s: edge id %d out of range" what e;
      if Bytes.get seen e <> '\000' then corrupt "%s: edge id %d appears twice" what e;
      Bytes.set seen e '\001';
      if endpoint.(e) <> v then corrupt "%s: edge %d filed under node %d but endpoint is %d" what e v endpoint.(e)
    done
  done

(* The property and feature columns: absent sections (every version-1
   file) are empty rows.  The dictionary must be strictly ascending, and
   so must every property row's packed entries (a key may repeat with
   ascending values) and every feature row's keys — the invariants the
   atoms and a commit's dictionary search rely on. *)
let decode_attrs decoded ~n ~m =
  let find id = Hashtbl.find_opt decoded id in
  let dict =
    match (find sec_dict_off, find sec_dict_blob) with
    | Some (Ints off), Some (Blob blob) -> table_consts ~what:"property dictionary" ~off ~blob
    | None, None -> [||]
    | _ -> corrupt "property dictionary: offsets and blob must come together"
  in
  for i = 1 to Array.length dict - 1 do
    if Const.compare dict.(i - 1) dict.(i) >= 0 then
      corrupt "property dictionary not strictly ascending at %d" i
  done;
  let dimension =
    match find sec_dimension with
    | Some (Ints [| d |]) when d >= 0 -> d
    | None -> 0
    | _ -> corrupt "malformed feature dimension"
  in
  let rows g count : Snapshot.rows =
    match (find (sec_rows g), find (sec_rows g + 1)) with
    | None, None -> Snapshot.no_rows
    | Some (Ints off), Some (Ints kv) ->
        let what = Printf.sprintf "rows %d" g in
        let order = if g < 2 then Fun.id else Snapshot.entry_key in
        check_offsets what off count (Array.length kv);
        let bound = Array.length dict in
        for o = 0 to count - 1 do
          for i = off.(o) to off.(o + 1) - 1 do
            let k = Snapshot.entry_key kv.(i) and v = Snapshot.entry_value kv.(i) in
            if kv.(i) < 0 || k >= bound || v >= bound then
              corrupt "%s: id out of range at entry %d" what i;
            if i > off.(o) && order kv.(i - 1) >= order kv.(i) then
              corrupt "%s: entries not ascending in row %d" what o
          done
        done;
        { off; kv }
    | _ -> corrupt "rows %d: incomplete sections" g
  in
  {
    Snapshot.dict;
    node_props = rows 0 n;
    edge_props = rows 1 m;
    dimension;
    node_features = rows 2 n;
    edge_features = rows 3 m;
  }

(* One side's label keys: absent sections (every file whose keys are
   its names) mean each label is named by its name read back as a
   constant. *)
let decode_keys decoded g names =
  let find id = Hashtbl.find_opt decoded id in
  let what = if g = 0 then "edge label keys" else "node label keys" in
  match (find (sec_keys g), find (sec_keys g + 1), find (sec_keys g + 2)) with
  | None, None, None -> keys_of_names names
  | Some (Ints first), Some (Ints off), Some (Blob blob) ->
      let flat = table_consts ~what ~off ~blob and count = Array.length names in
      check_offsets what first count (Array.length flat);
      Array.init count (fun l -> Array.sub flat first.(l) (first.(l + 1) - first.(l)))
  | _ -> corrupt "%s: incomplete sections" what

let load_with_perm path =
  let g, size = map_view path in
  let file_version, flags, n, m, num_labels, num_node_labels, stored_checksum, secs =
    read_header g size
  in
  (* decode every listed section once, folding the checksum in table
     order — the order save wrote and folded them.  A file whose strings
     were folded before the fold covered their every bit checks against
     the lossy fold. *)
  let header = [ file_version; flags; n; m; num_labels; num_node_labels ] in
  let h = ref (List.fold_left C.add_int C.empty header) in
  let secs =
    List.map
      (fun r ->
        let payload =
          if List.mem r.r_id blob_sections then Blob (decode_blob g r) else Ints (decode_ints g r)
        in
        let sec = { id = r.r_id; width = r.r_width; payload } in
        h := fold_sec C.add_string !h sec;
        sec)
      secs
  in
  let computed = C.finish !h in
  if computed <> stored_checksum && checksum C.add_string_lossy header secs <> stored_checksum
  then
    corrupt "checksum mismatch: file is corrupt (stored %d, computed %d)" stored_checksum computed;
  let decoded = Hashtbl.create 32 in
  List.iter (fun sec -> Hashtbl.replace decoded sec.id sec.payload) secs;
  let get_ints id what =
    match Hashtbl.find_opt decoded id with
    | Some (Ints a) -> a
    | _ -> corrupt "missing required section %d (%s)" id what
  in
  let get_blob id what =
    match Hashtbl.find_opt decoded id with
    | Some (Blob b) -> b
    | _ -> corrupt "missing required section %d (%s)" id what
  in
  let esrc = get_ints sec_esrc "esrc" in
  let edst = get_ints sec_edst "edst" in
  if Array.length esrc <> m || Array.length edst <> m then
    corrupt "endpoint columns: %d/%d entries, expected %d" (Array.length esrc)
      (Array.length edst) m;
  for e = 0 to m - 1 do
    if esrc.(e) < 0 || esrc.(e) >= n then corrupt "edge %d: source %d out of range" e esrc.(e);
    if edst.(e) < 0 || edst.(e) >= n then corrupt "edge %d: target %d out of range" e edst.(e)
  done;
  let elabel =
    if num_labels > 0 then begin
      let a = get_ints sec_elabel "elabel" in
      if Array.length a <> m then corrupt "elabel: %d entries, expected %d" (Array.length a) m;
      Array.iteri
        (fun e l -> if l < 0 || l >= num_labels then corrupt "edge %d: label id %d out of range" e l)
        a;
      a
    end
    else Array.make m 0
  in
  let out_off = get_ints sec_out_off "out_off" in
  let out_eid = get_ints sec_out_eid "out_eid" in
  let in_off = get_ints sec_in_off "in_off" in
  let in_eid = get_ints sec_in_eid "in_eid" in
  check_offsets "out_off" out_off n m;
  check_offsets "in_off" in_off n m;
  check_csr "out CSR" ~off:out_off ~eid:out_eid ~endpoint:esrc ~n ~m;
  check_csr "in CSR" ~off:in_off ~eid:in_eid ~endpoint:edst ~n ~m;
  (* the gather that replaces 8 bytes/edge of file *)
  let out_nbr = Array.make m 0 and in_nbr = Array.make m 0 in
  for i = 0 to m - 1 do
    out_nbr.(i) <- edst.(out_eid.(i));
    in_nbr.(i) <- esrc.(in_eid.(i))
  done;
  let label_names =
    string_table ~off:(get_ints sec_label_name_off "label name offsets")
      ~blob:(get_blob sec_label_name_blob "label name blob") ~count:num_labels
      ~what:"label names"
  in
  let node_label_names =
    string_table ~off:(get_ints sec_nlabel_name_off "node label name offsets")
      ~blob:(get_blob sec_nlabel_name_blob "node label name blob") ~count:num_node_labels
      ~what:"node label names"
  in
  let words = B.words_for (max n 1) in
  let flat = get_ints sec_nlabel_bits "node label bitmaps" in
  if Array.length flat <> num_node_labels * words then
    corrupt "node label bitmaps: %d words, expected %d" (Array.length flat)
      (num_node_labels * words);
  let node_label_bits = Array.init num_node_labels (fun l -> Array.sub flat (l * words) words) in
  let edge_label_counts = Array.make num_labels 0 in
  if num_labels > 0 then
    Array.iter (fun l -> edge_label_counts.(l) <- edge_label_counts.(l) + 1) elabel;
  let stats =
    Snapshot.stats_of_columns ~num_nodes:n ~out_off ~in_off ~edge_label_counts
      ~node_label_counts:(Array.map B.raw_cardinal node_label_bits)
  in
  let perm =
    if flags land flag_perm <> 0 then begin
      let old_node = get_ints sec_perm_node "node permutation" in
      let old_edge = get_ints sec_perm_edge "edge permutation" in
      if Array.length old_node <> n then corrupt "node permutation length";
      if Array.length old_edge <> m then corrupt "edge permutation length";
      let seen = Bytes.make (max n 1) '\000' in
      Array.iter
        (fun v ->
          if v < 0 || v >= n then corrupt "node permutation entry %d out of range" v;
          if Bytes.get seen v <> '\000' then corrupt "node permutation entry %d repeated" v;
          Bytes.set seen v '\001')
        old_node;
      let new_of_old = Array.make n 0 in
      Array.iteri (fun v' v -> new_of_old.(v) <- v') old_node;
      Some
        {
          Renumber.old_of_new = old_node;
          new_of_old;
          edge_old_of_new = old_edge;
        }
    end
    else None
  in
  let old_node v = match perm with Some p -> p.Renumber.old_of_new.(v) | None -> v in
  let old_edge e = match perm with Some p -> p.Renumber.edge_old_of_new.(e) | None -> e in
  let node_name, edge_name =
    if flags land flag_synthetic_names <> 0 then
      ( (fun v -> "n" ^ string_of_int (old_node v)),
        fun e -> "e" ^ string_of_int (old_edge e) )
    else begin
      let nn =
        string_table ~off:(get_ints sec_node_name_off "node name offsets")
          ~blob:(get_blob sec_node_name_blob "node name blob") ~count:n ~what:"node names"
      in
      let en =
        string_table ~off:(get_ints sec_edge_name_off "edge name offsets")
          ~blob:(get_blob sec_edge_name_blob "edge name blob") ~count:m ~what:"edge names"
      in
      ((fun v -> nn.(v)), fun e -> en.(e))
    end
  in
  let label_keys = decode_keys decoded 0 label_names in
  let node_label_keys = decode_keys decoded 1 node_label_names in
  let attrs = decode_attrs decoded ~n ~m in
  let snapshot : Snapshot.t =
    {
      num_nodes = n;
      num_edges = m;
      esrc;
      edst;
      out_off;
      out_eid;
      out_nbr;
      in_off;
      in_eid;
      in_nbr;
      num_labels;
      elabel;
      label_names;
      label_keys;
      num_node_labels;
      node_label_names;
      node_label_keys;
      node_label_bits;
      attrs;
      node_name;
      edge_name;
      stats;
      epoch = Snapshot.fresh_epoch ();
      memo = Gqkg_util.Memo.create ();
    }
  in
  (snapshot, perm)

let load path = fst (load_with_perm path)

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

let read_info path =
  let g, size = map_view path in
  let i_version, flags, n, m, num_labels, num_node_labels, _, secs = read_header g size in
  {
    i_version;
    i_nodes = n;
    i_edges = m;
    i_labels = num_labels;
    i_node_labels = num_node_labels;
    i_renumbered = flags land flag_perm <> 0;
    i_synthetic_names = flags land flag_synthetic_names <> 0;
    i_sections = List.length secs;
    i_file_bytes = size;
  }
