(* Delta overlay over a frozen snapshot: the write path of the MVCC
   epoch design.  Mutations accumulate in delta-sized structures (sets
   of dead base indices, appended new objects by id, property-override
   tables); reads answer base ∪ adds ∖ deletes through the base's id
   index; [commit] re-freezes incrementally, physically sharing every
   column the delta did not touch and blitting the survivors of the
   ones it did, then hands the id index, updated by the delta, to the
   new base.

   Numbering invariant: base survivors keep base order, new objects
   append in insertion order — the same order [Journal.replay_ops]
   yields, so incremental commits and from-scratch replays of one
   history agree on node and edge numbering (test_epoch checks answers
   as int pairs).  Interned label universes are append-only across
   commits: deleting the last edge with label ℓ keeps ℓ's id at count 0
   where a scratch freeze would forget it — query answers are
   unaffected (a label id answers by its own keys) and survivors keep
   their label ids and keys, which is what lets [elabel] be reused
   verbatim. *)

module B = Gqkg_util.Bitset
module Ids = Hashtbl.Make (String)
module Ints = Set.Make (Int)

(* Objects are identified by name: a mutation's Const id is looked up
   by its rendering, which is what a snapshot's names store. *)
let key = Const.to_string

(* Names to base indices.  A name one object carries maps to it in
   [one]; a name several carry (on a triple store's view, every edge of
   one predicate) maps to all of them in [many]. *)
type names = { one : int Ids.t; many : int list Ids.t }

(* Writer-side id index: node and edge names to base indices, and back
   (the names in index order, which a commit compacts by blits); and
   each constant to the label ids it names by the label rule — its
   name read back as a constant, or one of its keys. *)
type index = {
  node_ix : names;
  edge_ix : names;
  node_names : string array;
  edge_names : string array;
  node_labels : (Const.t, int list) Hashtbl.t;
  edge_labels : (Const.t, int list) Hashtbl.t;
}

type base = {
  snap : Snapshot.t;
  mutable index : index option;
      (* built on the base's first write, moved to the next base by
         [commit]; only the serialized writer touches it *)
}

let snapshot b = b.snap
let history b = Journal.ops_of_snapshot b.snap

(* The overlay's write semantics are property-model: one label per
   node, an edge-label index, atoms answered by the columns. *)
let base_of_snapshot (s : Snapshot.t) =
  let n = s.Snapshot.num_nodes in
  let seen = Bytes.make (max n 1) '\000' in
  Array.iter
    (fun bits ->
      B.raw_iter bits (fun v ->
          if Bytes.get seen v <> '\000' then
            invalid_arg "Overlay.base_of_snapshot: node labels are not exclusive";
          Bytes.set seen v '\001'))
    s.Snapshot.node_label_bits;
  for v = 0 to n - 1 do
    if Bytes.get seen v = '\000' then invalid_arg "Overlay.base_of_snapshot: unlabeled node"
  done;
  if s.Snapshot.num_labels = 0 && s.Snapshot.num_edges > 0 then
    invalid_arg "Overlay.base_of_snapshot: snapshot has no edge-label index";
  { snap = s; index = None }

let base_of_property g = base_of_snapshot (Snapshot.of_property g)

let names_index names =
  let ix = { one = Ids.create (Array.length names + 16); many = Ids.create 16 } in
  Array.iteri
    (fun i name ->
      match Ids.find_opt ix.one name with
      | Some j ->
          Ids.remove ix.one name;
          Ids.replace ix.many name [ j; i ]
      | None -> (
          match Ids.find_opt ix.many name with
          | Some is -> Ids.replace ix.many name (i :: is)
          | None -> Ids.add ix.one name i))
    names;
  ix

(* The live base indices carrying [name]. *)
let live_indices ix ~dead name =
  match Ids.find_opt ix.one name with
  | Some i -> if Ints.mem i dead then [] else [ i ]
  | None -> (
      match Ids.find_opt ix.many name with
      | Some is -> List.filter (fun i -> not (Ints.mem i dead)) is
      | None -> [])

let add_label tbl l c =
  let ls = Option.value (Hashtbl.find_opt tbl c) ~default:[] in
  if not (List.mem l ls) then Hashtbl.replace tbl c (l :: ls)

(* Label [l] named [name] with [keys], under each constant that names it. *)
let index_label tbl l name keys =
  add_label tbl l (Const.of_string name);
  Array.iter (add_label tbl l) keys

let label_index names keys =
  let tbl = Hashtbl.create ((2 * Array.length names) + 16) in
  Array.iteri (fun l name -> index_label tbl l name keys.(l)) names;
  tbl

(* The base's id index, built on its first write (a fork's first write
   after [commit] moved it on rebuilds it). *)
let index b =
  match b.index with
  | Some ix -> ix
  | None ->
      let s = b.snap in
      let node_names = Array.init s.Snapshot.num_nodes s.Snapshot.node_name in
      let edge_names = Array.init s.Snapshot.num_edges s.Snapshot.edge_name in
      let ix =
        {
          node_ix = names_index node_names;
          edge_ix = names_index edge_names;
          node_names;
          edge_names;
          node_labels = label_index s.Snapshot.node_label_names s.Snapshot.node_label_keys;
          edge_labels = label_index s.Snapshot.label_names s.Snapshot.label_keys;
        }
      in
      b.index <- Some ix;
      ix

(* ---------------- The delta ------------------------------------------- *)

type new_node = {
  n_id : Const.t;
  n_label : Const.t;
  n_label_id : int;
  mutable n_props : (Const.t * Const.t) list;
  mutable n_final : int; (* final index, assigned during commit *)
}

type new_edge = {
  e_id : Const.t;
  e_src : Const.t;
  e_dst : Const.t;
  e_label : Const.t;
  e_label_id : int;
  mutable e_props : (Const.t * Const.t) list;
}

(* [Several_nodes k], [Several_edges k]: [k] live base objects carry
   the id, so no op may act on it. *)
type node_handle = Bnode of int | Nnode of new_node | No_node | Several_nodes of int
type edge_handle = Bedge of int | Nedge of new_edge | No_edge | Several_edges of int

type t = {
  base : base;
  mutable dead_nodes : Ints.t; (* base node indices *)
  mutable dead_edges : Ints.t;
  mutable new_nodes : new_node list; (* reversed insertion order *)
  mutable new_edges : new_edge list; (* reversed *)
  new_node_ids : new_node Ids.t; (* live new objects *)
  new_edge_ids : new_edge Ids.t;
  mutable node_labels_added : Const.t list;
      (* labels the delta appends, reversed; the k-th appended has id
         k past the base's labels *)
  mutable edge_labels_added : Const.t list;
  bprops_n : (int, (Const.t * Const.t) list) Hashtbl.t; (* touched base nodes: full current assoc *)
  bprops_e : (int, (Const.t * Const.t) list) Hashtbl.t;
  mutable ops : int;
}

let create base =
  {
    base;
    dead_nodes = Ints.empty;
    dead_edges = Ints.empty;
    new_nodes = [];
    new_edges = [];
    new_node_ids = Ids.create 16;
    new_edge_ids = Ids.create 16;
    node_labels_added = [];
    edge_labels_added = [];
    bprops_n = Hashtbl.create 16;
    bprops_e = Hashtbl.create 16;
    ops = 0;
  }

let base t = t.base
let size t = t.ops

let live_nodes t =
  t.base.snap.Snapshot.num_nodes - Ints.cardinal t.dead_nodes + List.length t.new_nodes

let live_edges t =
  t.base.snap.Snapshot.num_edges - Ints.cardinal t.dead_edges + List.length t.new_edges

(* Delta first, then the base index minus the dead set. *)
let find_node t id =
  let k = key id in
  match Ids.find_opt t.new_node_ids k with
  | Some r -> Nnode r
  | None -> (
      match live_indices (index t.base).node_ix ~dead:t.dead_nodes k with
      | [] -> No_node
      | [ i ] -> Bnode i
      | is -> Several_nodes (List.length is))

let find_edge t id =
  let k = key id in
  match Ids.find_opt t.new_edge_ids k with
  | Some r -> Nedge r
  | None -> (
      match live_indices (index t.base).edge_ix ~dead:t.dead_edges k with
      | [] -> No_edge
      | [ e ] -> Bedge e
      | es -> Several_edges (List.length es))

let mem_node t id = match find_node t id with No_node -> false | _ -> true
let mem_edge t id = match find_edge t id with No_edge -> false | _ -> true

let fail ?file line fmt =
  Printf.ksprintf (fun message -> raise (Journal.Replay_error { file; line; message })) fmt

(* The label id a mutation's label [c] resolves to: the one label, of
   the base's ([table]) or of those the delta appended ([added]), that
   [c] names by the label rule; a label appended when none does.  [c]
   naming several is refused. *)
let resolve_label ?file line table ~base_count added c =
  (* [index_label]'s rule for a label named by [a] with keys [[| a |]]. *)
  let named a = Const.equal c a || Const.equal c (Const.of_string (Const.to_string a)) in
  let appended =
    List.concat (List.mapi (fun k a -> if named a then [ base_count + k ] else []) (List.rev added))
  in
  match Option.value (Hashtbl.find_opt table c) ~default:[] @ appended with
  | [ l ] -> (l, added)
  | [] -> (base_count + List.length added, c :: added)
  | ls ->
      fail ?file line "label %s is ambiguous: it names %d labels" (Const.to_string c)
        (List.length ls)

let assoc_set assoc prop value =
  (prop, value) :: List.filter (fun (p, _) -> not (Const.equal p prop)) assoc

let assoc_del assoc prop = List.filter (fun (p, _) -> not (Const.equal p prop)) assoc
let assoc_find assoc prop = List.find_map (fun (p, v) -> if Const.equal p prop then Some v else None) assoc

(* Current props of a live base object as an assoc (override table first,
   the snapshot's property row otherwise). *)
let base_props_assoc t over rows i =
  match Hashtbl.find_opt over i with
  | Some assoc -> assoc
  | None -> Array.to_list (Snapshot.row t.base.snap.Snapshot.attrs.dict rows i)

let kill_base_edge t e =
  t.dead_edges <- Ints.add e t.dead_edges;
  Hashtbl.remove t.bprops_e e

let kill_new_edge t (r : new_edge) =
  t.new_edges <- List.filter (fun x -> x != r) t.new_edges;
  Ids.remove t.new_edge_ids (key r.e_id)

let apply ?file ?(line = 0) t op =
  let s = t.base.snap in
  let attrs = s.Snapshot.attrs in
  let several what id k =
    fail ?file line "%s %s is ambiguous: %d live %ss carry it" what (Const.to_string id) k what
  in
  (* The live object [id] names, refusing an id several carry. *)
  let node id =
    match find_node t id with Several_nodes k -> several "node" id k | h -> h
  in
  let edge id =
    match find_edge t id with Several_edges k -> several "edge" id k | h -> h
  in
  let add_node id label =
    if mem_node t id then fail ?file line "node %s already exists" (Const.to_string id);
    let l, added =
      resolve_label ?file line (index t.base).node_labels ~base_count:s.Snapshot.num_node_labels
        t.node_labels_added label
    in
    let r = { n_id = id; n_label = label; n_label_id = l; n_props = []; n_final = -1 } in
    t.node_labels_added <- added;
    t.new_nodes <- r :: t.new_nodes;
    Ids.replace t.new_node_ids (key id) r
  in
  let add_edge id src dst label =
    if mem_edge t id then fail ?file line "edge %s already exists" (Const.to_string id);
    List.iter
      (fun v ->
        if node v = No_node then
          fail ?file line "edge %s references missing node %s" (Const.to_string id)
            (Const.to_string v))
      [ src; dst ];
    let l, added =
      resolve_label ?file line (index t.base).edge_labels ~base_count:s.Snapshot.num_labels
        t.edge_labels_added label
    in
    let r =
      { e_id = id; e_src = src; e_dst = dst; e_label = label; e_label_id = l; e_props = [] }
    in
    t.edge_labels_added <- added;
    t.new_edges <- r :: t.new_edges;
    Ids.replace t.new_edge_ids (key id) r
  in
  let no_node id = fail ?file line "no node %s" (Const.to_string id) in
  let no_edge id = fail ?file line "no edge %s" (Const.to_string id) in
  (* Rewrite the current props of a live object. *)
  let update_node_props id f =
    match node id with
    | Bnode i -> Hashtbl.replace t.bprops_n i (f (base_props_assoc t t.bprops_n attrs.node_props i))
    | Nnode r -> r.n_props <- f r.n_props
    | No_node | Several_nodes _ -> no_node id
  in
  let update_edge_props id f =
    match edge id with
    | Bedge e -> Hashtbl.replace t.bprops_e e (f (base_props_assoc t t.bprops_e attrs.edge_props e))
    | Nedge r -> r.e_props <- f r.e_props
    | No_edge | Several_edges _ -> no_edge id
  in
  (match op with
  | Mutation.Add_node { id; label } -> add_node id label
  | Merge_node { id; label } -> if node id = No_node then add_node id label
  | Add_edge { id; src; dst; label } -> add_edge id src dst label
  | Merge_edge { id; src; dst; label } -> if edge id = No_edge then add_edge id src dst label
  | Set_node_prop { id; prop; value } -> update_node_props id (fun a -> assoc_set a prop value)
  | Set_edge_prop { id; prop; value } -> update_edge_props id (fun a -> assoc_set a prop value)
  | Del_node_prop { id; prop } -> update_node_props id (fun a -> assoc_del a prop)
  | Del_edge_prop { id; prop } -> update_edge_props id (fun a -> assoc_del a prop)
  | Del_node { id } -> (
      (* Cascade over incident live edges: base edges via the CSR
         adjacency of a base node, new edges by endpoint id (they are
         the only edges that can reference a new node). *)
      (match node id with
      | Bnode i ->
          t.dead_nodes <- Ints.add i t.dead_nodes;
          Hashtbl.remove t.bprops_n i;
          let kill e _ = if not (Ints.mem e t.dead_edges) then kill_base_edge t e in
          Snapshot.iter_out s i kill;
          Snapshot.iter_in s i kill
      | Nnode r ->
          t.new_nodes <- List.filter (fun x -> x != r) t.new_nodes;
          Ids.remove t.new_node_ids (key id)
      | No_node | Several_nodes _ -> no_node id);
      let doomed =
        List.filter (fun r -> Const.equal r.e_src id || Const.equal r.e_dst id) t.new_edges
      in
      List.iter (kill_new_edge t) doomed)
  | Del_edge { id } -> (
      match edge id with
      | Bedge e -> kill_base_edge t e
      | Nedge r -> kill_new_edge t r
      | No_edge | Several_edges _ -> no_edge id));
  t.ops <- t.ops + 1

(* ---------------- Reads through the overlay --------------------------- *)

let node_label t id =
  let s = t.base.snap in
  match find_node t id with
  | Bnode i -> Some (Const.of_string s.Snapshot.node_label_names.(Snapshot.node_label s i))
  | Nnode r -> Some r.n_label
  | No_node | Several_nodes _ -> None

let node_prop t id prop =
  match find_node t id with
  | Bnode i ->
      assoc_find (base_props_assoc t t.bprops_n t.base.snap.Snapshot.attrs.node_props i) prop
  | Nnode r -> assoc_find r.n_props prop
  | No_node | Several_nodes _ -> None

let edge_prop t id prop =
  match find_edge t id with
  | Bedge e ->
      assoc_find (base_props_assoc t t.bprops_e t.base.snap.Snapshot.attrs.edge_props e) prop
  | Nedge r -> assoc_find r.e_props prop
  | No_edge | Several_edges _ -> None

let adjacency t id ~out =
  match find_node t id with
  | No_node | Several_nodes _ -> None
  | h ->
      let s = t.base.snap in
      let from_base = ref [] in
      (match h with
      | Bnode i ->
          let visit e other =
            if not (Ints.mem e t.dead_edges) then
              from_base :=
                ( Const.of_string (s.Snapshot.edge_name e),
                  Const.of_string s.Snapshot.label_names.(s.Snapshot.elabel.(e)),
                  Const.of_string (s.Snapshot.node_name other) )
                :: !from_base
          in
          if out then Snapshot.iter_out s i visit else Snapshot.iter_in s i visit
      | Nnode _ | No_node | Several_nodes _ -> ());
      let mine r = Const.equal (if out then r.e_src else r.e_dst) id in
      let from_new =
        List.rev t.new_edges
        |> List.filter_map (fun r ->
               if mine r then Some (r.e_id, r.e_label, if out then r.e_dst else r.e_src) else None)
      in
      Some (List.rev !from_base @ from_new)

let out_edges t id = adjacency t id ~out:true
let in_edges t id = adjacency t id ~out:false

(* ---------------- Commit: incremental re-freeze ----------------------- *)

type reuse = { reused : string list; rebuilt : string list }

let reuse_ratio r =
  let k = List.length r.reused and n = List.length r.reused + List.length r.rebuilt in
  if n = 0 then 1.0 else float_of_int k /. float_of_int n

let all_columns =
  [
    "node_ids"; "node_props"; "node_label_universe"; "node_label_bits";
    "edge_ids"; "edge_props"; "edge_label_universe"; "esrc"; "edst"; "elabel";
    "out_off"; "out_adj"; "in_off"; "in_adj"; "stats";
  ]

(* The label universe extended by the labels the delta appended
   ([added], reversed) that a surviving new object carries ([used]:
   their ids as appended), each named by its own constant, in order of
   first use: the name and key tables, the kept labels with their ids,
   and the final id of each used id.  Append-only, so surviving
   interned columns stay valid; with nothing kept the base tables are
   returned as they are. *)
let extend_universe names keys added used =
  let n = Array.length names in
  let added = Array.of_list (List.rev added) in
  let final = Array.make (Array.length added) (-1) and kept = ref [] and next = ref n in
  List.iter
    (fun l ->
      if l >= n && final.(l - n) < 0 then begin
        final.(l - n) <- !next;
        kept := (!next, added.(l - n)) :: !kept;
        incr next
      end)
    used;
  let kept = List.rev !kept in
  let final l = if l < n then l else final.(l - n) in
  if kept = [] then (names, keys, kept, final)
  else
    let extras = Array.of_list (List.map snd kept) in
    ( Array.append names (Array.map Const.to_string extras),
      Array.append keys (Array.map (fun c -> [| c |]) extras),
      kept,
      final )

(* Final index of surviving base index [v]: [v] minus the number of
   [dead] indices (sorted) below it. *)
let shift dead v =
  let lo = ref 0 and hi = ref (Array.length dead) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if dead.(mid) < v then lo := mid + 1 else hi := mid
  done;
  v - !lo

(* A rebuilt column, allocated once at its final size [len]: the runs of
   survivors between the sorted [dead] indices of [col]'s first [n0]
   cells, blitted, then [f] of each appended object. *)
let compact col ~n0 ~dead ~len dummy fresh f =
  let out = Array.make len dummy in
  let k = ref 0 and from = ref 0 in
  let run stop =
    Array.blit col !from out !k (stop - !from);
    k := !k + stop - !from
  in
  Array.iter
    (fun d ->
      run d;
      from := d + 1)
    dead;
  run n0;
  List.iter
    (fun r ->
      out.(!k) <- f r;
      incr k)
    fresh;
  out

(* The property dictionary extended by the delta's constants: the new
   sorted dictionary and, when it grew, the old-id -> new-id map. *)
let extend_dict dict consts =
  let missing = List.filter (fun c -> Snapshot.find_const dict c < 0) consts in
  match List.sort_uniq Const.compare missing with
  | [] -> (dict, None)
  | missing ->
      let dict' = Array.of_list (List.merge Const.compare (Array.to_list dict) missing) in
      (dict', Some (Array.map (Snapshot.find_const dict') dict))

(* The property and feature columns of a commit: a side's rows are
   re-mapped when the dictionary grew, re-gathered when its numbering
   changed or a base object's props were overridden, and shared
   otherwise.  The overlay
   writes no features; appended objects have none. *)
let commit_attrs t ~node_struct ~edge_struct ~dn ~de new_nodes new_edges =
  let a = t.base.snap.Snapshot.attrs in
  let n0 = t.base.snap.Snapshot.num_nodes and m0 = t.base.snap.Snapshot.num_edges in
  let new_node_props = List.map (fun r -> r.n_props) new_nodes in
  let new_edge_props = List.map (fun r -> r.e_props) new_edges in
  let assocs =
    List.of_seq (Seq.append (Hashtbl.to_seq_values t.bprops_n) (Hashtbl.to_seq_values t.bprops_e))
    @ new_node_props @ new_edge_props
  in
  let dict, remap =
    extend_dict a.dict (List.concat_map (List.concat_map (fun (p, c) -> [ p; c ])) assocs)
  in
  let ids assoc =
    let pairs = Array.of_list assoc in
    Array.sort (fun (p, _) (q, _) -> Const.compare p q) pairs;
    Array.map (fun (p, c) -> Snapshot.(entry (find_const dict p) (find_const dict c))) pairs
  in
  (* Survivors in runs between the dead and the overridden, then the
     appended objects. *)
  let side (r : Snapshot.rows) ~rebuild ~n0 ~dead over fresh =
    let r =
      match remap with
      | Some m when Array.length r.kv > 0 ->
          let remap e = Snapshot.(entry m.(entry_key e) m.(entry_value e)) in
          { r with kv = Array.map remap r.kv }
      | _ -> r
    in
    let untouched = Array.length r.off = 0 && List.for_all (( = ) []) fresh in
    if Hashtbl.length over = 0 && ((not rebuild) || untouched) then r
    else begin
      let cuts =
        List.sort compare
          (List.map (fun d -> (d, None)) (Array.to_list dead)
          @ List.of_seq (Seq.map (fun (i, assoc) -> (i, Some (ids assoc))) (Hashtbl.to_seq over)))
      in
      let segs = ref [] and from = ref 0 in
      List.iter
        (fun (i, row) ->
          if i > !from then segs := Snapshot.Base (!from, i) :: !segs;
          Option.iter (fun ids -> segs := Snapshot.Row ids :: !segs) row;
          from := i + 1)
        (cuts @ [ (n0, None) ]);
      Snapshot.gather_rows r
        (List.rev_append !segs (List.map (fun assoc -> Snapshot.Row (ids assoc)) fresh))
    end
  in
  let node_rows r over fresh = side r ~rebuild:node_struct ~n0 ~dead:dn over fresh in
  let edge_rows r over fresh = side r ~rebuild:edge_struct ~n0:m0 ~dead:de over fresh in
  let none = Hashtbl.create 1 in
  let attrs =
    {
      a with
      Snapshot.dict;
      node_props = node_rows a.node_props t.bprops_n new_node_props;
      edge_props = edge_rows a.edge_props t.bprops_e new_edge_props;
      node_features = node_rows a.node_features none (List.map (fun _ -> []) new_nodes);
      edge_features = edge_rows a.edge_features none (List.map (fun _ -> []) new_edges);
    }
  in
  ( attrs,
    a.node_props == attrs.node_props && a.node_features == attrs.node_features,
    a.edge_props == attrs.edge_props && a.edge_features == attrs.edge_features )

(* Bring [ix] (names of a base's [n0] objects to their indices) up to
   date with a commit: dead names out, survivors past the first dead
   index re-pointed to their compacted index, new names in at their
   final index.  A name several objects carry keeps its survivors, and
   moves to [one] when one is left.  No new name is a survivor's: an
   add refuses a live id. *)
let update_ids ix names ~n0 ~dead fresh =
  Array.iter (fun d -> Ids.remove ix.one names.(d)) dead;
  let first = if Array.length dead > 0 then dead.(0) else n0 in
  let k = ref first and next = ref 0 in
  for v = first to n0 - 1 do
    if !next < Array.length dead && dead.(!next) = v then incr next
    else begin
      if Ids.length ix.many = 0 || not (Ids.mem ix.many names.(v)) then
        Ids.replace ix.one names.(v) !k;
      incr k
    end
  done;
  if Array.length dead > 0 then
    Ids.filter_map_inplace
      (fun name is ->
        let survivor v =
          let below = v - shift dead v in
          if below < Array.length dead && dead.(below) = v then None else Some (v - below)
        in
        match List.filter_map survivor is with
        | [] -> None
        | [ i ] ->
            Ids.replace ix.one name i;
            None
        | is -> Some is)
      ix.many;
  List.iter
    (fun id ->
      Ids.replace ix.one (key id) !k;
      incr k)
    fresh

let commit t =
  if t.ops = 0 then (t.base, { reused = all_columns; rebuilt = [] })
  else begin
    let b = t.base in
    let s = b.snap in
    let n0 = s.Snapshot.num_nodes and m0 = s.Snapshot.num_edges in
    let new_nodes = List.rev t.new_nodes and new_edges = List.rev t.new_edges in
    let dn = Array.of_list (Ints.elements t.dead_nodes) in
    let de = Array.of_list (Ints.elements t.dead_edges) in
    let renumber = Array.length dn > 0 in
    let node_struct = renumber || new_nodes <> [] in
    let edge_struct = Array.length de > 0 || new_edges <> [] in
    let reused = ref [] and rebuilt = ref [] in
    let col name shared = if shared then reused := name :: !reused else rebuilt := name :: !rebuilt in
    (* Survivor renumbering: base node v keeps v, or compacts past the
       dead; new nodes append after the survivors. *)
    let survivors_n = n0 - Array.length dn in
    let n1 = survivors_n + List.length new_nodes in
    List.iteri (fun i r -> r.n_final <- survivors_n + i) new_nodes;
    let survivors_e = m0 - Array.length de in
    let m1 = survivors_e + List.length new_edges in
    (* Names are shared until their side's membership changes. *)
    let ix = index b in
    let names name ~changed ~dead ~len fresh id old =
      col name (not changed);
      if changed then compact old ~n0:(Array.length old) ~dead ~len "" fresh (fun r -> key (id r))
      else old
    in
    let node_names =
      names "node_ids" ~changed:node_struct ~dead:dn ~len:n1 new_nodes (fun r -> r.n_id)
        ix.node_names
    in
    let edge_names =
      names "edge_ids" ~changed:edge_struct ~dead:de ~len:m1 new_edges (fun r -> r.e_id)
        ix.edge_names
    in
    let attrs, node_attrs_shared, edge_attrs_shared =
      commit_attrs t ~node_struct ~edge_struct ~dn ~de new_nodes new_edges
    in
    col "node_props" node_attrs_shared;
    let node_label_names, node_label_keys, node_labels_kept, node_label_of =
      extend_universe s.Snapshot.node_label_names s.Snapshot.node_label_keys t.node_labels_added
        (List.map (fun r -> r.n_label_id) new_nodes)
    in
    col "node_label_universe" (node_label_keys == s.Snapshot.node_label_keys);
    let num_node_labels = Array.length node_label_names in
    col "node_label_bits" (not node_struct);
    let node_label_bits =
      if not node_struct then s.Snapshot.node_label_bits
      else begin
        let bits = Array.init num_node_labels (fun _ -> B.raw_create n1) in
        let dead = t.dead_nodes in
        Array.iteri
          (fun l old ->
            B.raw_iter old (fun v -> if not (Ints.mem v dead) then B.raw_add bits.(l) (shift dn v)))
          s.Snapshot.node_label_bits;
        List.iter (fun r -> B.raw_add bits.(node_label_of r.n_label_id) r.n_final) new_nodes;
        bits
      end
    in
    let node_label_counts =
      if not node_struct then s.Snapshot.stats.Snapshot.node_label_counts
      else Array.map B.raw_cardinal node_label_bits
    in
    (* Edge columns: any membership change or node renumbering forces a
       rebuild (endpoint indices shift); otherwise everything is shared
       and label ids stay valid because universes only append. *)
    let edge_cols_fresh = edge_struct || renumber in
    let label_names, label_keys, edge_labels_kept, label_of =
      extend_universe s.Snapshot.label_names s.Snapshot.label_keys t.edge_labels_added
        (List.map (fun r -> r.e_label_id) new_edges)
    in
    col "edge_label_universe" (label_keys == s.Snapshot.label_keys);
    let num_labels = Array.length label_names in
    (* An added edge's endpoints resolved to one live node when it was
       added, and still do: a node dies only with its edges. *)
    let final_of_node_id id =
      match find_node t id with
      | Nnode r -> r.n_final
      | Bnode v -> shift dn v
      | No_node | Several_nodes _ -> invalid_arg "Overlay.commit: unresolved endpoint"
    in
    let edge_column name c dummy f =
      col name (not edge_cols_fresh);
      if edge_cols_fresh then compact c ~n0:m0 ~dead:de ~len:m1 dummy new_edges f else c
    in
    (* Survivors' endpoints are remapped in place only when nodes died. *)
    let endpoint name c f =
      let a = edge_column name c 0 f in
      if renumber then
        for e = 0 to survivors_e - 1 do
          a.(e) <- shift dn a.(e)
        done;
      a
    in
    let esrc = endpoint "esrc" s.Snapshot.esrc (fun r -> final_of_node_id r.e_src) in
    let edst = endpoint "edst" s.Snapshot.edst (fun r -> final_of_node_id r.e_dst) in
    let elabel = edge_column "elabel" s.Snapshot.elabel 0 (fun r -> label_of r.e_label_id) in
    col "edge_props" edge_attrs_shared;
    let edge_label_counts =
      let old = s.Snapshot.stats.Snapshot.edge_label_counts in
      if not edge_struct then old
      else begin
        let counts = Array.append old (Array.make (num_labels - Array.length old) 0) in
        let bump d l = counts.(l) <- counts.(l) + d in
        Array.iter (fun e -> bump (-1) s.Snapshot.elabel.(e)) de;
        List.iter (fun r -> bump 1 (label_of r.e_label_id)) new_edges;
        counts
      end
    in
    (* CSR: untouched edges with stable numbering reuse everything; node
       appends only extend the offset arrays (new nodes have degree 0)
       while sharing the packed adjacency; anything else re-packs. *)
    let csr_stable = (not edge_struct) && not renumber in
    List.iter (fun c -> col c (csr_stable && new_nodes = [])) [ "out_off"; "in_off" ];
    List.iter (fun c -> col c csr_stable) [ "out_adj"; "in_adj" ];
    let out_off, out_eid, out_nbr, in_off, in_eid, in_nbr =
      if not csr_stable then Snapshot.pack_csr n1 esrc edst
      else begin
        let extend off =
          if new_nodes = [] then off
          else Array.append off (Array.make (n1 - n0) off.(n0))
        in
        ( extend s.Snapshot.out_off, s.Snapshot.out_eid, s.Snapshot.out_nbr,
          extend s.Snapshot.in_off, s.Snapshot.in_eid, s.Snapshot.in_nbr )
      end
    in
    let stats_shared = (not node_struct) && not edge_struct in
    col "stats" stats_shared;
    let stats =
      if stats_shared then s.Snapshot.stats
      else
        Snapshot.stats_of_columns ~num_nodes:n1 ~out_off ~in_off ~edge_label_counts
          ~node_label_counts
    in
    let snap' =
      {
        Snapshot.num_nodes = n1;
        num_edges = m1;
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
        node_name = (if node_struct then Array.get node_names else s.Snapshot.node_name);
        edge_name = (if edge_struct then Array.get edge_names else s.Snapshot.edge_name);
        stats;
        epoch = Snapshot.fresh_epoch ();
        memo = Gqkg_util.Memo.create ();
      }
    in
    (* Hand the id index over: the old base drops it (a later overlay on
       it rebuilds its own), the new base gets it updated by the delta. *)
    b.index <- None;
    update_ids ix.node_ix ix.node_names ~n0 ~dead:dn (List.map (fun r -> r.n_id) new_nodes);
    update_ids ix.edge_ix ix.edge_names ~n0:m0 ~dead:de (List.map (fun r -> r.e_id) new_edges);
    let index_labels tbl = List.iter (fun (l, c) -> index_label tbl l (Const.to_string c) [| c |]) in
    index_labels ix.node_labels node_labels_kept;
    index_labels ix.edge_labels edge_labels_kept;
    ( { snap = snap'; index = Some { ix with node_names; edge_names } },
      { reused = List.rev !reused; rebuilt = List.rev !rebuilt } )
  end
