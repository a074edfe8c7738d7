(* Delta overlay over a frozen snapshot: the write path of the MVCC
   epoch design.  Mutations accumulate in cheap delta structures (dead
   flags over the base, appended new objects, property-override tables,
   a live name index); reads answer base ∪ adds ∖ deletes; [commit]
   re-freezes incrementally, physically sharing every column the delta
   did not touch.

   Numbering invariant: base survivors keep base order, new objects
   append in insertion order — the same order [Journal.replay_ops]
   yields, so incremental commits and from-scratch replays of one
   history agree on node and edge numbering (test_epoch checks answers
   as int pairs).  Interned label universes are append-only across
   commits: deleting the last edge with label ℓ keeps ℓ's id at count 0
   where a scratch freeze would forget it — query answers are
   unaffected ([label_sat] is Const equality per id) and survivors keep
   their label ids, which is what lets [elabel] be reused verbatim. *)

module B = Gqkg_util.Bitset

type base = {
  snap : Snapshot.t;
  node_ids : Const.t array;
  node_labels : Const.t array;
  node_props : Property_graph.properties array;
  edge_ids : Const.t array;
  edge_labels : Const.t array;
  edge_props : Property_graph.properties array;
  edge_label_univ : Const.t array; (* interned universe in label-id order *)
  node_label_univ : Const.t array;
}

let snapshot b = b.snap

(* Minimal replayable history of a committed base (mirrors
   [Journal.ops_of_graph]: node adds, edge adds, edge props, node
   props) — what [gqkg mutate --journal] writes so the file reloads to
   exactly this state. *)
let history b =
  let s = b.snap in
  let ops = ref [] in
  for v = s.Snapshot.num_nodes - 1 downto 0 do
    Array.iter
      (fun (prop, value) ->
        ops := Mutation.Set_node_prop { id = b.node_ids.(v); prop; value } :: !ops)
      b.node_props.(v)
  done;
  for e = s.Snapshot.num_edges - 1 downto 0 do
    Array.iter
      (fun (prop, value) ->
        ops := Mutation.Set_edge_prop { id = b.edge_ids.(e); prop; value } :: !ops)
      b.edge_props.(e)
  done;
  for e = s.Snapshot.num_edges - 1 downto 0 do
    ops :=
      Mutation.Add_edge
        {
          id = b.edge_ids.(e);
          src = b.node_ids.(s.Snapshot.esrc.(e));
          dst = b.node_ids.(s.Snapshot.edst.(e));
          label = b.edge_labels.(e);
        }
      :: !ops
  done;
  for v = s.Snapshot.num_nodes - 1 downto 0 do
    ops := Mutation.Add_node { id = b.node_ids.(v); label = b.node_labels.(v) } :: !ops
  done;
  !ops

let base_of_property g =
  let snap = Snapshot.of_property g in
  let n = Property_graph.num_nodes g and m = Property_graph.num_edges g in
  (* Re-interning with the same first-occurrence rule reproduces exactly
     the universes [Snapshot.of_property] interned. *)
  let _, edge_label_univ = Snapshot.intern ~n:m ~get:(Property_graph.edge_label g) in
  let _, node_label_univ = Snapshot.intern ~n ~get:(Property_graph.node_label g) in
  {
    snap;
    node_ids = Array.init n (Property_graph.node_id g);
    node_labels = Array.init n (Property_graph.node_label g);
    node_props = Array.init n (Property_graph.node_properties g);
    edge_ids = Array.init m (Property_graph.edge_id g);
    edge_labels = Array.init m (Property_graph.edge_label g);
    edge_props = Array.init m (Property_graph.edge_properties g);
    edge_label_univ;
    node_label_univ;
  }

let base_of_snapshot (s : Snapshot.t) =
  let n = s.Snapshot.num_nodes and m = s.Snapshot.num_edges in
  let node_label_univ = Array.map Const.of_string s.Snapshot.node_label_names in
  let edge_label_univ = Array.map Const.of_string s.Snapshot.label_names in
  (* Recover the one-label-per-node column from the membership bitmaps;
     refuse snapshots with non-exclusive membership (RDF multi-types)
     — the overlay's write semantics are property-model. *)
  let node_labels = Array.make n Const.Bottom in
  let seen = Array.make (max n 1) false in
  Array.iteri
    (fun l bits ->
      B.raw_iter bits (fun v ->
          if seen.(v) then
            invalid_arg "Overlay.base_of_snapshot: node labels are not exclusive";
          seen.(v) <- true;
          node_labels.(v) <- node_label_univ.(l)))
    s.Snapshot.node_label_bits;
  for v = 0 to n - 1 do
    if not seen.(v) then invalid_arg "Overlay.base_of_snapshot: unlabeled node"
  done;
  if s.Snapshot.num_labels = 0 && m > 0 then
    invalid_arg "Overlay.base_of_snapshot: snapshot has no edge-label index";
  {
    snap = s;
    node_ids = Array.init n (fun v -> Const.of_string (s.Snapshot.node_name v));
    node_labels;
    node_props = Array.make n [||];
    edge_ids = Array.init m (fun e -> Const.of_string (s.Snapshot.edge_name e));
    edge_labels = Array.init m (fun e -> edge_label_univ.(s.Snapshot.elabel.(e)));
    edge_props = Array.make m [||];
    edge_label_univ;
    node_label_univ;
  }

(* ---------------- The delta ------------------------------------------- *)

type new_node = {
  n_id : Const.t;
  n_label : Const.t;
  mutable n_props : (Const.t * Const.t) list;
  mutable n_final : int; (* final index, assigned during commit *)
}

type new_edge = {
  e_id : Const.t;
  e_src : Const.t;
  e_dst : Const.t;
  e_label : Const.t;
  mutable e_props : (Const.t * Const.t) list;
}

type node_handle = Bnode of int | Nnode of new_node
type edge_handle = Bedge of int | Nedge of new_edge

type t = {
  base : base;
  dead_node : bool array; (* over base node indices *)
  dead_edge : bool array;
  mutable n_dead_nodes : int;
  mutable n_dead_edges : int;
  mutable new_nodes : new_node list; (* reversed insertion order *)
  mutable new_edges : new_edge list; (* reversed *)
  bprops_n : (int, (Const.t * Const.t) list) Hashtbl.t; (* touched base nodes: full current assoc *)
  bprops_e : (int, (Const.t * Const.t) list) Hashtbl.t;
  nodes_by_id : (Const.t, node_handle) Hashtbl.t; (* live objects only *)
  edges_by_id : (Const.t, edge_handle) Hashtbl.t;
  mutable ops : int;
}

let create base =
  let s = base.snap in
  let n = s.Snapshot.num_nodes and m = s.Snapshot.num_edges in
  let nodes_by_id = Hashtbl.create (n + 16) in
  Array.iteri (fun v id -> Hashtbl.replace nodes_by_id id (Bnode v)) base.node_ids;
  let edges_by_id = Hashtbl.create (m + 16) in
  Array.iteri (fun e id -> Hashtbl.replace edges_by_id id (Bedge e)) base.edge_ids;
  {
    base;
    dead_node = Array.make (max n 1) false;
    dead_edge = Array.make (max m 1) false;
    n_dead_nodes = 0;
    n_dead_edges = 0;
    new_nodes = [];
    new_edges = [];
    bprops_n = Hashtbl.create 16;
    bprops_e = Hashtbl.create 16;
    nodes_by_id;
    edges_by_id;
    ops = 0;
  }

let base t = t.base
let size t = t.ops

let live_nodes t =
  t.base.snap.Snapshot.num_nodes - t.n_dead_nodes + List.length t.new_nodes

let live_edges t =
  t.base.snap.Snapshot.num_edges - t.n_dead_edges + List.length t.new_edges

let fail ?file line fmt =
  Printf.ksprintf (fun message -> raise (Journal.Replay_error { file; line; message })) fmt

let assoc_set assoc prop value =
  (prop, value) :: List.filter (fun (p, _) -> not (Const.equal p prop)) assoc

let assoc_del assoc prop = List.filter (fun (p, _) -> not (Const.equal p prop)) assoc
let assoc_find assoc prop = List.find_map (fun (p, v) -> if Const.equal p prop then Some v else None) assoc

(* Current props of a live base object as an assoc (override table first,
   base column otherwise). *)
let base_props_assoc over props i =
  match Hashtbl.find_opt over i with
  | Some assoc -> assoc
  | None -> Array.to_list props.(i)

let kill_base_edge t e =
  t.dead_edge.(e) <- true;
  t.n_dead_edges <- t.n_dead_edges + 1;
  Hashtbl.remove t.bprops_e e;
  Hashtbl.remove t.edges_by_id t.base.edge_ids.(e)

let kill_new_edge t (r : new_edge) =
  t.new_edges <- List.filter (fun x -> x != r) t.new_edges;
  Hashtbl.remove t.edges_by_id r.e_id

let apply ?file ?(line = 0) t op =
  let add_node id label =
    if Hashtbl.mem t.nodes_by_id id then fail ?file line "node %s already exists" (Const.to_string id);
    let r = { n_id = id; n_label = label; n_props = []; n_final = -1 } in
    t.new_nodes <- r :: t.new_nodes;
    Hashtbl.replace t.nodes_by_id id (Nnode r)
  in
  let add_edge id src dst label =
    if Hashtbl.mem t.edges_by_id id then fail ?file line "edge %s already exists" (Const.to_string id);
    if not (Hashtbl.mem t.nodes_by_id src) then
      fail ?file line "edge %s references missing node %s" (Const.to_string id) (Const.to_string src);
    if not (Hashtbl.mem t.nodes_by_id dst) then
      fail ?file line "edge %s references missing node %s" (Const.to_string id) (Const.to_string dst);
    let r = { e_id = id; e_src = src; e_dst = dst; e_label = label; e_props = [] } in
    t.new_edges <- r :: t.new_edges;
    Hashtbl.replace t.edges_by_id id (Nedge r)
  in
  let node_of id =
    match Hashtbl.find_opt t.nodes_by_id id with
    | Some h -> h
    | None -> fail ?file line "no node %s" (Const.to_string id)
  in
  let edge_of id =
    match Hashtbl.find_opt t.edges_by_id id with
    | Some h -> h
    | None -> fail ?file line "no edge %s" (Const.to_string id)
  in
  (match op with
  | Mutation.Add_node { id; label } -> add_node id label
  | Merge_node { id; label } -> if not (Hashtbl.mem t.nodes_by_id id) then add_node id label
  | Add_edge { id; src; dst; label } -> add_edge id src dst label
  | Merge_edge { id; src; dst; label } ->
      if not (Hashtbl.mem t.edges_by_id id) then add_edge id src dst label
  | Set_node_prop { id; prop; value } -> (
      match node_of id with
      | Bnode i ->
          Hashtbl.replace t.bprops_n i
            (assoc_set (base_props_assoc t.bprops_n t.base.node_props i) prop value)
      | Nnode r -> r.n_props <- assoc_set r.n_props prop value)
  | Set_edge_prop { id; prop; value } -> (
      match edge_of id with
      | Bedge e ->
          Hashtbl.replace t.bprops_e e
            (assoc_set (base_props_assoc t.bprops_e t.base.edge_props e) prop value)
      | Nedge r -> r.e_props <- assoc_set r.e_props prop value)
  | Del_node_prop { id; prop } -> (
      match node_of id with
      | Bnode i ->
          Hashtbl.replace t.bprops_n i
            (assoc_del (base_props_assoc t.bprops_n t.base.node_props i) prop)
      | Nnode r -> r.n_props <- assoc_del r.n_props prop)
  | Del_edge_prop { id; prop } -> (
      match edge_of id with
      | Bedge e ->
          Hashtbl.replace t.bprops_e e
            (assoc_del (base_props_assoc t.bprops_e t.base.edge_props e) prop)
      | Nedge r -> r.e_props <- assoc_del r.e_props prop)
  | Del_node { id } -> (
      let h = node_of id in
      Hashtbl.remove t.nodes_by_id id;
      (* Cascade over incident live edges: base edges via the CSR
         adjacency of a base node, new edges by endpoint id (they are
         the only edges that can reference a new node). *)
      let s = t.base.snap in
      (match h with
      | Bnode i ->
          t.dead_node.(i) <- true;
          t.n_dead_nodes <- t.n_dead_nodes + 1;
          Hashtbl.remove t.bprops_n i;
          Snapshot.iter_out s i (fun e _ -> if not t.dead_edge.(e) then kill_base_edge t e);
          Snapshot.iter_in s i (fun e _ -> if not t.dead_edge.(e) then kill_base_edge t e)
      | Nnode r -> t.new_nodes <- List.filter (fun x -> x != r) t.new_nodes);
      let doomed =
        List.filter (fun r -> Const.equal r.e_src id || Const.equal r.e_dst id) t.new_edges
      in
      List.iter (kill_new_edge t) doomed)
  | Del_edge { id } -> (
      match edge_of id with
      | Bedge e -> kill_base_edge t e
      | Nedge r -> kill_new_edge t r));
  t.ops <- t.ops + 1

(* ---------------- Reads through the overlay --------------------------- *)

let mem_node t id = Hashtbl.mem t.nodes_by_id id
let mem_edge t id = Hashtbl.mem t.edges_by_id id

let node_label t id =
  match Hashtbl.find_opt t.nodes_by_id id with
  | Some (Bnode i) -> Some t.base.node_labels.(i)
  | Some (Nnode r) -> Some r.n_label
  | None -> None

let node_prop t id prop =
  match Hashtbl.find_opt t.nodes_by_id id with
  | Some (Bnode i) -> assoc_find (base_props_assoc t.bprops_n t.base.node_props i) prop
  | Some (Nnode r) -> assoc_find r.n_props prop
  | None -> None

let edge_prop t id prop =
  match Hashtbl.find_opt t.edges_by_id id with
  | Some (Bedge e) -> assoc_find (base_props_assoc t.bprops_e t.base.edge_props e) prop
  | Some (Nedge r) -> assoc_find r.e_props prop
  | None -> None

let adjacency t id ~out =
  match Hashtbl.find_opt t.nodes_by_id id with
  | None -> None
  | Some h ->
      let b = t.base and s = t.base.snap in
      let from_base = ref [] in
      (match h with
      | Nnode _ -> ()
      | Bnode i ->
          let visit e other =
            if not t.dead_edge.(e) then
              from_base := (b.edge_ids.(e), b.edge_labels.(e), b.node_ids.(other)) :: !from_base
          in
          if out then Snapshot.iter_out s i visit else Snapshot.iter_in s i visit);
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
    "node_ids"; "node_labels"; "node_props"; "node_label_universe"; "node_label_bits";
    "edge_ids"; "edge_labels"; "edge_props"; "edge_label_universe"; "esrc"; "edst"; "elabel";
    "out_off"; "out_adj"; "in_off"; "in_adj"; "stats";
  ]

let sorted_props assoc =
  let a = Array.of_list assoc in
  Array.sort (fun (p, _) (q, _) -> Const.compare p q) a;
  a

(* Universe extension: the base id table plus fresh ids for labels the
   delta introduced, append-only so surviving interned columns stay
   valid. *)
let extend_universe univ fresh_labels =
  let tbl = Hashtbl.create (Array.length univ * 2 + 16) in
  Array.iteri (fun i c -> Hashtbl.replace tbl c i) univ;
  let extras = ref [] in
  List.iter
    (fun c ->
      if not (Hashtbl.mem tbl c) then begin
        Hashtbl.replace tbl c (Hashtbl.length tbl);
        extras := c :: !extras
      end)
    fresh_labels;
  let univ' =
    if !extras = [] then univ else Array.append univ (Array.of_list (List.rev !extras))
  in
  (univ', tbl)

let commit t =
  if t.ops = 0 then (t.base, { reused = all_columns; rebuilt = [] })
  else begin
    let b = t.base in
    let s = b.snap in
    let n0 = s.Snapshot.num_nodes and m0 = s.Snapshot.num_edges in
    let new_nodes = List.rev t.new_nodes and new_edges = List.rev t.new_edges in
    let nodes_deleted = t.n_dead_nodes > 0 in
    let nodes_added = new_nodes <> [] in
    let edges_deleted = t.n_dead_edges > 0 in
    let edges_added = new_edges <> [] in
    let node_struct = nodes_deleted || nodes_added in
    let edge_struct = edges_deleted || edges_added in
    let renumber = nodes_deleted in
    let reused = ref [] and rebuilt = ref [] in
    let col name shared = if shared then reused := name :: !reused else rebuilt := name :: !rebuilt in
    (* Survivor renumbering: base node v keeps v, or compacts past the
       dead; new nodes append after the survivors. *)
    let survivors_n = n0 - t.n_dead_nodes in
    let remap =
      if renumber then begin
        let r = Array.make n0 (-1) in
        let k = ref 0 in
        for v = 0 to n0 - 1 do
          if not t.dead_node.(v) then begin
            r.(v) <- !k;
            incr k
          end
        done;
        r
      end
      else [||]
    in
    let final_of_base v = if renumber then remap.(v) else v in
    let n1 = survivors_n + List.length new_nodes in
    let node_ids, node_labels =
      if not node_struct then begin
        col "node_ids" true;
        col "node_labels" true;
        (b.node_ids, b.node_labels)
      end
      else begin
        col "node_ids" false;
        col "node_labels" false;
        let ids = Array.make (max n1 1) Const.Bottom in
        let labs = Array.make (max n1 1) Const.Bottom in
        for v = 0 to n0 - 1 do
          if not t.dead_node.(v) then begin
            let k = final_of_base v in
            ids.(k) <- b.node_ids.(v);
            labs.(k) <- b.node_labels.(v)
          end
        done;
        List.iteri
          (fun i r ->
            let k = survivors_n + i in
            r.n_final <- k;
            ids.(k) <- r.n_id;
            labs.(k) <- r.n_label)
          new_nodes;
        (Array.sub ids 0 n1, Array.sub labs 0 n1)
      end
    in
    (* Assign finals even when node columns were reused (no adds, no
       deletes means every base index is its own final; nothing to do). *)
    let node_props =
      if (not node_struct) && Hashtbl.length t.bprops_n = 0 then begin
        col "node_props" true;
        b.node_props
      end
      else begin
        col "node_props" false;
        let props = Array.make (max n1 1) [||] in
        for v = 0 to n0 - 1 do
          if not t.dead_node.(v) then
            props.(final_of_base v) <-
              (match Hashtbl.find_opt t.bprops_n v with
              | Some assoc -> sorted_props assoc
              | None -> b.node_props.(v))
        done;
        List.iter (fun r -> props.(r.n_final) <- sorted_props r.n_props) new_nodes;
        Array.sub props 0 n1
      end
    in
    let node_label_univ, ntbl =
      extend_universe b.node_label_univ (List.map (fun r -> r.n_label) new_nodes)
    in
    col "node_label_universe" (node_label_univ == b.node_label_univ);
    let num_node_labels = Array.length node_label_univ in
    let node_label_counts =
      if not node_struct then s.Snapshot.stats.Snapshot.node_label_counts
      else begin
        let counts = Array.make num_node_labels 0 in
        Array.blit s.Snapshot.stats.Snapshot.node_label_counts 0 counts 0
          (Array.length s.Snapshot.stats.Snapshot.node_label_counts);
        for v = 0 to n0 - 1 do
          if t.dead_node.(v) then begin
            let l = Hashtbl.find ntbl b.node_labels.(v) in
            counts.(l) <- counts.(l) - 1
          end
        done;
        List.iter
          (fun r ->
            let l = Hashtbl.find ntbl r.n_label in
            counts.(l) <- counts.(l) + 1)
          new_nodes;
        counts
      end
    in
    let node_label_bits =
      if not node_struct then begin
        col "node_label_bits" true;
        s.Snapshot.node_label_bits
      end
      else begin
        col "node_label_bits" false;
        let bits = Array.init num_node_labels (fun _ -> B.raw_create (max n1 1)) in
        Array.iteri (fun v l -> B.raw_add bits.(Hashtbl.find ntbl l) v) node_labels;
        bits
      end
    in
    (* Edge columns: any membership change or node renumbering forces a
       rebuild (endpoint indices shift); otherwise everything is shared
       and label ids stay valid because universes only append. *)
    let edge_cols_fresh = edge_struct || renumber in
    let edge_label_univ, etbl =
      extend_universe b.edge_label_univ (List.map (fun r -> r.e_label) new_edges)
    in
    col "edge_label_universe" (edge_label_univ == b.edge_label_univ);
    let num_labels = Array.length edge_label_univ in
    let m1 = m0 - t.n_dead_edges + List.length new_edges in
    let final_of_node_id id =
      match Hashtbl.find t.nodes_by_id id with
      | Bnode v -> final_of_base v
      | Nnode r -> r.n_final
    in
    let esrc, edst, elabel, edge_ids, edge_labels =
      if not edge_cols_fresh then begin
        List.iter (fun c -> col c true) [ "esrc"; "edst"; "elabel"; "edge_ids"; "edge_labels" ];
        (s.Snapshot.esrc, s.Snapshot.edst, s.Snapshot.elabel, b.edge_ids, b.edge_labels)
      end
      else begin
        List.iter (fun c -> col c false) [ "esrc"; "edst"; "elabel"; "edge_ids"; "edge_labels" ];
        let esrc = Array.make (max m1 1) 0 and edst = Array.make (max m1 1) 0 in
        let elabel = Array.make (max m1 1) 0 in
        let ids = Array.make (max m1 1) Const.Bottom in
        let labs = Array.make (max m1 1) Const.Bottom in
        let k = ref 0 in
        for e = 0 to m0 - 1 do
          if not t.dead_edge.(e) then begin
            esrc.(!k) <- final_of_base s.Snapshot.esrc.(e);
            edst.(!k) <- final_of_base s.Snapshot.edst.(e);
            elabel.(!k) <- s.Snapshot.elabel.(e);
            ids.(!k) <- b.edge_ids.(e);
            labs.(!k) <- b.edge_labels.(e);
            incr k
          end
        done;
        List.iter
          (fun r ->
            esrc.(!k) <- final_of_node_id r.e_src;
            edst.(!k) <- final_of_node_id r.e_dst;
            elabel.(!k) <- Hashtbl.find etbl r.e_label;
            ids.(!k) <- r.e_id;
            labs.(!k) <- r.e_label;
            incr k)
          new_edges;
        ( Array.sub esrc 0 m1,
          Array.sub edst 0 m1,
          Array.sub elabel 0 m1,
          Array.sub ids 0 m1,
          Array.sub labs 0 m1 )
      end
    in
    let edge_props =
      if (not edge_cols_fresh) && Hashtbl.length t.bprops_e = 0 then begin
        col "edge_props" true;
        b.edge_props
      end
      else begin
        col "edge_props" false;
        let props = Array.make (max m1 1) [||] in
        let k = ref 0 in
        for e = 0 to m0 - 1 do
          if not t.dead_edge.(e) then begin
            props.(!k) <-
              (match Hashtbl.find_opt t.bprops_e e with
              | Some assoc -> sorted_props assoc
              | None -> b.edge_props.(e));
            incr k
          end
        done;
        List.iter
          (fun r ->
            props.(!k) <- sorted_props r.e_props;
            incr k)
          new_edges;
        Array.sub props 0 m1
      end
    in
    let edge_label_counts =
      if not edge_struct then s.Snapshot.stats.Snapshot.edge_label_counts
      else begin
        let counts = Array.make num_labels 0 in
        Array.blit s.Snapshot.stats.Snapshot.edge_label_counts 0 counts 0
          (Array.length s.Snapshot.stats.Snapshot.edge_label_counts);
        for e = 0 to m0 - 1 do
          if t.dead_edge.(e) then begin
            let l = s.Snapshot.elabel.(e) in
            counts.(l) <- counts.(l) - 1
          end
        done;
        List.iter
          (fun r ->
            let l = Hashtbl.find etbl r.e_label in
            counts.(l) <- counts.(l) + 1)
          new_edges;
        counts
      end
    in
    (* CSR: untouched edges with stable numbering reuse everything; node
       appends only extend the offset arrays (new nodes have degree 0)
       while sharing the packed adjacency; anything else re-packs. *)
    let out_off, out_eid, out_nbr, in_off, in_eid, in_nbr =
      if (not edge_struct) && not renumber then
        if not nodes_added then begin
          List.iter (fun c -> col c true) [ "out_off"; "out_adj"; "in_off"; "in_adj" ];
          ( s.Snapshot.out_off, s.Snapshot.out_eid, s.Snapshot.out_nbr,
            s.Snapshot.in_off, s.Snapshot.in_eid, s.Snapshot.in_nbr )
        end
        else begin
          List.iter (fun c -> col c false) [ "out_off"; "in_off" ];
          List.iter (fun c -> col c true) [ "out_adj"; "in_adj" ];
          let extend off =
            Array.init (n1 + 1) (fun v -> if v <= n0 then off.(v) else off.(n0))
          in
          ( extend s.Snapshot.out_off, s.Snapshot.out_eid, s.Snapshot.out_nbr,
            extend s.Snapshot.in_off, s.Snapshot.in_eid, s.Snapshot.in_nbr )
        end
      else begin
        List.iter (fun c -> col c false) [ "out_off"; "out_adj"; "in_off"; "in_adj" ];
        Snapshot.pack_csr n1 esrc edst
      end
    in
    let stats =
      if (not node_struct) && not edge_struct then begin
        col "stats" true;
        s.Snapshot.stats
      end
      else begin
        col "stats" false;
        Snapshot.stats_of_columns ~num_nodes:n1 ~out_off ~in_off ~edge_label_counts
          ~node_label_counts
      end
    in
    let label_sat =
      if edge_label_univ == b.edge_label_univ then s.Snapshot.label_sat
      else Snapshot.const_label_sat edge_label_univ
    in
    let node_label_sat =
      if node_label_univ == b.node_label_univ then s.Snapshot.node_label_sat
      else Snapshot.const_label_sat node_label_univ
    in
    let node_atom v = function
      | Atom.Label l -> Const.equal node_labels.(v) l
      | Atom.Prop (p, c) -> (
          match Property_graph.lookup node_props.(v) p with
          | Some w -> Const.equal c w
          | None -> false)
      | Atom.Feature _ -> false
    in
    let edge_atom e = function
      | Atom.Label l -> Const.equal edge_labels.(e) l
      | Atom.Prop (p, c) -> (
          match Property_graph.lookup edge_props.(e) p with
          | Some w -> Const.equal c w
          | None -> false)
      | Atom.Feature _ -> false
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
        label_names = Array.map Const.to_string edge_label_univ;
        label_sat;
        num_node_labels;
        node_label_names = Array.map Const.to_string node_label_univ;
        node_label_sat;
        node_label_bits;
        node_atom;
        edge_atom;
        node_name = (fun v -> Const.to_string node_ids.(v));
        edge_name = (fun e -> Const.to_string edge_ids.(e));
        stats;
        epoch = Snapshot.fresh_epoch ();
        memo = Snapshot.fresh_memo ();
      }
    in
    ( {
        snap = snap';
        node_ids;
        node_labels;
        node_props;
        edge_ids;
        edge_labels;
        edge_props;
        edge_label_univ;
        node_label_univ;
      },
      { reused = List.rev !reused; rebuilt = List.rev !rebuilt } )
  end
