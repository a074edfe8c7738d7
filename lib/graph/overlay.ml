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
   unaffected ([label_sat] is Const equality per id) and survivors keep
   their label ids, which is what lets [elabel] be reused verbatim. *)

module B = Gqkg_util.Bitset
module Ids = Hashtbl.Make (Const)
module Ints = Set.Make (Int)

(* Writer-side id index: node and edge ids to base indices. *)
type index = { node_ix : int Ids.t; edge_ix : int Ids.t }

type base = {
  snap : Snapshot.t;
  node_ids : Const.t array;
  node_labels : Const.t array;
  node_props : Property_graph.properties array;
  edge_ids : Const.t array;
  edge_props : Property_graph.properties array;
  edge_label_univ : Const.t array; (* interned universe in label-id order *)
  node_label_univ : Const.t array;
  mutable index : index option;
      (* built on the base's first write, moved to the next base by
         [commit]; only the serialized writer touches it *)
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
          label = b.edge_label_univ.(s.Snapshot.elabel.(e));
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
    edge_props = Array.init m (Property_graph.edge_properties g);
    edge_label_univ;
    node_label_univ;
    index = None;
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
    edge_props = Array.make m [||];
    edge_label_univ;
    node_label_univ;
    index = None;
  }

(* The base's id index, built on its first write (a fork's first write
   after [commit] moved it on rebuilds it). *)
let index b =
  match b.index with
  | Some ix -> ix
  | None ->
      let table ids =
        let tbl = Ids.create (Array.length ids + 16) in
        Array.iteri (fun i id -> Ids.replace tbl id i) ids;
        tbl
      in
      let ix = { node_ix = table b.node_ids; edge_ix = table b.edge_ids } in
      b.index <- Some ix;
      ix

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

type node_handle = Bnode of int | Nnode of new_node | No_node
type edge_handle = Bedge of int | Nedge of new_edge | No_edge

type t = {
  base : base;
  mutable dead_nodes : Ints.t; (* base node indices *)
  mutable dead_edges : Ints.t;
  mutable new_nodes : new_node list; (* reversed insertion order *)
  mutable new_edges : new_edge list; (* reversed *)
  new_node_ids : new_node Ids.t; (* live new objects *)
  new_edge_ids : new_edge Ids.t;
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
  match Ids.find_opt t.new_node_ids id with
  | Some r -> Nnode r
  | None -> (
      match Ids.find_opt (index t.base).node_ix id with
      | Some i when not (Ints.mem i t.dead_nodes) -> Bnode i
      | _ -> No_node)

let find_edge t id =
  match Ids.find_opt t.new_edge_ids id with
  | Some r -> Nedge r
  | None -> (
      match Ids.find_opt (index t.base).edge_ix id with
      | Some e when not (Ints.mem e t.dead_edges) -> Bedge e
      | _ -> No_edge)

let mem_node t id = match find_node t id with No_node -> false | _ -> true
let mem_edge t id = match find_edge t id with No_edge -> false | _ -> true

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
  t.dead_edges <- Ints.add e t.dead_edges;
  Hashtbl.remove t.bprops_e e

let kill_new_edge t (r : new_edge) =
  t.new_edges <- List.filter (fun x -> x != r) t.new_edges;
  Ids.remove t.new_edge_ids r.e_id

let apply ?file ?(line = 0) t op =
  let add_node id label =
    if mem_node t id then fail ?file line "node %s already exists" (Const.to_string id);
    let r = { n_id = id; n_label = label; n_props = []; n_final = -1 } in
    t.new_nodes <- r :: t.new_nodes;
    Ids.replace t.new_node_ids id r
  in
  let add_edge id src dst label =
    if mem_edge t id then fail ?file line "edge %s already exists" (Const.to_string id);
    if not (mem_node t src) then
      fail ?file line "edge %s references missing node %s" (Const.to_string id) (Const.to_string src);
    if not (mem_node t dst) then
      fail ?file line "edge %s references missing node %s" (Const.to_string id) (Const.to_string dst);
    let r = { e_id = id; e_src = src; e_dst = dst; e_label = label; e_props = [] } in
    t.new_edges <- r :: t.new_edges;
    Ids.replace t.new_edge_ids id r
  in
  let no_node id = fail ?file line "no node %s" (Const.to_string id) in
  (* Rewrite the current props of a live object. *)
  let update_node_props id f =
    match find_node t id with
    | Bnode i -> Hashtbl.replace t.bprops_n i (f (base_props_assoc t.bprops_n t.base.node_props i))
    | Nnode r -> r.n_props <- f r.n_props
    | No_node -> no_node id
  in
  let update_edge_props id f =
    match find_edge t id with
    | Bedge e -> Hashtbl.replace t.bprops_e e (f (base_props_assoc t.bprops_e t.base.edge_props e))
    | Nedge r -> r.e_props <- f r.e_props
    | No_edge -> fail ?file line "no edge %s" (Const.to_string id)
  in
  (match op with
  | Mutation.Add_node { id; label } -> add_node id label
  | Merge_node { id; label } -> if not (mem_node t id) then add_node id label
  | Add_edge { id; src; dst; label } -> add_edge id src dst label
  | Merge_edge { id; src; dst; label } -> if not (mem_edge t id) then add_edge id src dst label
  | Set_node_prop { id; prop; value } -> update_node_props id (fun a -> assoc_set a prop value)
  | Set_edge_prop { id; prop; value } -> update_edge_props id (fun a -> assoc_set a prop value)
  | Del_node_prop { id; prop } -> update_node_props id (fun a -> assoc_del a prop)
  | Del_edge_prop { id; prop } -> update_edge_props id (fun a -> assoc_del a prop)
  | Del_node { id } -> (
      (* Cascade over incident live edges: base edges via the CSR
         adjacency of a base node, new edges by endpoint id (they are
         the only edges that can reference a new node). *)
      let s = t.base.snap in
      (match find_node t id with
      | Bnode i ->
          t.dead_nodes <- Ints.add i t.dead_nodes;
          Hashtbl.remove t.bprops_n i;
          let kill e _ = if not (Ints.mem e t.dead_edges) then kill_base_edge t e in
          Snapshot.iter_out s i kill;
          Snapshot.iter_in s i kill
      | Nnode r ->
          t.new_nodes <- List.filter (fun x -> x != r) t.new_nodes;
          Ids.remove t.new_node_ids id
      | No_node -> no_node id);
      let doomed =
        List.filter (fun r -> Const.equal r.e_src id || Const.equal r.e_dst id) t.new_edges
      in
      List.iter (kill_new_edge t) doomed)
  | Del_edge { id } -> (
      match find_edge t id with
      | Bedge e -> kill_base_edge t e
      | Nedge r -> kill_new_edge t r
      | No_edge -> fail ?file line "no edge %s" (Const.to_string id)));
  t.ops <- t.ops + 1

(* ---------------- Reads through the overlay --------------------------- *)

let node_label t id =
  match find_node t id with
  | Bnode i -> Some t.base.node_labels.(i)
  | Nnode r -> Some r.n_label
  | No_node -> None

let node_prop t id prop =
  match find_node t id with
  | Bnode i -> assoc_find (base_props_assoc t.bprops_n t.base.node_props i) prop
  | Nnode r -> assoc_find r.n_props prop
  | No_node -> None

let edge_prop t id prop =
  match find_edge t id with
  | Bedge e -> assoc_find (base_props_assoc t.bprops_e t.base.edge_props e) prop
  | Nedge r -> assoc_find r.e_props prop
  | No_edge -> None

let adjacency t id ~out =
  match find_node t id with
  | No_node -> None
  | h ->
      let b = t.base and s = t.base.snap in
      let from_base = ref [] in
      (match h with
      | Bnode i ->
          let visit e other =
            if not (Ints.mem e t.dead_edges) then
              from_base :=
                (b.edge_ids.(e), b.edge_label_univ.(s.Snapshot.elabel.(e)), b.node_ids.(other))
                :: !from_base
          in
          if out then Snapshot.iter_out s i visit else Snapshot.iter_in s i visit
      | Nnode _ | No_node -> ());
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
    "edge_ids"; "edge_props"; "edge_label_universe"; "esrc"; "edst"; "elabel";
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

(* Bring [tbl] (ids of a base's [n0] objects to their indices) up to
   date with a commit: dead ids out, survivors past the first dead index
   re-pointed to their compacted index, new ids in at their final
   index. *)
let update_ids tbl ids ~n0 ~dead fresh =
  Array.iter (fun d -> Ids.remove tbl ids.(d)) dead;
  let first = if Array.length dead > 0 then dead.(0) else n0 in
  let k = ref first and next = ref 0 in
  for v = first to n0 - 1 do
    if !next < Array.length dead && dead.(!next) = v then incr next
    else begin
      Ids.replace tbl ids.(v) !k;
      incr k
    end
  done;
  List.iter
    (fun id ->
      Ids.replace tbl id !k;
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
    let node_column name c dummy f =
      col name (not node_struct);
      if node_struct then compact c ~n0 ~dead:dn ~len:n1 dummy new_nodes f else c
    in
    let node_ids = node_column "node_ids" b.node_ids Const.Bottom (fun r -> r.n_id) in
    let node_labels = node_column "node_labels" b.node_labels Const.Bottom (fun r -> r.n_label) in
    (* Props columns are shared unless rebuilt or overridden; an
       override lands at its object's final index. *)
    let props_column name ~rebuild props over ~n0 ~dead ~len fresh f =
      let rebuild = rebuild || Hashtbl.length over > 0 in
      col name (not rebuild);
      if not rebuild then props
      else begin
        let props = compact props ~n0 ~dead ~len [||] fresh f in
        Hashtbl.iter (fun i assoc -> props.(shift dead i) <- sorted_props assoc) over;
        props
      end
    in
    let node_props =
      props_column "node_props" ~rebuild:node_struct b.node_props t.bprops_n ~n0 ~dead:dn ~len:n1
        new_nodes (fun r -> sorted_props r.n_props)
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
        let bump c d =
          let l = Hashtbl.find ntbl c in
          counts.(l) <- counts.(l) + d
        in
        Array.iter (fun v -> bump b.node_labels.(v) (-1)) dn;
        List.iter (fun r -> bump r.n_label 1) new_nodes;
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
        let bits = Array.init num_node_labels (fun _ -> B.raw_create n1) in
        let dead = t.dead_nodes in
        Array.iteri
          (fun l old ->
            B.raw_iter old (fun v -> if not (Ints.mem v dead) then B.raw_add bits.(l) (shift dn v)))
          s.Snapshot.node_label_bits;
        List.iter (fun r -> B.raw_add bits.(Hashtbl.find ntbl r.n_label) r.n_final) new_nodes;
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
    let survivors_e = m0 - Array.length de in
    let m1 = survivors_e + List.length new_edges in
    let ix = index b in
    let final_of_node_id id =
      match Ids.find_opt t.new_node_ids id with
      | Some r -> r.n_final
      | None -> shift dn (Ids.find ix.node_ix id)
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
    let elabel = edge_column "elabel" s.Snapshot.elabel 0 (fun r -> Hashtbl.find etbl r.e_label) in
    let edge_ids = edge_column "edge_ids" b.edge_ids Const.Bottom (fun r -> r.e_id) in
    let edge_props =
      props_column "edge_props" ~rebuild:edge_cols_fresh b.edge_props t.bprops_e ~n0:m0 ~dead:de
        ~len:m1 new_edges (fun r -> sorted_props r.e_props)
    in
    let edge_label_counts =
      if not edge_struct then s.Snapshot.stats.Snapshot.edge_label_counts
      else begin
        let counts = Array.make num_labels 0 in
        Array.blit s.Snapshot.stats.Snapshot.edge_label_counts 0 counts 0
          (Array.length s.Snapshot.stats.Snapshot.edge_label_counts);
        Array.iter
          (fun e ->
            let l = s.Snapshot.elabel.(e) in
            counts.(l) <- counts.(l) - 1)
          de;
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
        if new_nodes = [] then begin
          List.iter (fun c -> col c true) [ "out_off"; "out_adj"; "in_off"; "in_adj" ];
          ( s.Snapshot.out_off, s.Snapshot.out_eid, s.Snapshot.out_nbr,
            s.Snapshot.in_off, s.Snapshot.in_eid, s.Snapshot.in_nbr )
        end
        else begin
          List.iter (fun c -> col c false) [ "out_off"; "in_off" ];
          List.iter (fun c -> col c true) [ "out_adj"; "in_adj" ];
          let extend off =
            let a = Array.make (n1 + 1) off.(n0) in
            Array.blit off 0 a 0 (n0 + 1);
            a
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
      | Atom.Label l -> Const.equal edge_label_univ.(elabel.(e)) l
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
    (* Hand the id index over: the old base drops it (a later overlay on
       it rebuilds its own), the new base gets it updated by the delta. *)
    b.index <- None;
    update_ids ix.node_ix b.node_ids ~n0 ~dead:dn (List.map (fun r -> r.n_id) new_nodes);
    update_ids ix.edge_ix b.edge_ids ~n0:m0 ~dead:de (List.map (fun r -> r.e_id) new_edges);
    ( {
        snap = snap';
        node_ids;
        node_labels;
        node_props;
        edge_ids;
        edge_props;
        edge_label_univ;
        node_label_univ;
        index = Some ix;
      },
      { reused = List.rev !reused; rebuilt = List.rev !rebuilt } )
  end
