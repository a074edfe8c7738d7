(* Append-only journal for property graphs: the storage-engine substrate
   of the "databases" side of the paper (Section 2.1: store data in a
   permanent form; graphs grow and shrink by adding/deleting nodes and
   edges).

   The op vocabulary and line format live in {!Mutation}; this module
   owns replay (ops -> property graph), the minimal history of a frozen
   state, and the file-context error discipline: every error raised
   while reading a journal from disk carries the path, so callers can
   surface "file:line: message" diagnostics without re-deriving
   context.

   Replaying a journal rebuilds the graph; a journal is written
   append-only, so a crash can lose at most a partial trailing line,
   which [~tolerate_partial:true] skips. *)

type op = Mutation.t =
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

exception Replay_error of { file : string option; line : int; message : string }

let fail ?file line fmt =
  Printf.ksprintf (fun message -> raise (Replay_error { file; line; message })) fmt

let op_to_line = Mutation.to_line

let op_of_line ?file ~line text =
  match Mutation.of_line ~line text with
  | op -> op
  | exception Mutation.Op_error { line; message } -> raise (Replay_error { file; line; message })

(* ---------------- Replay: ops -> property graph ---------------------- *)

(* Mutable draft with insertion-ordered identifiers; deletions leave the
   order of survivors intact.  This is the from-scratch reference
   semantics the incremental overlay/commit path is property-tested
   against (test_epoch). *)
type draft = {
  node_labels : (Const.t, Const.t) Hashtbl.t;
  node_props : (Const.t, (Const.t * Const.t) list) Hashtbl.t;
  edges : (Const.t, Const.t * Const.t * Const.t) Hashtbl.t; (* id -> (src, dst, label) *)
  edge_props : (Const.t, (Const.t * Const.t) list) Hashtbl.t;
  mutable node_order : Const.t list; (* reversed *)
  mutable edge_order : Const.t list; (* reversed *)
}

let draft_create () =
  {
    node_labels = Hashtbl.create 64;
    node_props = Hashtbl.create 64;
    edges = Hashtbl.create 64;
    edge_props = Hashtbl.create 64;
    node_order = [];
    edge_order = [];
  }

let set_prop tbl id prop value =
  let existing = Option.value (Hashtbl.find_opt tbl id) ~default:[] in
  Hashtbl.replace tbl id ((prop, value) :: List.filter (fun (p, _) -> not (Const.equal p prop)) existing)

let remove_prop tbl id prop =
  match Hashtbl.find_opt tbl id with
  | None -> ()
  | Some existing -> Hashtbl.replace tbl id (List.filter (fun (p, _) -> not (Const.equal p prop)) existing)

let add_node ?file ~line draft id label =
  if Hashtbl.mem draft.node_labels id then fail ?file line "node %s already exists" (Const.to_string id);
  Hashtbl.replace draft.node_labels id label;
  draft.node_order <- id :: draft.node_order

let add_edge ?file ~line draft id src dst label =
  if Hashtbl.mem draft.edges id then fail ?file line "edge %s already exists" (Const.to_string id);
  if not (Hashtbl.mem draft.node_labels src) then
    fail ?file line "edge %s references missing node %s" (Const.to_string id) (Const.to_string src);
  if not (Hashtbl.mem draft.node_labels dst) then
    fail ?file line "edge %s references missing node %s" (Const.to_string id) (Const.to_string dst);
  Hashtbl.replace draft.edges id (src, dst, label);
  draft.edge_order <- id :: draft.edge_order

let apply ?file ~line draft op =
  match op with
  | Add_node { id; label } -> add_node ?file ~line draft id label
  | Merge_node { id; label } ->
      if not (Hashtbl.mem draft.node_labels id) then add_node ?file ~line draft id label
  | Add_edge { id; src; dst; label } -> add_edge ?file ~line draft id src dst label
  | Merge_edge { id; src; dst; label } ->
      if not (Hashtbl.mem draft.edges id) then add_edge ?file ~line draft id src dst label
  | Set_node_prop { id; prop; value } ->
      if not (Hashtbl.mem draft.node_labels id) then fail ?file line "no node %s" (Const.to_string id);
      set_prop draft.node_props id prop value
  | Set_edge_prop { id; prop; value } ->
      if not (Hashtbl.mem draft.edges id) then fail ?file line "no edge %s" (Const.to_string id);
      set_prop draft.edge_props id prop value
  | Del_node_prop { id; prop } ->
      if not (Hashtbl.mem draft.node_labels id) then fail ?file line "no node %s" (Const.to_string id);
      remove_prop draft.node_props id prop
  | Del_edge_prop { id; prop } ->
      if not (Hashtbl.mem draft.edges id) then fail ?file line "no edge %s" (Const.to_string id);
      remove_prop draft.edge_props id prop
  | Del_node { id } ->
      if not (Hashtbl.mem draft.node_labels id) then fail ?file line "no node %s" (Const.to_string id);
      Hashtbl.remove draft.node_labels id;
      Hashtbl.remove draft.node_props id;
      draft.node_order <- List.filter (fun n -> not (Const.equal n id)) draft.node_order;
      (* Incident edges go with the node. *)
      let doomed =
        Hashtbl.fold
          (fun eid (s, d, _) acc -> if Const.equal s id || Const.equal d id then eid :: acc else acc)
          draft.edges []
      in
      List.iter
        (fun eid ->
          Hashtbl.remove draft.edges eid;
          Hashtbl.remove draft.edge_props eid)
        doomed;
      if doomed <> [] then
        draft.edge_order <-
          List.filter (fun e -> not (List.exists (Const.equal e) doomed)) draft.edge_order
  | Del_edge { id } ->
      if not (Hashtbl.mem draft.edges id) then fail ?file line "no edge %s" (Const.to_string id);
      Hashtbl.remove draft.edges id;
      Hashtbl.remove draft.edge_props id;
      draft.edge_order <- List.filter (fun e -> not (Const.equal e id)) draft.edge_order

let freeze_draft draft =
  let b = Property_graph.Builder.create () in
  List.iter
    (fun id ->
      let n = Property_graph.Builder.add_node b id ~label:(Hashtbl.find draft.node_labels id) in
      List.iter
        (fun (prop, value) -> Property_graph.Builder.set_node_property b n ~prop ~value)
        (List.rev (Option.value (Hashtbl.find_opt draft.node_props id) ~default:[])))
    (List.rev draft.node_order);
  List.iter
    (fun id ->
      let src, dst, label = Hashtbl.find draft.edges id in
      let src = Option.get (Property_graph.Builder.find_node b src) in
      let dst = Option.get (Property_graph.Builder.find_node b dst) in
      let e = Property_graph.Builder.add_edge b id ~src ~dst ~label in
      List.iter
        (fun (prop, value) -> Property_graph.Builder.set_edge_property b e ~prop ~value)
        (List.rev (Option.value (Hashtbl.find_opt draft.edge_props id) ~default:[])))
    (List.rev draft.edge_order);
  Property_graph.Builder.freeze b

let replay_ops ?file ops =
  let draft = draft_create () in
  List.iteri (fun i op -> apply ?file ~line:(i + 1) draft op) ops;
  freeze_draft draft

let ops_of_string ?file ?(tolerate_partial = false) text =
  let lines = String.split_on_char '\n' text in
  let total = List.length lines in
  let ops = ref [] in
  List.iteri
    (fun i line ->
      let is_last = i = total - 1 in
      match op_of_line ?file ~line:(i + 1) line with
      | Some op -> ops := op :: !ops
      | None -> ()
      | exception Replay_error _ when tolerate_partial && is_last ->
          () (* a torn final write: ignore *))
    lines;
  List.rev !ops

let ops_to_string ops = String.concat "" (List.map (fun op -> op_to_line op ^ "\n") ops)

let load_ops ?(tolerate_partial = false) path =
  ops_of_string ~file:path ~tolerate_partial (In_channel.with_open_bin path In_channel.input_all)

let load ?tolerate_partial path =
  let ops = load_ops ?tolerate_partial path in
  replay_ops ~file:path ops

(* The minimal history recreating a snapshot's state as adds: node adds,
   edge adds, edge props, node props.  Ids, labels and property
   constants are read back from the snapshot's names and columns. *)
let ops_of_snapshot (s : Snapshot.t) =
  let node_id v = Const.of_string (s.node_name v) and edge_id e = Const.of_string (s.edge_name e) in
  let label names l = if l < 0 then Const.Bottom else Const.of_string names.(l) in
  let each count f = List.concat_map f (List.init count Fun.id) in
  (* an object's properties in descending key order *)
  let props rows o f = List.rev_map f (Array.to_list (Snapshot.row s.attrs.dict rows o)) in
  each s.num_nodes (fun v ->
      [ Add_node { id = node_id v; label = label s.node_label_names (Snapshot.node_label s v) } ])
  @ each s.num_edges (fun e ->
        let l = if s.num_labels > 0 then s.elabel.(e) else -1 in
        let src = node_id s.esrc.(e) and dst = node_id s.edst.(e) in
        [ Add_edge { id = edge_id e; src; dst; label = label s.label_names l } ])
  @ each s.num_edges (fun e ->
        let id = edge_id e in
        props s.attrs.edge_props e (fun (prop, value) -> Set_edge_prop { id; prop; value }))
  @ each s.num_nodes (fun v ->
        let id = node_id v in
        props s.attrs.node_props v (fun (prop, value) -> Set_node_prop { id; prop; value }))

let ops_of_graph g = ops_of_snapshot (Snapshot.of_property g)
