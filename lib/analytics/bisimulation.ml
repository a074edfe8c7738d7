(* Forward bisimulation and its quotient over labeled graphs: the
   classic structural index of semi-structured databases (the "1-index").
   Two nodes are equivalent when they have the same label and, for every
   edge label, reach the same set of equivalence classes.  Forward
   regular path queries (node tests, forward label steps, + / ∘ / star)
   cannot distinguish bisimilar nodes, so they can be answered on the
   (often much smaller) quotient and expanded — checked by the tests.

   Computed by naive partition refinement (Kanellakis-Smolka style):
   refine each block by the signature {(edge label, successor block)}
   until stable, walking the graph's snapshot CSR with interned label
   ids. *)

open Gqkg_graph

type t = {
  block_of : int array; (* node -> block *)
  num_blocks : int;
  members : int list array; (* block -> nodes, ascending *)
  quotient : Labeled_graph.t; (* one node per block, one edge per (block, label, block) *)
}

let compute lg =
  let s = Snapshot.of_labeled lg in
  let n = s.Snapshot.num_nodes in
  let normalize keys =
    let palette = Hashtbl.create 16 in
    let out =
      Array.map
        (fun key ->
          match Hashtbl.find_opt palette key with
          | Some id -> id
          | None ->
              let id = Hashtbl.length palette in
              Hashtbl.add palette key id;
              id)
        keys
    in
    (out, Hashtbl.length palette)
  in
  (* Initial partition: by node label. *)
  let block, count = normalize (Array.init n (fun v -> Labeled_graph.node_label lg v)) in
  let block = ref block and count = ref count in
  let stable = ref (n = 0) in
  while not !stable do
    let signatures =
      Array.init n (fun v ->
          let succ = ref [] in
          Snapshot.iter_out s v (fun e w -> succ := (s.Snapshot.elabel.(e), !block.(w)) :: !succ);
          (!block.(v), List.sort_uniq compare !succ))
    in
    let next, next_count = normalize signatures in
    if next_count = !count then stable := true
    else begin
      block := next;
      count := next_count
    end
  done;
  let block = !block and num_blocks = !count in
  let members = Array.make (max num_blocks 1) [] in
  for v = n - 1 downto 0 do
    members.(block.(v)) <- v :: members.(block.(v))
  done;
  (* The quotient graph: blocks keep their members' (shared) label; one
     edge per distinct (source block, edge label, target block). *)
  let b = Labeled_graph.Builder.create () in
  let block_node =
    Array.init num_blocks (fun i ->
        let witness = List.hd members.(i) in
        Labeled_graph.Builder.add_node b
          (Const.str (Printf.sprintf "B%d" i))
          ~label:(Labeled_graph.node_label lg witness))
  in
  let seen = Hashtbl.create 64 in
  for v = 0 to n - 1 do
    Snapshot.iter_out s v (fun e w ->
        let key = (block.(v), s.Snapshot.elabel.(e), block.(w)) in
        if not (Hashtbl.mem seen key) then begin
          Hashtbl.add seen key ();
          ignore
            (Labeled_graph.Builder.fresh_edge b ~src:block_node.(block.(v)) ~dst:block_node.(block.(w))
               ~label:(Labeled_graph.edge_label lg e))
        end)
  done;
  { block_of = block; num_blocks; members; quotient = Labeled_graph.Builder.freeze b }

(* Is the regex in the forward fragment the index is sound for?  Node
   tests are block-consistent (blocks are label-uniform) as long as they
   only test labels; backward steps break forward bisimulation. *)
let rec forward_fragment = function
  | Gqkg_automata.Regex.Node_test t | Gqkg_automata.Regex.Fwd t -> label_test_only t
  | Gqkg_automata.Regex.Bwd _ -> false
  | Gqkg_automata.Regex.Alt (a, b) | Gqkg_automata.Regex.Seq (a, b) ->
      forward_fragment a && forward_fragment b
  | Gqkg_automata.Regex.Star r -> forward_fragment r

and label_test_only = function
  | Gqkg_automata.Regex.Atom (Atom.Label _) -> true
  | Gqkg_automata.Regex.Atom (Atom.Prop _ | Atom.Feature _) -> false
  | Gqkg_automata.Regex.Not t -> label_test_only t
  | Gqkg_automata.Regex.Or (a, b) | Gqkg_automata.Regex.And (a, b) ->
      label_test_only a && label_test_only b

(* Node extraction through the index: bisimilar nodes have identical
   forward path languages, so whether a node can start an r-path is a
   property of its block.  Evaluate source blocks on the quotient and
   expand — exact for the forward fragment (raises outside it). *)
let source_nodes_via_quotient ?max_length index regex =
  if not (forward_fragment regex) then
    invalid_arg "Bisimulation: regex outside the forward label fragment";
  let source_blocks =
    Gqkg_core.Rpq.source_nodes ?max_length (Snapshot.of_labeled index.quotient) regex
  in
  List.concat_map (fun b -> index.members.(b)) source_blocks |> List.sort_uniq compare
