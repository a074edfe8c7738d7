(* Random and structured graph generators: the workload substrate for
   benchmarks and property tests.  All are deterministic in the supplied
   PRNG.  Generators produce labeled graphs (with a single default label
   unless stated), the lowest model every experiment can lift from. *)

open Gqkg_graph
open Gqkg_util

let default_label = Const.str "node"
let default_edge_label = Const.str "edge"

let builder_with_nodes n =
  let b = Labeled_graph.Builder.create () in
  for i = 0 to n - 1 do
    ignore (Labeled_graph.Builder.add_node b (Const.str (Printf.sprintf "n%d" i)) ~label:default_label)
  done;
  b

let add_edge b ~index ~src ~dst =
  ignore
    (Labeled_graph.Builder.add_edge b
       (Const.str (Printf.sprintf "e%d" index))
       ~src ~dst ~label:default_edge_label)

(* Erdős–Rényi G(n, m): m directed edges drawn uniformly (self-loops
   allowed, parallel edges allowed — it is a multigraph model). *)
let erdos_renyi_gnm rng ~nodes ~edges =
  if nodes <= 0 then invalid_arg "Gen_graph.erdos_renyi_gnm: need nodes";
  let b = builder_with_nodes nodes in
  for i = 0 to edges - 1 do
    add_edge b ~index:i ~src:(Splitmix.int rng nodes) ~dst:(Splitmix.int rng nodes)
  done;
  Labeled_graph.Builder.freeze b

(* Erdős–Rényi G(n, p): each ordered pair (u ≠ v) independently. *)
let erdos_renyi_gnp rng ~nodes ~p =
  if p < 0.0 || p > 1.0 then invalid_arg "Gen_graph.erdos_renyi_gnp: p in [0,1]";
  let b = builder_with_nodes nodes in
  let index = ref 0 in
  for u = 0 to nodes - 1 do
    for v = 0 to nodes - 1 do
      if u <> v && Splitmix.bernoulli rng p then begin
        add_edge b ~index:!index ~src:u ~dst:v;
        incr index
      end
    done
  done;
  Labeled_graph.Builder.freeze b

(* Barabási–Albert preferential attachment: each new node attaches
   [attach] edges to existing nodes with probability proportional to
   their degree (implemented with the repeated-endpoints trick). *)
let barabasi_albert rng ~nodes ~attach =
  if nodes < 2 || attach < 1 then invalid_arg "Gen_graph.barabasi_albert: need nodes >= 2, attach >= 1";
  let b = builder_with_nodes nodes in
  let endpoints = ref [ 0; 1 ] in
  let count = ref 2 in
  add_edge b ~index:0 ~src:1 ~dst:0;
  let index = ref 1 in
  for v = 2 to nodes - 1 do
    let pool = Array.of_list !endpoints in
    let chosen = Hashtbl.create attach in
    let tries = ref 0 in
    while Hashtbl.length chosen < min attach v && !tries < 50 * attach do
      incr tries;
      let t = pool.(Splitmix.int rng (Array.length pool)) in
      if t <> v then Hashtbl.replace chosen t ()
    done;
    Hashtbl.iter
      (fun t () ->
        add_edge b ~index:!index ~src:v ~dst:t;
        incr index;
        endpoints := v :: t :: !endpoints;
        count := !count + 2)
      chosen
  done;
  Labeled_graph.Builder.freeze b

(* Watts–Strogatz small world: ring of [nodes] each wired to [k]/2
   clockwise neighbors, each edge rewired with probability [beta]. *)
let watts_strogatz rng ~nodes ~k ~beta =
  if k < 2 || k mod 2 <> 0 || k >= nodes then invalid_arg "Gen_graph.watts_strogatz: bad k";
  let b = builder_with_nodes nodes in
  let index = ref 0 in
  for v = 0 to nodes - 1 do
    for j = 1 to k / 2 do
      let target = if Splitmix.bernoulli rng beta then Splitmix.int rng nodes else (v + j) mod nodes in
      if target <> v then begin
        add_edge b ~index:!index ~src:v ~dst:target;
        incr index
      end
    done
  done;
  Labeled_graph.Builder.freeze b

(* Directed path 0 → 1 → ... → n-1. *)
let path ~nodes =
  let b = builder_with_nodes nodes in
  for v = 0 to nodes - 2 do
    add_edge b ~index:v ~src:v ~dst:(v + 1)
  done;
  Labeled_graph.Builder.freeze b

(* Directed cycle. *)
let cycle ~nodes =
  let b = builder_with_nodes nodes in
  for v = 0 to nodes - 1 do
    add_edge b ~index:v ~src:v ~dst:((v + 1) mod nodes)
  done;
  Labeled_graph.Builder.freeze b

(* Star: center 0 pointing at each leaf. *)
let star ~leaves =
  let b = builder_with_nodes (leaves + 1) in
  for v = 1 to leaves do
    add_edge b ~index:(v - 1) ~src:0 ~dst:v
  done;
  Labeled_graph.Builder.freeze b

(* Complete directed graph (no self-loops). *)
let complete ~nodes =
  let b = builder_with_nodes nodes in
  let index = ref 0 in
  for u = 0 to nodes - 1 do
    for v = 0 to nodes - 1 do
      if u <> v then begin
        add_edge b ~index:!index ~src:u ~dst:v;
        incr index
      end
    done
  done;
  Labeled_graph.Builder.freeze b

(* 2D grid with rightward and downward edges. *)
let grid ~rows ~cols =
  let b = builder_with_nodes (rows * cols) in
  let id r c = (r * cols) + c in
  let index = ref 0 in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then begin
        add_edge b ~index:!index ~src:(id r c) ~dst:(id r (c + 1));
        incr index
      end;
      if r + 1 < rows then begin
        add_edge b ~index:!index ~src:(id r c) ~dst:(id (r + 1) c);
        incr index
      end
    done
  done;
  Labeled_graph.Builder.freeze b

(* ---- streaming generators (snapshot-direct) ---------------------------

   The Builder-based generators above allocate a Const name per node and
   edge — fine at 10^4, prohibitive at 10^7.  The streaming generators
   write endpoint/label columns into flat int arrays and freeze them
   straight into a Snapshot: memory is O(columns), names are the
   synthetic "n<id>"/"e<id>" closures (which Snapshot_io detects and
   elides from disk), and generation is a single pass over the edges. *)

let stream_freeze ~nodes ~esrc ~edst ~elabel ~edge_label_names =
  let num_labels = Array.length edge_label_names in
  let label_universe = Array.map Const.str edge_label_names in
  Snapshot.make ~attrs:Snapshot.no_attrs ~num_nodes:nodes ~esrc ~edst ~num_labels
    ~elabel
    ~label_names:(Array.map Const.to_string label_universe)
    ~label_keys:(Array.map (fun c -> [| c |]) label_universe)
    ~num_node_labels:1 ~node_labels:(Array.make nodes [ 0 ])
    ~node_label_names:[| Const.to_string default_label |]
    ~node_label_keys:[| [| default_label |] |]
    ~node_name:(fun v -> "n" ^ string_of_int v)
    ~edge_name:(fun e -> "e" ^ string_of_int e)

(* Streaming G(n, m) with labels drawn uniformly from [edge_labels]
   (default: the single "edge" label). *)
let stream_gnm ?(edge_labels = [ "edge" ]) rng ~nodes ~edges =
  if nodes <= 0 then invalid_arg "Gen_graph.stream_gnm: need nodes";
  if edge_labels = [] then invalid_arg "Gen_graph.stream_gnm: empty vocabulary";
  let names = Array.of_list edge_labels in
  let k = Array.length names in
  let esrc = Array.make edges 0 and edst = Array.make edges 0 in
  let elabel = Array.make edges 0 in
  for e = 0 to edges - 1 do
    esrc.(e) <- Splitmix.int rng nodes;
    edst.(e) <- Splitmix.int rng nodes;
    if k > 1 then elabel.(e) <- Splitmix.int rng k
  done;
  stream_freeze ~nodes ~esrc ~edst ~elabel ~edge_label_names:names

(* Random labeled graph: ER topology with labels drawn uniformly from the
   given vocabularies — the workhorse of the property-test suites. *)
let random_labeled rng ~nodes ~edges ~node_labels ~edge_labels =
  if node_labels = [] || edge_labels = [] then invalid_arg "Gen_graph.random_labeled: empty vocabulary";
  let node_labels = Array.of_list (List.map Const.str node_labels) in
  let edge_labels = Array.of_list (List.map Const.str edge_labels) in
  let b = Labeled_graph.Builder.create () in
  for i = 0 to nodes - 1 do
    ignore
      (Labeled_graph.Builder.add_node b
         (Const.str (Printf.sprintf "n%d" i))
         ~label:(Splitmix.choose rng node_labels))
  done;
  for i = 0 to edges - 1 do
    ignore
      (Labeled_graph.Builder.add_edge b
         (Const.str (Printf.sprintf "e%d" i))
         ~src:(Splitmix.int rng nodes) ~dst:(Splitmix.int rng nodes)
         ~label:(Splitmix.choose rng edge_labels))
  done;
  Labeled_graph.Builder.freeze b
