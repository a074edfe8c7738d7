module B = Gqkg_util.Bitset

type order = Identity | Degree | Bfs

type permutation = {
  old_of_new : int array;
  new_of_old : int array;
  edge_old_of_new : int array;
}

let order_of_string = function
  | "none" | "identity" -> Some Identity
  | "degree" -> Some Degree
  | "bfs" -> Some Bfs
  | _ -> None

let order_to_string = function Identity -> "none" | Degree -> "degree" | Bfs -> "bfs"

let total_degree (s : Snapshot.t) v =
  s.out_off.(v + 1) - s.out_off.(v) + s.in_off.(v + 1) - s.in_off.(v)

(* Counting sort by total degree, descending, ties ascending old id —
   O(n + max_degree), no comparison closure at 10^7 nodes. *)
let degree_order (s : Snapshot.t) =
  let n = s.num_nodes in
  let maxd = ref 0 in
  for v = 0 to n - 1 do
    let d = total_degree s v in
    if d > !maxd then maxd := d
  done;
  (* bucket.(d) = number of nodes of degree (maxd - d), so ascending
     bucket index is descending degree *)
  let buckets = Array.make (!maxd + 2) 0 in
  for v = 0 to n - 1 do
    let b = !maxd - total_degree s v in
    buckets.(b + 1) <- buckets.(b + 1) + 1
  done;
  for b = 1 to !maxd + 1 do
    buckets.(b) <- buckets.(b) + buckets.(b - 1)
  done;
  let old_of_new = Array.make n 0 in
  for v = 0 to n - 1 do
    (* ascending v within a bucket keeps ties in old-id order *)
    let b = !maxd - total_degree s v in
    old_of_new.(buckets.(b)) <- v;
    buckets.(b) <- buckets.(b) + 1
  done;
  old_of_new

(* BFS numbering: roots are taken in degree order (hubs first), each
   unvisited root starts a level-synchronous traversal over out-edges;
   unreached nodes of the component are not special-cased — they become
   roots themselves later in the degree order. *)
let bfs_order (s : Snapshot.t) =
  let n = s.num_nodes in
  let by_degree = degree_order s in
  let old_of_new = Array.make n 0 in
  let seen = Array.make n false in
  let queue = Array.make n 0 in
  let filled = ref 0 in
  let push v =
    if not seen.(v) then begin
      seen.(v) <- true;
      queue.(!filled) <- v;
      old_of_new.(!filled) <- v;
      incr filled
    end
  in
  let head = ref 0 in
  Array.iter
    (fun root ->
      push root;
      while !head < !filled do
        let v = queue.(!head) in
        incr head;
        for i = s.out_off.(v) to s.out_off.(v + 1) - 1 do
          push s.out_nbr.(i)
        done
      done)
    by_degree;
  old_of_new

let invert old_of_new =
  let n = Array.length old_of_new in
  let new_of_old = Array.make n 0 in
  for v' = 0 to n - 1 do
    new_of_old.(old_of_new.(v')) <- v'
  done;
  new_of_old

(* New edge order: group by new source (walking new nodes in order and
   their old out-rows), then sort each row by (new destination, old
   edge id).  Per-row sorts keep the whole plan O(m log max_out). *)
let edge_plan (s : Snapshot.t) ~old_of_new ~new_of_old =
  let m = s.num_edges in
  let edge_old_of_new = Array.make m 0 in
  let row = ref (Array.make 16 (0, 0)) in
  let cursor = ref 0 in
  let n = s.num_nodes in
  for v' = 0 to n - 1 do
    let v = old_of_new.(v') in
    let first = s.out_off.(v) and last = s.out_off.(v + 1) in
    let deg = last - first in
    if deg > 0 then begin
      if Array.length !row < deg then row := Array.make deg (0, 0);
      let r = !row in
      for i = 0 to deg - 1 do
        let e = s.out_eid.(first + i) in
        r.(i) <- (new_of_old.(s.edst.(e)), e)
      done;
      let sub = Array.sub r 0 deg in
      Array.sort compare sub;
      for i = 0 to deg - 1 do
        edge_old_of_new.(!cursor) <- snd sub.(i);
        incr cursor
      done
    end
  done;
  edge_old_of_new

let identity_plan (s : Snapshot.t) =
  {
    old_of_new = Array.init s.num_nodes (fun i -> i);
    new_of_old = Array.init s.num_nodes (fun i -> i);
    edge_old_of_new = Array.init s.num_edges (fun i -> i);
  }

let plan order (s : Snapshot.t) =
  match order with
  | Identity -> identity_plan s
  | Degree | Bfs ->
      let old_of_new = (match order with Bfs -> bfs_order s | _ -> degree_order s) in
      let new_of_old = invert old_of_new in
      let edge_old_of_new = edge_plan s ~old_of_new ~new_of_old in
      { old_of_new; new_of_old; edge_old_of_new }

let is_identity p =
  let id a = try Array.iteri (fun i x -> if i <> x then raise Exit) a; true with Exit -> false in
  id p.old_of_new && id p.edge_old_of_new

let apply (s : Snapshot.t) p =
  let n = s.num_nodes and m = s.num_edges in
  let esrc = Array.make m 0 and edst = Array.make m 0 in
  let elabel = Array.make m 0 in
  for e' = 0 to m - 1 do
    let e = p.edge_old_of_new.(e') in
    esrc.(e') <- p.new_of_old.(s.esrc.(e));
    edst.(e') <- p.new_of_old.(s.edst.(e));
    if s.num_labels > 0 then elabel.(e') <- s.elabel.(e)
  done;
  let node_labels = Array.make n [] in
  (* descending label ids cons into ascending per-node lists *)
  for l = s.num_node_labels - 1 downto 0 do
    B.raw_iter s.node_label_bits.(l) (fun v ->
        let v' = p.new_of_old.(v) in
        node_labels.(v') <- l :: node_labels.(v'))
  done;
  let old_node = p.old_of_new and old_edge = p.edge_old_of_new in
  let a = s.attrs in
  let gather r old =
    Snapshot.gather_rows r (List.map (fun v -> Snapshot.Base (v, v + 1)) (Array.to_list old))
  in
  let attrs =
    {
      a with
      Snapshot.node_props = gather a.node_props old_node;
      edge_props = gather a.edge_props old_edge;
      node_features = gather a.node_features old_node;
      edge_features = gather a.edge_features old_edge;
    }
  in
  Snapshot.make ~attrs ~num_nodes:n ~esrc ~edst ~num_labels:s.num_labels ~elabel
    ~label_names:s.label_names ~label_keys:s.label_keys
    ~num_node_labels:s.num_node_labels ~node_labels
    ~node_label_names:s.node_label_names ~node_label_keys:s.node_label_keys
    ~node_name:(fun v -> s.node_name old_node.(v))
    ~edge_name:(fun e -> s.edge_name old_edge.(e))

let renumber order s =
  let p = plan order s in
  match order with
  | Identity -> (s, p)
  | _ -> (apply s p, p)
