(* Paths in the sense of Section 4: a sequence p = n0 e1 n1 e2 ... ek nk
   of alternating nodes and edges, with start(p) = n0, end(p) = nk and
   |p| = k.  Stored as parallel index arrays; [nodes] always has one more
   element than [edges]. *)

open Gqkg_graph

type t = { nodes : int array; edges : int array }

let trivial node = { nodes = [| node |]; edges = [||] }

let make ~nodes ~edges =
  if Array.length nodes <> Array.length edges + 1 then
    invalid_arg "Path.make: need one more node than edges";
  if Array.length nodes = 0 then invalid_arg "Path.make: empty";
  { nodes; edges }

(* |p|: the number of edges. *)
let length p = Array.length p.edges

let start_node p = p.nodes.(0)
let end_node p = p.nodes.(Array.length p.nodes - 1)
let nodes p = p.nodes
let edges p = p.edges

let node p i =
  if i < 0 || i > length p then invalid_arg "Path.node: out of range";
  p.nodes.(i)

let edge p i =
  if i < 0 || i >= length p then invalid_arg "Path.edge: out of range";
  p.edges.(i)

(* cat(p, p'): defined when end(p) = start(p'), as in the paper. *)
let cat p p' =
  if end_node p <> start_node p' then invalid_arg "Path.cat: endpoints do not meet";
  {
    nodes = Array.append p.nodes (Array.sub p'.nodes 1 (Array.length p'.nodes - 1));
    edges = Array.append p.edges p'.edges;
  }

let equal p q = p.nodes = q.nodes && p.edges = q.edges

let compare p q =
  let c = Stdlib.compare p.nodes q.nodes in
  if c <> 0 then c else Stdlib.compare p.edges q.edges

let hash p = Hashtbl.hash (p.nodes, p.edges)

(* Structural consistency against a graph instance: every step uses an
   edge incident the right way (in either direction, as regexes may
   traverse backwards). *)
let well_formed inst p =
  let ok = ref (p.nodes.(0) >= 0 && p.nodes.(0) < inst.Snapshot.num_nodes) in
  for i = 0 to length p - 1 do
    let e = p.edges.(i) and a = p.nodes.(i) and b = p.nodes.(i + 1) in
    if e < 0 || e >= inst.Snapshot.num_edges then ok := false
    else begin
      let s, d = (Snapshot.endpoints inst) e in
      if not ((s = a && d = b) || (s = b && d = a)) then ok := false
    end
  done;
  !ok

let to_string inst p =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (inst.Snapshot.node_name p.nodes.(0));
  for i = 0 to length p - 1 do
    Buffer.add_string buf (Printf.sprintf " -%s-> %s" (inst.Snapshot.edge_name p.edges.(i))
                             (inst.Snapshot.node_name p.nodes.(i + 1)))
  done;
  Buffer.contents buf

let pp inst ppf p = Fmt.string ppf (to_string inst p)
