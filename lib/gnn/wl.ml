(* The Weisfeiler-Lehman test (color refinement), Section 4.3's bridge
   between procedural and declarative node extraction: 1-WL has exactly
   the distinguishing power of AC-GNNs [Morris et al. 2019, Xu et al.
   2019] and of C² counting logic [Cai, Fürer & Immerman 1992].

   Each round recolors every node by its own color together with the
   multiset of its neighbors' colors; colors are interned to dense ints.
   The neighborhood is undirected (out- plus in-edges, multiplicity
   preserved), matching the aggregation of {!Gnn} and the ◇ of
   {!Gqkg_logic.Gml}. *)

open Gqkg_graph

type coloring = { colors : int array; rounds : int; num_colors : int }

(* Refine until stable (the partition stops splitting) or [max_rounds].
   [init] gives initial colors, e.g. from labels or feature vectors. *)
let refine ?(max_rounds = max_int) inst ~init =
  let n = inst.Snapshot.num_nodes in
  let colors = Array.init n init in
  (* Normalize initial colors to a dense palette. *)
  let normalize colors =
    let palette = Hashtbl.create 16 in
    let out =
      Array.map
        (fun c ->
          match Hashtbl.find_opt palette c with
          | Some id -> id
          | None ->
              let id = Hashtbl.length palette in
              Hashtbl.add palette c id;
              id)
        colors
    in
    (out, Hashtbl.length palette)
  in
  let colors, initial_count = normalize colors in
  let current = ref colors and count = ref initial_count and rounds = ref 0 in
  let stable = ref false in
  while (not !stable) && !rounds < max_rounds do
    let signatures =
      Array.init n (fun v ->
          let neigh = ref [] in
          Snapshot.iter_out inst v (fun _e w -> neigh := !current.(w) :: !neigh);
          Snapshot.iter_in inst v (fun _e u -> neigh := !current.(u) :: !neigh);
          (!current.(v), List.sort compare !neigh))
    in
    let next, next_count = normalize signatures in
    if next_count = !count then stable := true
    else begin
      current := next;
      count := next_count;
      incr rounds
    end
  done;
  { colors = !current; rounds = !rounds; num_colors = !count }

(* Uniform initial coloring: pure structure, no labels. *)
let refine_unlabeled ?max_rounds inst = refine ?max_rounds inst ~init:(fun _ -> 0)

(* Initial colors from the node's full feature vector (vector-labeled
   graphs): the setting of the GNN correspondence. *)
let refine_vector ?max_rounds vg =
  let inst = Snapshot.of_vector vg in
  refine ?max_rounds inst ~init:(fun v -> Hashtbl.hash (Vector_graph.node_vector vg v))

let color_histogram coloring =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun c -> Hashtbl.replace tbl c (1 + Option.value (Hashtbl.find_opt tbl c) ~default:0))
    coloring.colors;
  Hashtbl.fold (fun c k acc -> (c, k) :: acc) tbl [] |> List.sort compare

(* The WL graph-isomorphism test: refine the disjoint union and compare
   the color histograms of the two sides.  [`Distinguished] certifies
   non-isomorphism; [`Possibly_isomorphic] is WL's "maybe" (famously
   wrong on e.g. pairs of regular graphs — covered in tests). *)
let isomorphism_test ?(init1 = fun _ -> 0) ?(init2 = fun _ -> 0) inst1 inst2 =
  let open Snapshot in
  if inst1.num_nodes <> inst2.num_nodes || inst1.num_edges <> inst2.num_edges then `Distinguished
  else begin
    let n1 = inst1.num_nodes in
    let union = Snapshot.disjoint_union inst1 inst2 in
    let coloring = refine union ~init:(fun v -> if v < n1 then init1 v else init2 (v - n1)) in
    let hist side =
      let tbl = Hashtbl.create 16 in
      Array.iteri
        (fun v c ->
          if (side = 0 && v < n1) || (side = 1 && v >= n1) then
            Hashtbl.replace tbl c (1 + Option.value (Hashtbl.find_opt tbl c) ~default:0))
        coloring.colors;
      Hashtbl.fold (fun c k acc -> (c, k) :: acc) tbl [] |> List.sort compare
    in
    if hist 0 = hist 1 then `Possibly_isomorphic else `Distinguished
  end
