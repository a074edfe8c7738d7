(* Atom postings: the nodes (or edges) satisfying an atomic test, found
   once and memoized per snapshot.  Each side's memo is one
   compare-and-set map on the snapshot's memo.  Absent atoms are
   memoized too, as empty postings, but only up to one stored empty per
   node (per edge): each one was paid for by a full scan, so the cap
   keeps the memo bounded by the graph (see the .mli). *)

module Amap = Map.Make (Atom)
module B = Gqkg_util.Bitset

type table = { sets : int array Amap.t; empties : int }

let node_id : table Atomic.t Type.Id.t = Type.Id.make ()
let edge_id : table Atomic.t Type.Id.t = Type.Id.make ()
let table snap id = Snapshot.memo snap id (fun _ -> Atomic.make { sets = Amap.empty; empties = 0 })

(* Ascending scan of [0, n); [tripped ()] is polled at 0 and every 4096
   objects. *)
let scan tripped n sat =
  let hits = ref [] and i = ref 0 and stop = ref false in
  while (not !stop) && !i < n do
    if !i land 4095 = 0 && tripped () then stop := true
    else begin
      if sat !i then hits := !i :: !hits;
      incr i
    end
  done;
  if !stop then None else Some (Array.of_list (List.rev !hits))

(* A node-label atom is the union of the label bitmaps it accepts (a
   node may carry several labels).  Without a label index the snapshot
   answers label tests through [Snapshot.node_atom] alone. *)
let build_nodes tripped (snap : Snapshot.t) atom =
  match atom with
  | Atom.Label _ when snap.num_node_labels > 0 ->
      let acc = B.raw_create (max snap.num_nodes 1) in
      for l = 0 to snap.num_node_labels - 1 do
        if Snapshot.node_label_holds snap l atom then
          B.raw_iter snap.node_label_bits.(l) (B.raw_add acc)
      done;
      Some (B.raw_to_array acc)
  | _ -> scan tripped snap.num_nodes (fun v -> Snapshot.node_atom snap v atom)

let build_edges tripped (snap : Snapshot.t) atom =
  scan tripped snap.num_edges (fun e -> Snapshot.edge_atom snap e atom)

let lookup id ~cap build tripped snap atom =
  let table = table snap id in
  match Amap.find_opt atom (Atomic.get table).sets with
  | Some set -> Some set
  | None -> (
      match build tripped snap atom with
      | None -> None
      | Some set ->
          (* Built outside any lock; the first insert wins.  An empty
             past the cap is answered but not kept. *)
          let empty = Array.length set = 0 in
          let rec insert () =
            let seen = Atomic.get table in
            match Amap.find_opt atom seen.sets with
            | Some set -> set
            | None when empty && seen.empties >= cap -> set
            | None ->
                let next =
                  {
                    sets = Amap.add atom set seen.sets;
                    empties = (if empty then seen.empties + 1 else seen.empties);
                  }
                in
                if Atomic.compare_and_set table seen next then set else insert ()
          in
          Some (insert ()))

let nodes_lookup tripped (snap : Snapshot.t) =
  lookup node_id ~cap:snap.num_nodes build_nodes tripped snap

let never () = false
let nodes_within budget = nodes_lookup (fun () -> Gqkg_util.Budget.check budget)
let nodes snap atom = Option.get (nodes_lookup never snap atom)

let edges (snap : Snapshot.t) atom =
  Option.get (lookup edge_id ~cap:snap.num_edges build_edges never snap atom)

let stored_empties snap =
  ((Atomic.get (table snap node_id)).empties, (Atomic.get (table snap edge_id)).empties)
