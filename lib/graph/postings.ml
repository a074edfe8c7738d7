(* Atom postings: the nodes satisfying an atomic test, found by one scan
   of [node_atom] and memoized per snapshot.  The memo is one
   compare-and-set map on the snapshot's memo; empty postings are not
   stored, which bounds it by the graph (see the .mli). *)

module Amap = Map.Make (Atom)

let table_id : int array Amap.t Atomic.t Type.Id.t = Type.Id.make ()
let table snap = Snapshot.memo snap table_id (fun _ -> Atomic.make Amap.empty)

(* Ascending scan; [tripped ()] is polled at node 0 and every 4096
   nodes. *)
let scan tripped (snap : Snapshot.t) atom =
  let n = snap.num_nodes in
  let hits = ref [] and v = ref 0 and stop = ref false in
  while (not !stop) && !v < n do
    if !v land 4095 = 0 && tripped () then stop := true
    else begin
      if snap.node_atom !v atom then hits := !v :: !hits;
      incr v
    end
  done;
  if !stop then None else Some (Array.of_list (List.rev !hits))

let lookup tripped snap atom =
  let table = table snap in
  match Amap.find_opt atom (Atomic.get table) with
  | Some nodes -> Some nodes
  | None -> (
      match scan tripped snap atom with
      | Some [||] | None as r -> r
      | Some nodes ->
          (* Built outside any lock; the first insert wins. *)
          let rec insert () =
            let seen = Atomic.get table in
            match Amap.find_opt atom seen with
            | Some nodes -> nodes
            | None ->
                if Atomic.compare_and_set table seen (Amap.add atom nodes seen) then nodes
                else insert ()
          in
          Some (insert ()))

let nodes_within budget = lookup (fun () -> Gqkg_util.Budget.check budget)
let nodes snap atom = Option.get (lookup (fun () -> false) snap atom)
