(* Basic graph traversals over the frozen columnar snapshot: breadth-
   first and depth-first orders, weakly connected components, and
   Tarjan's strongly connected components.  These are the "global
   properties" substrate of Section 2.1(iii) on which the analytics of
   Section 4.2 build.  Inner loops index the snapshot's CSR arrays
   directly — no per-node array materialization. *)

open Gqkg_graph

let out_neighbors inst v =
  let off = inst.Snapshot.out_off in
  Array.sub inst.Snapshot.out_nbr off.(v) (off.(v + 1) - off.(v))

let in_neighbors inst v =
  let off = inst.Snapshot.in_off in
  Array.sub inst.Snapshot.in_nbr off.(v) (off.(v + 1) - off.(v))

let all_neighbors inst v = Array.append (out_neighbors inst v) (in_neighbors inst v)

(* BFS order and distances from [source]; [directed] chooses whether to
   respect edge direction (default) or treat edges as symmetric. *)
let bfs ?(directed = true) inst ~source =
  let n = inst.Snapshot.num_nodes in
  let out_off = inst.Snapshot.out_off and out_nbr = inst.Snapshot.out_nbr in
  let in_off = inst.Snapshot.in_off and in_nbr = inst.Snapshot.in_nbr in
  let dist = Array.make n (-1) in
  let order = ref [] in
  let queue = Queue.create () in
  dist.(source) <- 0;
  Queue.push source queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    let d = dist.(v) + 1 in
    for i = out_off.(v) to out_off.(v + 1) - 1 do
      let w = out_nbr.(i) in
      if dist.(w) < 0 then begin
        dist.(w) <- d;
        Queue.push w queue
      end
    done;
    if not directed then
      for i = in_off.(v) to in_off.(v + 1) - 1 do
        let w = in_nbr.(i) in
        if dist.(w) < 0 then begin
          dist.(w) <- d;
          Queue.push w queue
        end
      done
  done;
  (dist, List.rev !order)

let bfs_distances ?directed inst ~source = fst (bfs ?directed inst ~source)

(* The [i]-th neighbor of [v] in the directed (out) or symmetric
   (out-then-in) neighborhood, or -1 past the end — lets the iterative
   DFS walk adjacency without materializing neighbor arrays. *)
let nth_neighbor inst ~directed v i =
  let out_off = inst.Snapshot.out_off in
  let odeg = out_off.(v + 1) - out_off.(v) in
  if i < odeg then inst.Snapshot.out_nbr.(out_off.(v) + i)
  else if directed then -1
  else begin
    let in_off = inst.Snapshot.in_off in
    let j = i - odeg in
    if j < in_off.(v + 1) - in_off.(v) then inst.Snapshot.in_nbr.(in_off.(v) + j) else -1
  end

(* Depth-first finishing order (used by SCC variants and as a generic
   traversal); iterative to survive deep graphs. *)
let dfs_finish_order ?(directed = true) inst =
  let n = inst.Snapshot.num_nodes in
  let visited = Array.make n false in
  let order = ref [] in
  for root = 0 to n - 1 do
    if not visited.(root) then begin
      let stack = Stack.create () in
      Stack.push (root, 0) stack;
      visited.(root) <- true;
      while not (Stack.is_empty stack) do
        let v, i = Stack.pop stack in
        let w = nth_neighbor inst ~directed v i in
        if w >= 0 then begin
          Stack.push (v, i + 1) stack;
          if not visited.(w) then begin
            visited.(w) <- true;
            Stack.push (w, 0) stack
          end
        end
        else order := v :: !order
      done
    end
  done;
  !order (* reverse finishing order: last finished first *)

(* Weakly connected components: labels in [0, count). *)
let weakly_connected_components inst =
  let n = inst.Snapshot.num_nodes in
  let uf = Gqkg_util.Union_find.create n in
  let esrc = inst.Snapshot.esrc and edst = inst.Snapshot.edst in
  for e = 0 to inst.Snapshot.num_edges - 1 do
    ignore (Gqkg_util.Union_find.union uf esrc.(e) edst.(e))
  done;
  (Gqkg_util.Union_find.labeling uf, Gqkg_util.Union_find.components uf)

(* Tarjan's strongly connected components, iterative.  Returns component
   labels (in reverse topological order of the condensation) and count. *)
let strongly_connected_components inst =
  let n = inst.Snapshot.num_nodes in
  let out_off = inst.Snapshot.out_off and out_nbr = inst.Snapshot.out_nbr in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let scc_stack = Stack.create () in
  let counter = ref 0 and comp_count = ref 0 in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      (* Explicit DFS stack of (node, next-neighbor-index). *)
      let call_stack = Stack.create () in
      let start v =
        index.(v) <- !counter;
        lowlink.(v) <- !counter;
        incr counter;
        Stack.push v scc_stack;
        on_stack.(v) <- true;
        Stack.push (v, 0) call_stack
      in
      start root;
      while not (Stack.is_empty call_stack) do
        let v, i = Stack.pop call_stack in
        if i < out_off.(v + 1) - out_off.(v) then begin
          Stack.push (v, i + 1) call_stack;
          let w = out_nbr.(out_off.(v) + i) in
          if index.(w) < 0 then start w
          else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
        end
        else begin
          (* v is finished: propagate lowlink to the caller, pop an SCC
             if v is a root. *)
          (match Stack.top_opt call_stack with
          | Some (parent, _) -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
          | None -> ());
          if lowlink.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              let w = Stack.pop scc_stack in
              on_stack.(w) <- false;
              comp.(w) <- !comp_count;
              if w = v then continue := false
            done;
            incr comp_count
          end
        end
      done
    end
  done;
  (comp, !comp_count)
