(* Regular path query evaluation: the endpoint-oriented views of [[r]].

   Besides full path extraction (Count / Gen / Enum in their own modules),
   the classic RPQ questions are: which nodes can start a matching path,
   which pairs (a, b) are joined by one, and what is the length of the
   shortest matching path between two nodes.  All of them are breadth-
   first searches over the lazy deterministic product. *)

open Gqkg_graph
open Gqkg_automata

(* Does the concrete path conform to the expression?  Evaluated by running
   the guarded NFA over the path — the reference semantics used by tests
   and by the FPRAS membership oracle. *)
let matches_path inst regex path =
  let nfa = Nfa.of_regex regex in
  let k = Path.length path in
  let current = ref (Nfa.closure nfa ~node_sat:(inst.Snapshot.node_atom (Path.node path 0)) [| Nfa.start nfa |]) in
  let alive = ref true in
  for i = 0 to k - 1 do
    if !alive then begin
      let e = Path.edge path i in
      let v = Path.node path i and w = Path.node path (i + 1) in
      let s, d = (Snapshot.endpoints inst) e in
      let edge_sat = inst.Snapshot.edge_atom e in
      let fwd_moves, bwd_moves = Nfa.edge_moves nfa !current in
      let targets = ref [] in
      let add tests =
        List.iter
          (fun (test, q') ->
            if Regex.eval_test edge_sat test && not (List.mem q' !targets) then targets := q' :: !targets)
          tests
      in
      if s = v && d = w then add fwd_moves;
      if s = w && d = v then add bwd_moves;
      let arr = Array.of_list !targets in
      Array.sort Int.compare arr;
      let closed = Nfa.closure nfa ~node_sat:(inst.Snapshot.node_atom w) arr in
      if Array.length closed = 0 then alive := false else current := closed
    end
  done;
  !alive && Nfa.is_accepting nfa !current

(* Product states reachable from [source], with the shortest number of
   steps to each; bounded by [max_length] steps when given.  Budget
   check site: every 128 dequeues (coarse — a dequeue expands at most
   one state).  An early stop leaves [dist] holding a prefix of the BFS
   order: a subset of the unbudgeted reachable set. *)
let bfs_product product ~source ~max_length =
  let dist = Hashtbl.create 64 in
  match Product.start_state product source with
  | None -> dist
  | Some s0 ->
      let budget = Product.budget product in
      let pops = ref 0 in
      let queue = Queue.create () in
      Hashtbl.replace dist s0 0;
      Queue.push s0 queue;
      let stop = ref false in
      while (not !stop) && not (Queue.is_empty queue) do
        incr pops;
        if !pops land 127 = 0 then begin
          Gqkg_util.Budget.charge_steps budget 128;
          Gqkg_util.Budget.note_states budget (Product.num_states product);
          if Gqkg_util.Budget.check budget then stop := true
        end;
        if not !stop then begin
          let id = Queue.pop queue in
          let d = Hashtbl.find dist id in
          let expand = match max_length with Some m -> d < m | None -> true in
          if expand then
            Product.iter_successors product id (fun _e succ ->
                if not (Hashtbl.mem dist succ) then begin
                  Hashtbl.replace dist succ (d + 1);
                  Queue.push succ queue
                end)
        end
      done;
      dist

(* Nodes b reachable from [source] by a path in [[r]], i.e. the standard
   RPQ semantics.  [max_length] bounds path length (mandatory only for
   queries where [[r]] is infinite and reachability is still complete
   without a bound, since products are finite; the bound is for cost
   control).  This is the per-source reference path — one hash-table BFS
   per source — kept as the oracle the batched frontier engine is tested
   and benchmarked against. *)
let reachable_from_product ?max_length product ~source =
  let dist = bfs_product product ~source ~max_length in
  let seen = Hashtbl.create 16 in
  Hashtbl.iter
    (fun id _d ->
      if Product.is_accepting product id then Hashtbl.replace seen (Product.node_of product id) ())
    dist;
  Hashtbl.fold (fun n () acc -> n :: acc) seen [] |> List.sort compare

(* Single-source queries ride the batched engine as a batch of one: the
   word-packed pass degenerates to a plain array BFS, still cheaper than
   the hash-table walk. *)
let reachable_from ?budget ?max_length inst regex ~source =
  match Planner.prepare ?budget inst regex with
  | Planner.Empty -> []
  | Planner.Ready product ->
      (Frontier.reachable ?max_length (Frontier.create product) ~sources:[| source |]).(0)

(* Reachability from an explicit source set, batched [Frontier.word_bits]
   sources per pass; [result.(i)] lists the targets of [sources.(i)],
   sorted.  Statically-empty queries answer without building a product. *)
let reachable_many ?budget ?max_length inst regex ~sources =
  match Planner.prepare ?budget inst regex with
  | Planner.Empty -> Array.map (fun _ -> []) sources
  | Planner.Ready product -> Frontier.reachable ?max_length (Frontier.create product) ~sources

(* Live seeds of [product] (see {!Product.live_seed}) in ascending node
   order, scanning until [limit] are found.  Budget check site: every
   4096 nodes, node 0 included; [None] when the budget trips — callers
   answer with an empty (hence sound) partial result. *)
let live_seeds ?(limit = max_int) product =
  let n = (Product.instance product).Snapshot.num_nodes in
  let budget = Product.budget product in
  let seeds = ref [] and count = ref 0 and v = ref 0 and tripped = ref false in
  while (not !tripped) && !v < n && !count < limit do
    if !v land 4095 = 0 && Gqkg_util.Budget.check budget then tripped := true
    else begin
      if Product.live_seed product !v then begin
        seeds := !v :: !seeds;
        incr count
      end;
      incr v
    end
  done;
  if !tripped then None else Some (Array.of_list (List.rev !seeds))

type direction = Forward | Backward

(* The direction with fewer live seeds runs; ties go forward.  Forward
   live seeds are counted in full, reversed ones only until they reach
   the forward count — past it the forward product has won anyway, so
   a selective start never pays a full scan of the reversed side.
   [None] when the answer is empty without a search: statically empty,
   no live seed, or the budget tripped in a scan. *)
let choose_direction q =
  match Option.map (fun p -> (p, live_seeds p)) (Planner.product q) with
  | None | Some (_, None) -> None
  | Some (_, Some [||]) -> None
  | Some (fwd, Some fwd_seeds) -> (
      let nf = Array.length fwd_seeds in
      match Option.map (fun p -> (p, live_seeds ~limit:nf p)) (Planner.reversed q) with
      | Some (_, None) -> None
      | Some (rev, Some rev_seeds) when Array.length rev_seeds < nf -> Some (Backward, rev, rev_seeds)
      | _ -> Some (Forward, fwd, fwd_seeds))

(* All pairs (a, b) such that some path in [[r]] goes from a to b: one
   batched frontier run from the live seeds of the chosen direction.
   Backward runs reach sources from targets; their pairs are bucketed
   per source, so the output is identical either way (ascending
   lexicographic) without a sort. *)
let eval_planned ?max_length q =
  match choose_direction q with
  | None -> []
  | Some (dir, product, seeds) -> (
      let per_seed = Frontier.reachable ?max_length (Frontier.create product) ~sources:seeds in
      let out = ref [] in
      match dir with
      | Forward ->
          for i = Array.length seeds - 1 downto 0 do
            List.iter (fun b -> out := (seeds.(i), b) :: !out) (List.rev per_seed.(i))
          done;
          !out
      | Backward ->
          let n = (Product.instance product).Snapshot.num_nodes in
          let targets = Array.make n [] in
          for i = Array.length seeds - 1 downto 0 do
            List.iter (fun a -> targets.(a) <- seeds.(i) :: targets.(a)) per_seed.(i)
          done;
          for a = n - 1 downto 0 do
            List.iter (fun b -> out := (a, b) :: !out) (List.rev targets.(a))
          done;
          !out)

let eval_pairs ?budget ?max_length inst regex =
  eval_planned ?max_length (Planner.plan ?budget inst regex)

type seed_counts = { forward_live : int; backward_live : int option; direction : direction }

(* The live seeds per direction, both counted in full, and the direction
   [eval_pairs] runs — for explain.  [None] when statically empty or
   when the budget trips during the forward scan. *)
let seed_counts ?budget inst regex =
  let q = Planner.plan ?budget inst regex in
  let count p = Option.map Array.length (live_seeds p) in
  match Option.bind (Planner.product q) count with
  | None -> None
  | Some forward_live ->
      let backward_live = Option.bind (Planner.reversed q) count in
      let direction =
        match backward_live with Some b when b < forward_live -> Backward | _ -> Forward
      in
      Some { forward_live; backward_live; direction }

(* Node extraction (Section 4.3): nodes a with at least one matching path
   starting at a (existentially quantified endpoint); only live seeds
   can, so only they are searched. *)
let source_nodes ?budget ?max_length inst regex =
  match Planner.prepare ?budget inst regex with
  | Planner.Empty -> []
  | Planner.Ready product -> (
      match live_seeds product with
      | None -> []
      | Some seeds ->
          let per_seed =
            Frontier.reachable ?max_length (Frontier.create product) ~sources:seeds
          in
          let out = ref [] in
          for i = Array.length seeds - 1 downto 0 do
            match per_seed.(i) with [] -> () | _ :: _ -> out := seeds.(i) :: !out
          done;
          !out)

(* Length of the shortest path in [[r]] from a to b, if any: the distance
   d_r(a, b) used by the regex-constrained centrality of Section 4.2. *)
let shortest_in_product product ~source ~target ~max_length =
  let dist = bfs_product product ~source ~max_length in
  let best = ref None in
  Hashtbl.iter
    (fun id d ->
      if Product.is_accepting product id && Product.node_of product id = target then
        match !best with Some b when b <= d -> () | _ -> best := Some d)
    dist;
  !best

(* Length of the shortest path in [[r]] from a to b, if any: the distance
   d_r(a, b) used by the regex-constrained centrality of Section 4.2. *)
let shortest_path_length ?budget ?max_length inst regex ~source ~target =
  match Planner.prepare ?budget inst regex with
  | Planner.Empty -> None
  | Planner.Ready product -> shortest_in_product product ~source ~target ~max_length

(* A concrete shortest matching path from a to b (a witness, in the
   G-CORE sense of paths as first-class results): BFS over the product
   with parent pointers, reconstructing the first accepting arrival. *)
let shortest_witness_in product ~source ~target ~max_length =
  match Product.start_state product source with
  | None -> None
  | Some s0 ->
      let parent = Hashtbl.create 64 in
      (* state -> (predecessor state, edge); s0 has no entry *)
      let dist = Hashtbl.create 64 in
      Hashtbl.replace dist s0 0;
      let queue = Queue.create () in
      Queue.push s0 queue;
      let found = ref None in
      let reconstruct final =
        let rec back state acc_nodes acc_edges =
          match Hashtbl.find_opt parent state with
          | None -> (Product.node_of product state :: acc_nodes, acc_edges)
          | Some (pred, edge) ->
              back pred (Product.node_of product state :: acc_nodes) (edge :: acc_edges)
        in
        let nodes, edges = back final [] [] in
        Path.make ~nodes:(Array.of_list nodes) ~edges:(Array.of_list edges)
      in
      if Product.is_accepting product s0 && Product.node_of product s0 = target then
        found := Some (Path.trivial source)
      else begin
        (* Budget check site: every 128 dequeues, like [bfs_product]. *)
        let budget = Product.budget product in
        let pops = ref 0 in
        let stop = ref false in
        while (not !stop) && !found = None && not (Queue.is_empty queue) do
          incr pops;
          if !pops land 127 = 0 then begin
            Gqkg_util.Budget.charge_steps budget 128;
            Gqkg_util.Budget.note_states budget (Product.num_states product);
            if Gqkg_util.Budget.check budget then stop := true
          end;
          if !stop then ()
          else
          let v = Queue.pop queue in
          let d = Hashtbl.find dist v in
          let expand = match max_length with Some m -> d < m | None -> true in
          if expand then
            Product.iter_successors product v (fun e succ ->
                if !found = None && not (Hashtbl.mem dist succ) then begin
                  Hashtbl.replace dist succ (d + 1);
                  Hashtbl.replace parent succ (v, e);
                  if Product.is_accepting product succ && Product.node_of product succ = target then
                    found := Some (reconstruct succ)
                  else Queue.push succ queue
                end)
        done
      end;
      !found

let shortest_witness ?budget ?max_length inst regex ~source ~target =
  match Planner.prepare ?budget inst regex with
  | Planner.Empty -> None
  | Planner.Ready product -> shortest_witness_in product ~source ~target ~max_length
