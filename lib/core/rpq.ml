(* Regular path query evaluation: the endpoint-oriented views of [[r]].

   Besides full path extraction (Count / Gen / Enum in their own modules),
   the classic RPQ questions are: which nodes can start a matching path,
   which pairs (a, b) are joined by one, and what is the length of the
   shortest matching path between two nodes.  All of them are breadth-
   first searches over the lazy deterministic product. *)

open Gqkg_graph

(* Reachability from an explicit source set, batched [Frontier.word_bits]
   sources per pass; [result.(i)] lists the targets of [sources.(i)],
   sorted.  Statically-empty queries answer without building a product. *)
let reachable_many ?budget ?max_length inst regex ~sources =
  match Planner.prepare ?budget inst regex with
  | Planner.Empty -> Array.map (fun _ -> []) sources
  | Planner.Ready product -> Frontier.reachable ?max_length (Frontier.create product) ~sources

(* Live seeds of [product] (see {!Product.live_seed}) in ascending node
   order, walking its seed candidates ({!Product.seed_candidates}) until
   [limit] are found.  Budget check site: every 4096 candidates,
   candidate 0 included, beside the polls of a postings build; [None]
   when the budget trips — callers answer with an empty (hence sound)
   partial result. *)
let live_seeds ?(limit = max_int) product =
  match Product.seed_candidates product with
  | None -> None
  | Some candidates ->
      let count, node =
        match candidates with
        | Product.Every_node -> ((Product.instance product).Snapshot.num_nodes, Fun.id)
        | Product.Nodes nodes -> (Array.length nodes, Array.get nodes)
      in
      let budget = Product.budget product in
      let seeds = ref [] and found = ref 0 and i = ref 0 and tripped = ref false in
      while (not !tripped) && !i < count && !found < limit do
        if !i land 4095 = 0 && Gqkg_util.Budget.check budget then tripped := true
        else begin
          let v = node !i in
          if Product.live_seed product v then begin
            seeds := v :: !seeds;
            incr found
          end;
          incr i
        end
      done;
      if !tripped then None else Some (Array.of_list (List.rev !seeds))

type direction = Forward | Backward

(* The direction rule, shared by [eval_pairs] and [seed_counts]: the
   side with fewer live seeds runs, ties go forward, and one forward
   seed always runs forward — the reversed side could only tie, or be
   empty, and then the answer is empty, which the one-seed forward run
   returns as well. *)
let pick_direction ~forward ~backward =
  if forward > 1 && backward < forward then Backward else Forward

(* [pick_direction] over the plan's products.  Forward live seeds are
   counted in full, reversed ones only until they reach the forward
   count — past it the forward product has won anyway, so a selective
   start never pays a full scan of the reversed side; one forward seed
   never builds the reversed product.  [None] when the answer is empty
   without a search: statically empty, no live seed, or the budget
   tripped in a scan. *)
let choose_direction q =
  match Option.map (fun p -> (p, live_seeds p)) (Planner.product q) with
  | None | Some (_, None) -> None
  | Some (_, Some [||]) -> None
  | Some (fwd, Some ([| _ |] as seed)) -> Some (Forward, fwd, seed)
  | Some (fwd, Some fwd_seeds) -> (
      let nf = Array.length fwd_seeds in
      match Option.map (fun p -> (p, live_seeds ~limit:nf p)) (Planner.reversed q) with
      | Some (_, None) -> None
      | Some (rev, Some rev_seeds)
        when pick_direction ~forward:nf ~backward:(Array.length rev_seeds) = Backward ->
          Some (Backward, rev, rev_seeds)
      | _ -> Some (Forward, fwd, fwd_seeds))

(* All pairs (a, b) such that some path in [[r]] goes from a to b: one
   batched frontier run from the live seeds of the chosen direction.
   Backward runs reach sources from targets; their pairs are bucketed
   per source.  Either way the buckets ascend, so the columns are sized
   by one count and filled in order, with no sort. *)
let eval_planned ?max_length q =
  match choose_direction q with
  | None -> Answer.of_columns [||] [||]
  | Some (dir, product, seeds) ->
      let per_seed = Frontier.reachable ?max_length (Frontier.create product) ~sources:seeds in
      let src_of, buckets =
        match dir with
        | Forward -> (Array.get seeds, per_seed)
        | Backward ->
            let targets = Array.make (Product.instance product).Snapshot.num_nodes [] in
            for i = Array.length seeds - 1 downto 0 do
              List.iter (fun a -> targets.(a) <- seeds.(i) :: targets.(a)) per_seed.(i)
            done;
            (Fun.id, targets)
      in
      let total = Array.fold_left (fun n l -> n + List.length l) 0 buckets in
      let src = Array.make total 0 and dst = Array.make total 0 and k = ref 0 in
      let fill i b =
        src.(!k) <- src_of i;
        dst.(!k) <- b;
        incr k
      in
      Array.iteri (fun i -> List.iter (fill i)) buckets;
      Answer.of_columns src dst

let eval_pairs ?budget ?max_length inst regex =
  Answer.to_pairs (eval_planned ?max_length (Planner.plan ?budget inst regex))

type seed_counts = {
  forward_live : int;
  forward_candidates : int option;
  backward_live : int option;
  backward_candidates : int option;
  direction : direction;
}

(* The live seeds and seed candidates per direction, both counted in
   full, and the direction [eval_pairs] runs — for explain.  [None]
   when statically empty or when the budget trips during the forward
   scan. *)
let seed_counts ?budget inst regex =
  let q = Planner.plan ?budget inst regex in
  let count p = Option.map Array.length (live_seeds p) in
  let candidates p =
    match Product.seed_candidates p with Some (Product.Nodes a) -> Some (Array.length a) | _ -> None
  in
  match Planner.product q with
  | None -> None
  | Some fwd -> (
      match count fwd with
      | None -> None
      | Some forward_live ->
          let rev = Planner.reversed q in
          let backward_live = Option.bind rev count in
          let direction =
            match backward_live with
            | Some backward -> pick_direction ~forward:forward_live ~backward
            | None -> Forward
          in
          Some
            {
              forward_live;
              forward_candidates = candidates fwd;
              backward_live;
              backward_candidates = Option.bind rev candidates;
              direction;
            })

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
        (* Budget check site: every 128 dequeues. *)
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

(* Length of the shortest path in [[r]] from a to b, if any: the distance
   d_r(a, b) used by the regex-constrained centrality of Section 4.2.  The
   witness BFS discovers states in nondecreasing distance, so its first
   accepting arrival at [target] is at the shortest distance. *)
let shortest_path_length ?budget ?max_length inst regex ~source ~target =
  Option.map Path.length (shortest_witness ?budget ?max_length inst regex ~source ~target)
