(* Regex-constrained betweenness centrality (Section 4.2):

     bc_r(x) = Σ_{a,b : a≠x, b≠x} |S_{a,b,r}(x)| / |S_{a,b,r}|

   where S_{a,b,r} is the set of *shortest* paths from a to b conforming
   to the regular expression r, and S_{a,b,r}(x) those that contain x.
   This is how "knowledge" (the labels) enters a classical analytics
   primitive: only the paths that mean the right thing — a bus used as
   transport, an infection chain — count towards centrality.

   Both algorithms run on the deterministic product, where matching paths
   correspond one-to-one to product paths:

   - [exact]: per source, a BFS of the product gives distances and the
     shortest-path DAG; per (source, target) pair the members of
     S_{a,b,r} are materialized by walking the DAG backwards from the
     accepting states and each path credits its distinct intermediate
     nodes.  Exact, but |S| can be exponential — the point the paper
     makes about intractability.

   - [approximate]: the randomized algorithm the tutorial builds from the
     Section 4.1 toolbox.  Instead of materializing S_{a,b,r}, it draws
     [samples] uniform members per pair (backward sampling weighted by
     shortest-path counts — the same preprocessing/generation split as
     uniform path generation) and estimates the inclusion fractions. *)

open Gqkg_graph
open Gqkg_core
open Gqkg_util

(* Per-source shortest-path structure over the product: distances, path
   counts σ, and DAG predecessors of every product state — flat arrays
   indexed by product state id ([dist] = -1 for unreached states). *)
type source_dag = {
  dist : int array;
  sigma : float array;
  preds : int list array; (* DAG edges backwards *)
  (* Per target node: best distance and accepting states at it. *)
  targets : (int, int * int list) Hashtbl.t;
  (* Target nodes in ascending order.  Consumers iterate this list, not
     the hash table: the iteration order is then a function of the graph
     and query alone, not of the product's state ids, keeping
     accumulation and sampling order reproducible. *)
  target_nodes : int list;
}

(* Per-source FIFO replay over the (frontier-warmed) product.  The walk
   is structurally identical to a hash-table BFS — same pop order, same
   σ accumulation order, same predecessor list order — so dist/σ/preds
   and everything sampled or summed from them are bit-identical to the
   pre-batching per-source code; only the bookkeeping moved from hash
   tables to arrays.  The batch pass in {!exact}/{!approximate} has
   already expanded every state this replay can expand, so the
   iter_successors calls below are memoized CSR reads. *)
let build_dag product ~source ~max_length =
  let cap = ref (max 16 (Product.num_states product)) in
  let dist = ref (Array.make !cap (-1)) in
  let sigma = ref (Array.make !cap 0.0) in
  let preds = ref (Array.make !cap []) in
  let grow n =
    if n > !cap then begin
      let c = max n (2 * !cap) in
      let d = Array.make c (-1) and s = Array.make c 0.0 in
      let p = Array.make c [] in
      Array.blit !dist 0 d 0 !cap;
      Array.blit !sigma 0 s 0 !cap;
      Array.blit !preds 0 p 0 !cap;
      dist := d;
      sigma := s;
      preds := p;
      cap := c
    end
  in
  let targets = Hashtbl.create 16 in
  (* Accepting states in discovery order — a structural (id-independent)
     order because BFS follows the deterministic successor lists. *)
  let accepting_in_order = ref [] in
  let discover state d =
    !dist.(state) <- d;
    if Product.is_accepting product state then
      accepting_in_order := (state, Product.node_of product state, d) :: !accepting_in_order
  in
  (match Product.start_state product source with
  | None -> ()
  | Some s0 ->
      grow (Product.num_states product);
      discover s0 0;
      !sigma.(s0) <- 1.0;
      let queue = Queue.create () in
      Queue.push s0 queue;
      (* Budget check site: every 128 dequeues, like the Rpq BFS.  An
         early stop truncates the DAG; paths materialized or sampled
         from it are still genuine shortest matching paths, only fewer
         pairs contribute. *)
      let budget = Product.budget product in
      let pops = ref 0 in
      let stop = ref false in
      while (not !stop) && not (Queue.is_empty queue) do
        incr pops;
        if !pops land 127 = 0 then begin
          Budget.charge_steps budget 128;
          Budget.note_states budget (Product.num_states product);
          if Budget.check budget then stop := true
        end;
        if not !stop then begin
        let v = Queue.pop queue in
        let dv = !dist.(v) in
        let expand = match max_length with Some m -> dv < m | None -> true in
        if expand then begin
          ignore (Product.degree product v);
          grow (Product.num_states product);
          Product.iter_successors product v (fun _e w ->
              if !dist.(w) < 0 then begin
                discover w (dv + 1);
                Queue.push w queue
              end;
              if !dist.(w) = dv + 1 then begin
                !sigma.(w) <- !sigma.(w) +. !sigma.(v);
                !preds.(w) <- v :: !preds.(w)
              end)
        end
        end
      done;
      (* Per graph node, keep the closest accepting states (discovery
         order within each node). *)
      List.iter
        (fun (state, node, d) ->
          match Hashtbl.find_opt targets node with
          | Some (best, states) ->
              if d < best then Hashtbl.replace targets node (d, [ state ])
              else if d = best then Hashtbl.replace targets node (best, state :: states)
          | None -> Hashtbl.replace targets node (d, [ state ]))
        (List.rev !accepting_in_order));
  let target_nodes =
    Hashtbl.fold (fun node _ acc -> node :: acc) targets [] |> List.sort Int.compare
  in
  { dist = !dist; sigma = !sigma; preds = !preds; targets; target_nodes }

(* All shortest matching paths from the source to [target], as node
   sequences (graph nodes), by backward DFS through the DAG.  [limit]
   caps the number of materialized paths (safety valve for the exact
   algorithm; [None] in tests). *)
let materialize_paths product dag ~target ~limit =
  match Hashtbl.find_opt dag.targets target with
  | None -> []
  | Some (_d, states) ->
      let out = ref [] and count = ref 0 in
      let exception Done in
      (try
         List.iter
           (fun final ->
             let rec back state suffix =
               let node = Product.node_of product state in
               match dag.preds.(state) with
               | [] ->
                   (* Reached the source start state (distance 0). *)
                   if dag.dist.(state) = 0 then begin
                     out := (node :: suffix) :: !out;
                     incr count;
                     match limit with Some l when !count >= l -> raise Done | _ -> ()
                   end
               | preds -> List.iter (fun p -> back p (node :: suffix)) preds
             in
             back final [])
           states
       with Done -> ());
      !out

(* Plan the query once: [None] when statically empty (bc_r is all
   zeros — no matching path exists), otherwise the product every source
   is replayed over. *)
let plan_product ?budget inst regex =
  let module Analyze = Gqkg_analysis.Analyze in
  let r = Analyze.plan inst regex in
  Option.map (fun nfa -> Product.create ?budget ~nfa inst r.Analyze.regex) r.Analyze.nfa

(* Per-source exact contribution, accumulated into [bc]. *)
let exact_source ~max_length ~pair_limit product bc a =
  let dag = build_dag product ~source:a ~max_length in
  List.iter
    (fun b ->
      if b <> a then begin
        let paths = materialize_paths product dag ~target:b ~limit:pair_limit in
        let total = List.length paths in
        if total > 0 then begin
          let weight = 1.0 /. float_of_int total in
          List.iter
            (fun nodes ->
              let distinct = List.sort_uniq Int.compare nodes in
              List.iter (fun x -> if x <> a && x <> b then bc.(x) <- bc.(x) +. weight) distinct)
            paths
        end
      end)
    dag.target_nodes

(* Source runner: every source, in batches of [Frontier.word_bits].
   Each batch first runs one multi-source frontier pass whose only job
   is to *warm* the product — every state any source of the batch can
   expand gets its CSR row committed once, for the whole batch — then
   replays the per-source DAG builds over the memoized rows.  The
   replay, not the batch pass, produces the per-source structure, so
   results stay bit-identical to the one-source-at-a-time loop
   regardless of batch composition. *)
let run_sources product ~max_length per_source n =
  let budget = Product.budget product in
  let fr = Frontier.create product in
  let bc = Array.make n 0.0 in
  let a = ref 0 in
  (* Budget check sites: per batch and per source.  A skipped source
     contributes nothing, so partial bc scores are undercounts. *)
  while !a < n && not (Budget.check budget) do
    let width = min Frontier.word_bits (n - !a) in
    Frontier.run_batch ?max_length fr ~sources:(Array.init width (fun i -> !a + i));
    let i = ref 0 in
    while !i < width && not (Budget.check budget) do
      per_source product bc (!a + !i);
      incr i
    done;
    a := !a + width
  done;
  bc

(* The exact bc_r of every node.  [max_length] bounds the product search
   for star-heavy expressions; [pair_limit] caps per-pair materialization
   (when hit, the pair contributes its sampled prefix — the log warns). *)
let exact ?budget ?max_length ?pair_limit inst regex =
  let n = inst.Snapshot.num_nodes in
  match plan_product ?budget inst regex with
  | None -> Array.make n 0.0
  | Some product ->
      run_sources product ~max_length (exact_source ~max_length ~pair_limit) n

(* Uniform draw of one shortest matching path to [target] (as the list of
   its graph nodes): pick the accepting state proportionally to σ, then
   walk predecessors proportionally to σ. *)
let sample_path product dag rng ~target =
  match Hashtbl.find_opt dag.targets target with
  | None -> None
  | Some (_d, states) ->
      let states = Array.of_list states in
      let weights = Array.map (fun s -> dag.sigma.(s)) states in
      let final = states.(Alias.sample_weights weights rng) in
      let rec back state suffix =
        let node = Product.node_of product state in
        match dag.preds.(state) with
        | [] -> node :: suffix
        | preds ->
            let preds = Array.of_list preds in
            let weights = Array.map (fun s -> dag.sigma.(s)) preds in
            back preds.(Alias.sample_weights weights rng) (node :: suffix)
      in
      Some (back final [])

(* Per-source sampled contribution.  The RNG is derived from (seed,
   source), so the estimate is a pure function of the inputs no matter
   how sources are batched. *)
let approximate_source ~max_length ~samples ~seed product bc a =
  let rng = Splitmix.create (seed + (0x9e3779b9 * (a + 1))) in
  let share = 1.0 /. float_of_int samples in
  let dag = build_dag product ~source:a ~max_length in
  List.iter
    (fun b ->
      if b <> a then
        for _ = 1 to samples do
          match sample_path product dag rng ~target:b with
          | None -> ()
          | Some nodes ->
              let distinct = List.sort_uniq Int.compare nodes in
              List.iter (fun x -> if x <> a && x <> b then bc.(x) <- bc.(x) +. share) distinct
        done)
    dag.target_nodes

(* Randomized approximation of bc_r: per reachable pair, [samples] uniform
   members of S_{a,b,r} estimate the inclusion fractions.  Sources are
   batched exactly as in {!exact}. *)
let approximate ?budget ?max_length ?(samples = 16) ?(seed = 7) inst regex =
  let n = inst.Snapshot.num_nodes in
  match plan_product ?budget inst regex with
  | None -> Array.make n 0.0
  | Some product ->
      run_sources product ~max_length (approximate_source ~max_length ~samples ~seed) n

(* The degradation ladder: exact bc_r under the caller's budget; if the
   exact pass trips, fall back to the sampling approximation under a
   fresh budget with the same limits ([Budget.similar] — the injector is
   deliberately not copied).  The outcome's completeness reflects the
   pass that produced the returned scores. *)
let governed ~budget ?max_length ?pair_limit ?(samples = 16) ?(seed = 7) inst regex =
  let scores = exact ~budget ?max_length ?pair_limit inst regex in
  match Budget.exhausted budget with
  | None -> { Budget.value = (scores, `Exact); completeness = Budget.Complete }
  | Some _ ->
      let retry = Budget.similar budget in
      let scores = approximate ~budget:retry ?max_length ~samples ~seed inst regex in
      { Budget.value = (scores, `Approximate); completeness = Budget.completeness retry }
