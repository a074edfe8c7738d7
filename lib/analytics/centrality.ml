(* Centrality measures of Section 4.2: betweenness centrality bc(x)
   [Freeman 1977] computed with Brandes' algorithm, plus the PageRank,
   degree and closeness measures the section cites as typical
   analytics.  The regex-constrained bc_r lives in {!Regex_centrality}. *)

open Gqkg_graph

(* Brandes' algorithm.  For every source s, one BFS computes the shortest-
   path counts σ and the shortest-path DAG; a reverse sweep accumulates
   the pair dependencies δ onto intermediate nodes.  With [directed:false]
   edges are treated as symmetric and, following convention, each
   unordered pair is counted once (the directed sum is halved). *)
let betweenness ?(directed = true) inst =
  let n = inst.Snapshot.num_nodes in
  let out_off = inst.Snapshot.out_off and out_nbr = inst.Snapshot.out_nbr in
  let in_off = inst.Snapshot.in_off and in_nbr = inst.Snapshot.in_nbr in
  let bc = Array.make n 0.0 in
  let dist = Array.make n (-1) in
  let sigma = Array.make n 0.0 in
  let delta = Array.make n 0.0 in
  let preds = Array.make n [] in
  for s = 0 to n - 1 do
    Array.fill dist 0 n (-1);
    Array.fill sigma 0 n 0.0;
    Array.fill delta 0 n 0.0;
    Array.fill preds 0 n [];
    dist.(s) <- 0;
    sigma.(s) <- 1.0;
    let order = ref [] in
    let queue = Queue.create () in
    Queue.push s queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      order := v :: !order;
      (* The per-edge relaxation indexes the CSR arrays directly — no
         closure call and no neighbor-array allocation on this path. *)
      let dv1 = dist.(v) + 1 and sv = sigma.(v) in
      for i = out_off.(v) to out_off.(v + 1) - 1 do
        let w = out_nbr.(i) in
        if dist.(w) < 0 then begin
          dist.(w) <- dv1;
          Queue.push w queue
        end;
        if dist.(w) = dv1 then begin
          sigma.(w) <- sigma.(w) +. sv;
          preds.(w) <- v :: preds.(w)
        end
      done;
      if not directed then
        for i = in_off.(v) to in_off.(v + 1) - 1 do
          let w = in_nbr.(i) in
          if dist.(w) < 0 then begin
            dist.(w) <- dv1;
            Queue.push w queue
          end;
          if dist.(w) = dv1 then begin
            sigma.(w) <- sigma.(w) +. sv;
            preds.(w) <- v :: preds.(w)
          end
        done
    done;
    (* Reverse BFS order: accumulate dependencies. *)
    List.iter
      (fun w ->
        List.iter
          (fun v -> delta.(v) <- delta.(v) +. (sigma.(v) /. sigma.(w) *. (1.0 +. delta.(w))))
          preds.(w);
        if w <> s then bc.(w) <- bc.(w) +. delta.(w))
      !order
  done;
  if not directed then Array.map (fun x -> x /. 2.0) bc else bc

(* PageRank by power iteration with uniform teleportation; dangling mass
   is redistributed uniformly.  Converges when the L1 change drops below
   [tolerance]. *)
let pagerank ?(damping = 0.85) ?(tolerance = 1e-10) ?(max_iterations = 200) inst =
  let n = inst.Snapshot.num_nodes in
  if n = 0 then [||]
  else begin
    let rank = Array.make n (1.0 /. float_of_int n) in
    let out_off = inst.Snapshot.out_off and out_nbr = inst.Snapshot.out_nbr in
    let next = Array.make n 0.0 in
    let iteration = ref 0 and converged = ref false in
    while (not !converged) && !iteration < max_iterations do
      Array.fill next 0 n 0.0;
      let dangling = ref 0.0 in
      for v = 0 to n - 1 do
        let deg = out_off.(v + 1) - out_off.(v) in
        if deg = 0 then dangling := !dangling +. rank.(v)
        else begin
          let share = rank.(v) /. float_of_int deg in
          for i = out_off.(v) to out_off.(v + 1) - 1 do
            let w = out_nbr.(i) in
            next.(w) <- next.(w) +. share
          done
        end
      done;
      let teleport = ((1.0 -. damping) +. (damping *. !dangling)) /. float_of_int n in
      let change = ref 0.0 in
      for v = 0 to n - 1 do
        let updated = teleport +. (damping *. next.(v)) in
        change := !change +. Float.abs (updated -. rank.(v));
        rank.(v) <- updated
      done;
      incr iteration;
      if !change < tolerance then converged := true
    done;
    rank
  end

let degree ?(directed = true) inst =
  Array.init inst.Snapshot.num_nodes (fun v ->
      let out = Snapshot.out_degree inst v in
      if directed then out else out + Snapshot.in_degree inst v)

(* Closeness centrality: (reachable count - 1)² / (n-1) / total distance,
   the Wasserman–Faust generalization that handles disconnected graphs.
   Per-source reach counts and distance sums fold off the distance
   stream; integer sums make the scores independent of stream order. *)
let closeness ?(directed = false) inst =
  let n = inst.Snapshot.num_nodes in
  let reachable = Array.make n 0 and total = Array.make n 0 in
  Shortest_paths.iter_distances ~directed inst (fun ~source ~target:_ ~dist ->
      if dist > 0 then begin
        reachable.(source) <- reachable.(source) + 1;
        total.(source) <- total.(source) + dist
      end);
  Array.init n (fun v ->
      if total.(v) = 0 || n <= 1 then 0.0
      else begin
        let r = float_of_int reachable.(v) in
        r *. r /. (float_of_int (n - 1) *. float_of_int total.(v))
      end)

(* Rank nodes by score, descending, ties by index. *)
let ranking scores =
  let order = Array.init (Array.length scores) Fun.id in
  Array.sort
    (fun a b ->
      let c = Float.compare scores.(b) scores.(a) in
      if c <> 0 then c else Int.compare a b)
    order;
  order
