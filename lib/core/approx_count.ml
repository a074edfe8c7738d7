(* Randomized approximation of Count(G, r, k) — Section 4.1's FPRAS.

   Count is SpanL-complete [Alvarez & Jenner 1993], yet Arenas,
   Croquevielle, Jayaram and Riveros (PODS 2019) showed every SpanL
   problem admits an FPRAS.  We implement the self-reducibility structure
   of their algorithm as a level-by-level Karp–Luby union estimator over
   the NON-determinized product (see DESIGN.md §5), run on a private
   {!Product} of the Thompson NFA:

   A configuration is a pair (node, NFA state), interned as the unclosed
   product state (node, {q}) ({!Product.config_state}): its moves are
   exactly q's own edge moves, each closed at the destination, so the
   configurations one step on are the members of its product successors.
   L_i(c) is the set of paths of length i having a run from some start
   configuration to c.  The sets obey L_{i+1}(c') = ⋃ over transitions
   (c --e--> c') of L_i(c)·e — a union of easily-sampled sets, the
   classic Karp–Luby setting.  For each level and configuration we keep
   (a) a cardinality estimate and (b) a pool of near-uniform samples;
   both are pushed one level forward by proportional sampling with
   multiplicity correction.

   A sample is the deterministic product state its path reaches (node,
   closed set S); nothing asks for the path itself.  Its successor over
   e is one row lookup, and the multiplicity of p·e at (w, q') — the
   number of union branches producing it — is the number of q in S whose
   configuration steps over e into a set holding q'.  Acceptance needs
   no extra union step: accepted paths of length k are exactly
   ⋃_v L_k((v, accept)), and these sets are disjoint because the
   configuration fixes the end node.

   The product must stay private: a plan-cached one would be read by
   other kernels that expect closed states, and a minimized automaton
   would give every path one run, turning the estimator into a second
   copy of {!Count}'s DP.

   The per-configuration pool size is Θ(1/ε²); with the constants below
   the estimator lands within ε of the exact count with large probability
   on the experiment suite (checked against {!Count} in tests, E4). *)

open Gqkg_util

type level_entry = { estimate : float; pool : int array (* sample states *) }

type t = { product : Product.t; pool_size : int; rng : Splitmix.t }

let create ?(budget = Budget.unlimited) ?(seed = 0x5eed) inst regex ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then invalid_arg "Approx_count.create: epsilon in (0,1)";
  let pool_size = max 16 (int_of_float (ceil (8.0 /. (epsilon *. epsilon)))) in
  { product = Product.create ~budget inst regex; pool_size; rng = Splitmix.create seed }

let members p id = (Product.state p id).Product.nfa_states

(* The successor of state [s] over edge [e], or -1: a row holds at most
   one move per edge, in ascending edge order. *)
let step p s e =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let e' = Product.move_edge p s mid in
      if e' = e then Product.move_succ p s mid else if e' < e then go (mid + 1) hi else go lo mid
  in
  go 0 (Product.degree p s)

(* The multiplicity of p·e at (w, q'), where [s] is the state p reaches:
   the members of [s] whose configuration steps over [e] into [q']. *)
let multiplicity p s e q' =
  let v = Product.node_of p s in
  Array.fold_left
    (fun acc q ->
      let succ = step p (Product.config_state p ~node:v q) e in
      if succ >= 0 && Array.exists (fun q'' -> q'' = q') (members p succ) then acc + 1 else acc)
    0 (members p s)

let estimate t ~length =
  let p = t.product in
  let budget = Product.budget p in
  let inst = Product.instance p in
  let num_edges = inst.Gqkg_graph.Snapshot.num_edges in
  (* Level 0: the trivial path at each node, in every configuration of its
     start closure. *)
  let level = Hashtbl.create 256 in
  for v = 0 to inst.Gqkg_graph.Snapshot.num_nodes - 1 do
    Option.iter
      (fun s ->
        Array.iter
          (fun q ->
            Hashtbl.replace level (Product.config_state p ~node:v q) { estimate = 1.0; pool = [| s |] })
          (members p s))
      (Product.start_state p v)
  done;
  let current = ref level in
  (* Budget check site: once per level, after noting the product's
     interned states, so [max_states] governs the run as it does
     {!Product.reach}.  An interrupted run holds
     estimates for paths SHORTER than [length] — not a sound partial
     answer for length [length] — so a trip forfeits the whole estimate
     and answers 0.0 (the only universally sound undercount). *)
  let tripped = ref false in
  let i = ref 1 in
  while !i <= length && not !tripped do
    Budget.note_states budget (Product.num_states p);
    if Budget.check budget then tripped := true
    else begin
      (* Group union branches by destination configuration. *)
      let branches = Hashtbl.create 256 in
      Hashtbl.iter
        (fun c entry ->
          Product.iter_successors p c (fun e succ ->
              let w = Product.node_of p succ in
              Array.iter
                (fun q' ->
                  let c' = Product.config_state p ~node:w q' in
                  match Hashtbl.find_opt branches c' with
                  | Some acc -> acc := (entry, e) :: !acc
                  | None -> Hashtbl.add branches c' (ref [ (entry, e) ]))
                (members p succ)))
        !current;
      let next = Hashtbl.create 256 in
      Hashtbl.iter
        (fun c' parts ->
          let parts = Array.of_list !parts in
          let weights = Array.map (fun (entry, _) -> entry.estimate) parts in
          let total = Array.fold_left ( +. ) 0.0 weights in
          let branch = Alias.create weights in
          let q' = (members p c').(0) in
          let inv_sum = ref 0.0 and pool = ref [] in
          (* (sample state, edge) -> multiplicity at c': pools repeat
             states, so most draws are answered here. *)
          let memo = Hashtbl.create 64 in
          for _ = 1 to t.pool_size do
            let entry, e = parts.(Alias.sample branch t.rng) in
            let s = entry.pool.(Splitmix.int t.rng (Array.length entry.pool)) in
            (* At least 1: the drawn branch itself produces p·e. *)
            let mult =
              let key = (s * num_edges) + e in
              match Hashtbl.find_opt memo key with
              | Some m -> m
              | None ->
                  let m = multiplicity p s e q' in
                  Hashtbl.add memo key m;
                  m
            in
            inv_sum := !inv_sum +. (1.0 /. float_of_int mult);
            (* Rejection with probability 1/mult makes the pool uniform
               over the union rather than over the multiset of branches. *)
            if Splitmix.int t.rng mult = 0 then pool := step p s e :: !pool
          done;
          if !pool <> [] then
            Hashtbl.replace next c'
              {
                estimate = total *. !inv_sum /. float_of_int t.pool_size;
                pool = Array.of_list !pool;
              })
        branches;
      current := next;
      incr i
    end
  done;
  if !tripped then 0.0
  else
    (* Accepted paths of length k: configurations whose state is accept;
       disjoint across end nodes, so plain summation. *)
    Hashtbl.fold
      (fun c entry acc -> if Product.is_accepting p c then acc +. entry.estimate else acc)
      !current 0.0

(* One-shot estimation of Count(G, r, k) within relative error ~epsilon. *)
let count ?budget ?(seed = 0x5eed) inst regex ~length ~epsilon =
  (* Statically-empty queries need no estimator run: the exact answer is 0. *)
  if Gqkg_analysis.Analyze.is_empty (Gqkg_analysis.Analyze.plan inst regex) then 0.0
  else estimate (create ?budget ~seed inst regex ~epsilon) ~length
