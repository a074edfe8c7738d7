(* Randomized approximation of Count(G, r, k) — Section 4.1's FPRAS.

   Count is SpanL-complete [Alvarez & Jenner 1993], yet Arenas,
   Croquevielle, Jayaram and Riveros (PODS 2019) showed every SpanL
   problem admits an FPRAS.  We implement the self-reducibility structure
   of their algorithm as a level-by-level Karp–Luby union estimator over
   the NON-determinized product (see DESIGN.md §5):

   A configuration is a pair (node, NFA state); L_i(c) is the set of
   paths of length i having a run from some start configuration to c.
   The sets obey L_{i+1}(c') = ⋃ over product transitions (c --e--> c')
   of L_i(c)·e — a union of easily-sampled sets, the classic Karp–Luby
   setting.  For each level and configuration we keep (a) a cardinality
   estimate and (b) a pool of near-uniform sample paths; both are pushed
   one level forward by proportional sampling with multiplicity
   correction, where the multiplicity of a candidate path is computed by
   re-running its prefix through the NFA (the membership oracle).
   Acceptance needs no extra union step: accepted paths of length k are
   exactly ⋃_v L_k((v, accept)), and these sets are disjoint because the
   configuration fixes the end node.

   The per-configuration pool size is Θ(1/ε²); with the constants below
   the estimator lands within ε of the exact count with large probability
   on the experiment suite (checked against {!Count} in tests, E4). *)

open Gqkg_graph
open Gqkg_automata
open Gqkg_util

type config = int (* node * num_states + nfa_state *)

type level_entry = { estimate : float; pool : Path.t array }

type t = {
  inst : Snapshot.t;
  nfa : Nfa.t;
  pool_size : int;
  rng : Splitmix.t;
  budget : Budget.t;
}

let create ?(budget = Budget.unlimited) ?(seed = 0x5eed) inst regex ~epsilon =
  if epsilon <= 0.0 || epsilon >= 1.0 then invalid_arg "Approx_count.create: epsilon in (0,1)";
  let nfa = Nfa.of_regex regex in
  let pool_size = max 16 (int_of_float (ceil (8.0 /. (epsilon *. epsilon)))) in
  { inst; nfa; pool_size; rng = Splitmix.create seed; budget }

let config t ~node ~state = (node * Nfa.num_states t.nfa) + state
let config_node t c = c / Nfa.num_states t.nfa
let config_state t c = c mod Nfa.num_states t.nfa

(* Single-state closure at a node: all NFA states reachable from [q] via
   ε and node-checks the node satisfies. *)
let state_closure t ~node q = Nfa.closure t.nfa ~node_sat:(Snapshot.node_atom t.inst node) [| q |]

(* Transitions of a single configuration: consume one edge (either
   direction) and close at the destination. Returns (edge, dest-config)
   pairs, deduplicated. *)
let config_transitions t c =
  let v = config_node t c and q = config_state t c in
  let fwd, bwd = Nfa.edge_moves t.nfa [| q |] in
  let out = Hashtbl.create 8 in
  let step moves e w =
    let edge_sat = Snapshot.edge_atom t.inst e in
    List.iter
      (fun (test, q') ->
        if Regex.eval_test edge_sat test then
          Array.iter
            (fun q'' -> Hashtbl.replace out (e, config t ~node:w ~state:q'') ())
            (state_closure t ~node:w q'))
      moves
  in
  if fwd <> [] then Snapshot.iter_out t.inst v (step fwd);
  if bwd <> [] then Snapshot.iter_in t.inst v (step bwd);
  Hashtbl.fold (fun key () acc -> key :: acc) out [] |> List.sort compare

(* Subset simulation of a concrete path: the closed set of NFA states
   after consuming it. Used as the membership oracle L_i(c) ∋ p. *)
let simulate t path =
  let k = Path.length path in
  let current = ref (state_closure t ~node:(Path.node path 0) (Nfa.start t.nfa)) in
  for i = 0 to k - 1 do
    let e = Path.edge path i in
    let v = Path.node path i and w = Path.node path (i + 1) in
    let s, d = (Snapshot.endpoints t.inst) e in
    let edge_sat = Snapshot.edge_atom t.inst e in
    let fwd, bwd = Nfa.edge_moves t.nfa !current in
    let targets = Hashtbl.create 8 in
    let add moves =
      List.iter
        (fun (test, q') -> if Regex.eval_test edge_sat test then Hashtbl.replace targets q' ())
        moves
    in
    if s = v && d = w then add fwd;
    if s = w && d = v then add bwd;
    let raw = Hashtbl.fold (fun q () acc -> q :: acc) targets [] |> List.sort compare in
    current := Nfa.closure t.nfa ~node_sat:(Snapshot.node_atom t.inst w) (Array.of_list raw)
  done;
  !current

(* Does NFA state [q], at the source node of this step, transition into
   [q'] when consuming [e] towards [w] (closure included)? *)
let step_reaches t ~q ~e ~v ~w ~q' =
  let fwd, bwd = Nfa.edge_moves t.nfa [| q |] in
  let s, d = (Snapshot.endpoints t.inst) e in
  let edge_sat = Snapshot.edge_atom t.inst e in
  let check moves =
    List.exists
      (fun (test, q'') ->
        Regex.eval_test edge_sat test
        && Array.exists (fun q3 -> q3 = q') (state_closure t ~node:w q''))
      moves
  in
  (s = v && d = w && check fwd) || (s = w && d = v && check bwd)

(* The multiplicity of candidate path p·e ending in config (w, q'):
   the number of union branches producing it, i.e. the number of NFA
   states q in the subset-simulation of p that step into q' via e. *)
let multiplicity t ~prefix ~e ~q' =
  let v = Path.end_node prefix in
  let sim = simulate t prefix in
  let _, w =
    let s, d = (Snapshot.endpoints t.inst) e in
    if s = v then (s, d) else (d, s)
  in
  (* For a self-loop both orientations coincide; count states once. *)
  Array.fold_left (fun acc q -> if step_reaches t ~q ~e ~v ~w ~q' then acc + 1 else acc) 0 sim

let estimate t ~length =
  let num_nodes = t.inst.Snapshot.num_nodes in
  (* Level 0: one trivial path per start configuration. *)
  let level = Hashtbl.create 256 in
  for v = 0 to num_nodes - 1 do
    Array.iter
      (fun q ->
        Hashtbl.replace level (config t ~node:v ~state:q) { estimate = 1.0; pool = [| Path.trivial v |] })
      (state_closure t ~node:v (Nfa.start t.nfa))
  done;
  let current = ref level in
  (* Budget check site: once per level.  An interrupted run holds
     estimates for paths SHORTER than [length] — not a sound partial
     answer for length [length] — so a trip forfeits the whole estimate
     and answers 0.0 (the only universally sound undercount). *)
  let tripped = ref false in
  let i = ref 1 in
  while !i <= length && not !tripped do
    if Budget.check t.budget then tripped := true
    else begin
    (* Group union branches by destination configuration. *)
    let branches : (config, (config * int) list ref) Hashtbl.t = Hashtbl.create 256 in
    Hashtbl.iter
      (fun c entry ->
        if entry.estimate > 0.0 then
          List.iter
            (fun (e, c') ->
              match Hashtbl.find_opt branches c' with
              | Some acc -> acc := (c, e) :: !acc
              | None -> Hashtbl.add branches c' (ref [ (c, e) ]))
            (config_transitions t c))
      !current;
    let next = Hashtbl.create 256 in
    Hashtbl.iter
      (fun c' parts ->
        let parts = Array.of_list !parts in
        let weights =
          Array.map (fun (c, _e) -> (Hashtbl.find !current c).estimate) parts
        in
        let total = Array.fold_left ( +. ) 0.0 weights in
        if total > 0.0 then begin
          let q' = config_state t c' in
          let inv_sum = ref 0.0 in
          let pool = ref [] and pool_count = ref 0 in
          let draws = t.pool_size in
          for _ = 1 to draws do
            let b = Alias.sample_weights weights t.rng in
            let c, e = parts.(b) in
            let entry = Hashtbl.find !current c in
            let prefix = entry.pool.(Splitmix.int t.rng (Array.length entry.pool)) in
            let mult = multiplicity t ~prefix ~e ~q':q' in
            (* mult >= 1 always: branch b itself witnesses membership. *)
            let mult = max mult 1 in
            inv_sum := !inv_sum +. (1.0 /. float_of_int mult);
            (* Rejection with probability 1/mult makes the pool uniform
               over the union rather than over the multiset of branches. *)
            if Splitmix.int t.rng mult = 0 then begin
              let w =
                let s, d = (Snapshot.endpoints t.inst) e in
                let v = Path.end_node prefix in
                if s = v then d else s
              in
              pool := Path.snoc prefix ~edge:e ~dst:w :: !pool;
              incr pool_count
            end
          done;
          let estimate = total *. !inv_sum /. float_of_int draws in
          if estimate > 0.0 && !pool_count > 0 then
            Hashtbl.replace next c' { estimate; pool = Array.of_list !pool }
        end)
      branches;
    current := next;
    incr i
    end
  done;
  if !tripped then 0.0
  else begin
    (* Accepted paths of length k: configurations whose state is accept;
       disjoint across end nodes, so plain summation. *)
    let accept = Nfa.accept t.nfa in
    Hashtbl.fold
      (fun c entry acc -> if config_state t c = accept then acc +. entry.estimate else acc)
      !current 0.0
  end

(* One-shot estimation of Count(G, r, k) within relative error ~epsilon. *)
let count ?budget ?(seed = 0x5eed) inst regex ~length ~epsilon =
  (* Statically-empty queries need no estimator run: the exact answer is 0. *)
  if Gqkg_analysis.Analyze.is_empty (Gqkg_analysis.Analyze.plan inst regex) then 0.0
  else estimate (create ?budget ~seed inst regex ~epsilon) ~length
