(* The problem Count of Section 4.1: given L, r and k, compute the number
   of paths p ∈ [[r]]_L with |p| = k.

   Count is SpanL-complete in general [Alvarez & Jenner 1993], which here
   surfaces as the worst-case exponential size of the determinized
   product; on real queries the product stays small and the dynamic
   program below is exact and fast.  It is the baseline the FPRAS of
   {!Approx_count} is compared against (experiment E4), and its tables
   are reused by the uniform generator and the pruned enumerator. *)

type table = {
  product : Product.t;
  depth : int;
  state_ids : int array; (* all states reachable within depth *)
  index_of : int array; (* state id -> dense index, -1 = beyond horizon *)
  suffix : float array array; (* suffix.(j).(i): # accepting suffixes of length j from state i *)
}

(* Number of accepting path-suffixes of length exactly j starting in each
   product state, for j = 0..depth.  Floats: path counts explode
   combinatorially and the consumers (sampler, estimator comparisons)
   need ratios, not exact big integers; an exact int variant is exposed
   separately for small counts. *)
let build product ~depth =
  let state_ids = Product.reach product ~depth in
  let n = Array.length state_ids in
  (* Expand every table state up front so all successor ids — including
     those just beyond the materialized horizon — are interned before the
     dense index is sized; out-of-horizon successors keep index -1. *)
  Array.iter (fun id -> ignore (Product.degree product id)) state_ids;
  let index_of = Array.make (max 1 (Product.num_states product)) (-1) in
  Array.iteri (fun i id -> index_of.(id) <- i) state_ids;
  (* Flatten each state's successors to dense indices once, so the DP
     inner loop is a plain array walk (-1 = beyond the horizon). *)
  let deg = Array.map (fun id -> Product.degree product id) state_ids in
  let off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + deg.(i)
  done;
  let dense_succ = Array.make (max 1 off.(n)) (-1) in
  Array.iteri
    (fun i id ->
      for m = 0 to deg.(i) - 1 do
        dense_succ.(off.(i) + m) <- index_of.(Product.move_succ product id m)
      done)
    state_ids;
  let suffix = Array.init (depth + 1) (fun _ -> Array.make n 0.0) in
  Array.iteri
    (fun i id -> if Product.is_accepting product id then suffix.(0).(i) <- 1.0)
    state_ids;
  (* Budget check site: once per DP depth.  Stopping leaves the deeper
     suffix rows at 0.0 — an undercount, so every consumer (counts,
     pruned enumeration, sampling weights) only shrinks. *)
  let budget = Product.budget product in
  let jr = ref 1 in
  while !jr <= depth && not (Gqkg_util.Budget.check budget) do
    let j = !jr in
    let prev = suffix.(j - 1) and cur = suffix.(j) in
    for i = 0 to n - 1 do
      let total = ref 0.0 in
      for m = off.(i) to off.(i + 1) - 1 do
        let si = dense_succ.(m) in
        (* si < 0: beyond the materialized horizon; counted as 0. *)
        if si >= 0 then total := !total +. prev.(si)
      done;
      cur.(i) <- !total
    done;
    incr jr
  done;
  { product; depth; state_ids; index_of; suffix }

let suffix_count t ~state ~length =
  if length < 0 || length > t.depth then invalid_arg "Count.suffix_count: length out of range";
  if state < 0 || state >= Array.length t.index_of then 0.0
  else begin
    let i = t.index_of.(state) in
    if i < 0 then 0.0 else t.suffix.(length).(i)
  end

(* Count(G, r, k): total over all start nodes. *)
let count_at t ~length =
  if length < 0 || length > t.depth then invalid_arg "Count.count_at: length out of range";
  let total = ref 0.0 in
  for node = 0 to (Product.instance t.product).Gqkg_graph.Snapshot.num_nodes - 1 do
    match Product.start_state t.product node with
    | Some s0 -> total := !total +. suffix_count t ~state:s0 ~length
    | None -> ()
  done;
  !total

(* Counts restricted to paths from a given start node. *)
let count_from t ~source ~length =
  match Product.start_state t.product source with
  | Some s0 -> suffix_count t ~state:s0 ~length
  | None -> 0.0

(* One-shot: Count(G, r, k). *)
let count ?budget inst regex ~length =
  match Planner.prepare ?budget inst regex with
  | Planner.Empty -> 0.0
  | Planner.Ready product ->
      let t = build product ~depth:length in
      count_at t ~length

(* Counts for every length 0..k in one preprocessing pass. *)
let count_all ?budget inst regex ~max_length =
  match Planner.prepare ?budget inst regex with
  | Planner.Empty -> Array.make (max_length + 1) 0.0
  | Planner.Ready product ->
      let t = build product ~depth:max_length in
      Array.init (max_length + 1) (fun k -> count_at t ~length:k)

(* Count of paths from [source] to [target] of exactly [length] — the
   pairwise form the paper contrasts with plain walk counting in
   Section 4.2.  Forward DP over the product from the source's start
   state, accepting only at the target node. *)
let count_between_in product ~source ~target ~length =
  match Product.start_state product source with
  | None -> 0.0
  | Some s0 ->
      let current = Hashtbl.create 16 in
      Hashtbl.replace current s0 1.0;
      let current = ref current in
      (* Budget check site: once per DP step.  An interrupted DP holds
         weights of paths shorter than [length] — NOT a sound partial
         count for length [length] — so a trip here answers 0.0 (the
         only universally sound undercount). *)
      let budget = Product.budget product in
      let tripped = ref false in
      let step = ref 1 in
      while !step <= length && not !tripped do
        if Gqkg_util.Budget.check budget then tripped := true
        else begin
          let next = Hashtbl.create 16 in
          Hashtbl.iter
            (fun state weight ->
              Product.iter_successors product state (fun _e succ ->
                  Hashtbl.replace next succ
                    (weight +. Option.value (Hashtbl.find_opt next succ) ~default:0.0)))
            !current;
          current := next;
          incr step
        end
      done;
      if !tripped then 0.0
      else
      Hashtbl.fold
        (fun state weight acc ->
          if Product.is_accepting product state && Product.node_of product state = target then
            acc +. weight
          else acc)
        !current 0.0

let count_between ?budget inst regex ~source ~target ~length =
  if length < 0 then invalid_arg "Count.count_between: negative length";
  match Planner.prepare ?budget inst regex with
  | Planner.Empty -> 0.0
  | Planner.Ready product -> count_between_in product ~source ~target ~length
