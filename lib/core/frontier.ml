(* Batched multi-source BFS over the lazy deterministic product.

   The Section 4 algorithms are inherently multi-source: RPQ pairs,
   source-node extraction and bc_r all run one breadth-first search of
   the product per graph node.  Each of those searches re-walks the same
   product states, so the per-source cost is dominated by traversal
   bookkeeping (a hash lookup per visited state per source), not by
   expansion — expansion is memoized in the product's CSR after the
   first source reaches a state.

   This engine amortizes the traversal itself, MS-BFS style: up to
   [word_bits] sources run in one level-synchronous pass, with a single
   machine word of visited bits per product state (bit s = source slot s
   has reached the state).  A frontier state is then expanded and
   scanned once per level for the whole batch, and discovering a
   successor for every live source is one [lor].  Per-slot levels equal
   the per-source BFS distances exactly, so any per-source answer that
   is a function of (state, distance) pairs — reachable sets, pair
   relations, shortest distances — is bit-identical to the one-source-
   at-a-time loop it replaces.

   Levels can also expand bottom-up (Beamer's direction-optimizing
   scheme): instead of pushing the frontier's out-moves, scan the states
   some slot has not visited yet and pull from their in-moves, stopping
   early once a state has gathered every batch bit.  The product is
   lazy, so the reverse adjacency is not free the way the snapshot's
   in-CSR is: a reverse CSR over the *committed* moves is (re)built on
   demand and stamped with {!Product.moves_total}; the rebuild cost is
   charged to the switch heuristic, which keeps bottom-up steps to the
   dense late levels where they pay.  Correctness does not depend on the
   heuristic: a bottom-up level first expands the current frontier, so
   every discoverable state is materialized and every discovering move
   committed before the pull scan runs. *)

module B = Gqkg_util.Bitset

let word_bits = B.bits_per_word

type direction = [ `Auto | `Top_down | `Bottom_up ]

(* Process-wide usage counters (for [gqkg explain] and the bench): how
   often the batched engine ran and which way each level expanded. *)
let batches_counter = Atomic.make 0
let top_down_counter = Atomic.make 0
let bottom_up_counter = Atomic.make 0
let batches_total () = Atomic.get batches_counter
let top_down_levels_total () = Atomic.get top_down_counter
let bottom_up_levels_total () = Atomic.get bottom_up_counter

type t = {
  product : Product.t;
  (* Reverse CSR over the product moves committed as of [rev_moves]
     (offsets into [rev_dat], predecessors of state u at
     rev_off.(u) .. rev_off.(u+1) - 1); rebuilt when the stamp or the
     state count has moved on. *)
  mutable rev_off : int array;
  mutable rev_dat : int array;
  mutable rev_moves : int;
  (* Per-state scratch words reused across batches (reset by a cheap
     [Array.fill], not reallocated): visited bits, and the discovery
     bits of the current and in-construction frontier. *)
  mutable visited : int array;
  mutable cur_word : int array;
  mutable next_word : int array;
  (* Accepting-state memo ('\000' unknown, '\001' yes, '\002' no):
     consulted once per frontier membership, computed once per state. *)
  mutable accept : Bytes.t;
}

let create product =
  {
    product;
    rev_off = [||];
    rev_dat = [||];
    rev_moves = -1;
    visited = [||];
    cur_word = [||];
    next_word = [||];
    accept = Bytes.empty;
  }

let product t = t.product

let is_accepting t id =
  match Bytes.unsafe_get t.accept id with
  | '\001' -> true
  | '\002' -> false
  | _ ->
      let r = Product.is_accepting t.product id in
      Bytes.unsafe_set t.accept id (if r then '\001' else '\002');
      r

(* Counting-sort the committed CSR rows into predecessor lists.  Only
   expanded states contribute (their rows are exactly the committed
   moves), so the result covers every edge a bottom-up scan can pull
   through once the frontier itself has been expanded. *)
let rebuild_rev t =
  let p = t.product in
  let ns = Product.num_states p in
  let off = Array.make (ns + 1) 0 in
  for id = 0 to ns - 1 do
    if Product.is_expanded p id then
      for m = 0 to Product.degree p id - 1 do
        let s = Product.move_succ p id m in
        off.(s + 1) <- off.(s + 1) + 1
      done
  done;
  for u = 1 to ns do
    off.(u) <- off.(u) + off.(u - 1)
  done;
  let dat = Array.make (max 1 off.(ns)) 0 in
  let cursor = Array.copy off in
  for id = 0 to ns - 1 do
    if Product.is_expanded p id then
      for m = 0 to Product.degree p id - 1 do
        let s = Product.move_succ p id m in
        dat.(cursor.(s)) <- id;
        cursor.(s) <- cursor.(s) + 1
      done
  done;
  t.rev_off <- off;
  t.rev_dat <- dat;
  t.rev_moves <- Product.moves_total p

(* Growable int vector for the per-level frontier lists. *)
type ivec = { mutable a : int array; mutable n : int }

let ivec () = { a = Array.make 64 0; n = 0 }

let ipush v x =
  if v.n = Array.length v.a then begin
    let b = Array.make (2 * v.n) 0 in
    Array.blit v.a 0 b 0 v.n;
    v.a <- b
  end;
  v.a.(v.n) <- x;
  v.n <- v.n + 1

let grow t n =
  let cap = Array.length t.visited in
  if n > cap then begin
    let c = max n (max 16 (2 * cap)) in
    let extend a =
      let b = Array.make c 0 in
      Array.blit a 0 b 0 cap;
      b
    in
    t.visited <- extend t.visited;
    t.cur_word <- extend t.cur_word;
    t.next_word <- extend t.next_word;
    let acc = Bytes.make c '\000' in
    Bytes.blit t.accept 0 acc 0 cap;
    t.accept <- acc
  end

let run_batch ?(direction = `Auto) ?max_length ?level t ~sources =
  let p = t.product in
  let k = Array.length sources in
  if k > word_bits then invalid_arg "Frontier.run_batch: more sources than word bits";
  if Option.fold ~none:false ~some:(fun m -> m < 0) max_length then
    invalid_arg "Frontier.run_batch: negative max_length";
  if k > 0 then begin
    Atomic.incr batches_counter;
    let full = if k = word_bits then -1 else (1 lsl k) - 1 in
    (* Per-state scratch words, persisted in [t] and grown as the
       product interns states: [visited] accumulates across levels;
       [cur_word]/[next_word] hold the discovery bits of the current and
       the in-construction level and are zeroed outside their frontier.
       A batch starts by wiping the prefix a previous batch may have
       touched — a memset, not a reallocation.  (The accepting memo is
       monotone and survives across batches.) *)
    grow t (Product.num_states p);
    let touched = Array.length t.visited in
    Array.fill t.visited 0 touched 0;
    Array.fill t.cur_word 0 touched 0;
    Array.fill t.next_word 0 touched 0;
    let visited = ref t.visited in
    let cur_word = ref t.cur_word in
    let next_word = ref t.next_word in
    let grow n =
      grow t n;
      visited := t.visited;
      cur_word := t.cur_word;
      next_word := t.next_word
    in
    (* States whose visited word covers the whole batch — the bottom-up
       scan's "done" set, kept as a count for the cost estimate. *)
    let covered = ref 0 in
    let mark id bits =
      let v = !visited in
      let fresh = bits land lnot v.(id) land full in
      if fresh <> 0 then begin
        let now = v.(id) lor fresh in
        v.(id) <- now;
        if now = full then incr covered
      end;
      fresh
    in
    let cur = ref (ivec ()) and next = ref (ivec ()) in
    for s = 0 to k - 1 do
      match Product.start_state p sources.(s) with
      | None -> ()
      | Some s0 ->
          grow (Product.num_states p);
          let fresh = mark s0 (1 lsl s) in
          if fresh <> 0 then begin
            if !cur_word.(s0) = 0 then ipush !cur s0;
            !cur_word.(s0) <- !cur_word.(s0) lor fresh
          end
    done;
    let dist = ref 0 in
    let stop = ref (!cur.n = 0) in
    while not !stop do
      (* Emit the level in discovery order — deterministic for a fixed
         direction policy, but *not* sorted: consumers that need a
         canonical order aggregate into order-insensitive structures
         (bit sets, per-slot arrays) instead, and a sort here measurably
         dominated the whole pass on pair workloads. *)
      (match level with
      | None -> ()
      | Some f ->
          let states = Array.sub !cur.a 0 !cur.n in
          let words = Array.map (fun id -> !cur_word.(id)) states in
          f ~dist:!dist ~states ~words);
      (* Budget check site: once per level for the whole batch.  Levels
         already emitted (and the visited words accumulated so far) stay
         valid — stopping early only shrinks downstream answer sets. *)
      let budget_stop =
        let b = Product.budget p in
        if not (Gqkg_util.Budget.is_unlimited b) then begin
          Gqkg_util.Budget.charge_steps b !cur.n;
          Gqkg_util.Budget.note_states b (Product.num_states p)
        end;
        Gqkg_util.Budget.check b
      in
      let expand =
        (not budget_stop) && match max_length with Some m -> !dist < m | None -> true
      in
      if not expand then stop := true
      else begin
        let ns = Product.num_states p in
        grow ns;
        let moves = Product.moves_total p in
        let stale = t.rev_moves <> moves || Array.length t.rev_off < ns + 1 in
        let bottom_up =
          match direction with
          | `Top_down -> false
          | `Bottom_up -> true
          | `Auto ->
              (* Push cost estimate: frontier size times the average
                 committed out-degree (exact degrees would force
                 expansion before the direction is even chosen).  Pull
                 cost: one averaged in-degree per not-yet-covered state,
                 plus the reverse-CSR rebuild when stale.  Dense
                 underlying graphs (high median degree) profit from
                 pulling earlier because the early-exit saves more.
                 With every interned state covered there is nothing
                 known to pull into (a one-seed batch at level 0): the
                 estimate would read 0, so push. *)
              let avg = if ns > 0 then max 1 (moves / ns) else 1 in
              let td_cost = !cur.n * avg in
              let bu_cost = ((ns - !covered) * avg) + (if stale then moves else 0) in
              let snap = Product.instance p in
              let alpha = if snap.Gqkg_graph.Snapshot.stats.Gqkg_graph.Snapshot.degree_p50 >= 8 then 2 else 4 in
              !covered < ns && td_cost > alpha * bu_cost
        in
        !next.n <- 0;
        if bottom_up then begin
          Atomic.incr bottom_up_counter;
          (* Expand the frontier before the pull scan: bottom-up can
             only discover through moves the reverse CSR has seen. *)
          for i = 0 to !cur.n - 1 do
            ignore (Product.degree p !cur.a.(i))
          done;
          let ns = Product.num_states p in
          grow ns;
          if t.rev_moves <> Product.moves_total p || Array.length t.rev_off < ns + 1 then
            rebuild_rev t;
          let rev_off = t.rev_off and rev_dat = t.rev_dat in
          let v = !visited and cw = !cur_word and nw = !next_word in
          for u = 0 to ns - 1 do
            let vis = v.(u) in
            if vis land full <> full then begin
              let gain = ref 0 in
              let i = ref rev_off.(u) in
              let fin = rev_off.(u + 1) in
              while !i < fin && (!gain lor vis) land full <> full do
                gain := !gain lor cw.(rev_dat.(!i));
                incr i
              done;
              let fresh = !gain land lnot vis land full in
              if fresh <> 0 then begin
                let now = vis lor fresh in
                v.(u) <- now;
                if now = full then incr covered;
                nw.(u) <- fresh;
                ipush !next u
              end
            end
          done
        end
        else begin
          Atomic.incr top_down_counter;
          for i = 0 to !cur.n - 1 do
            let id = !cur.a.(i) in
            let w = !cur_word.(id) in
            (* Manual CSR walk (not [iter_successors]): no closure call
               per move on the hottest loop in the engine.  [degree] may
               expand [id] and intern fresh successors, so grow (and
               re-read) the word arrays after it. *)
            let deg = Product.degree p id in
            grow (Product.num_states p);
            let v = !visited and nw = !next_word in
            for m = 0 to deg - 1 do
              let succ = Product.move_succ p id m in
              let fresh = w land lnot v.(succ) land full in
              if fresh <> 0 then begin
                let now = v.(succ) lor fresh in
                v.(succ) <- now;
                if now = full then incr covered;
                if nw.(succ) = 0 then ipush !next succ;
                nw.(succ) <- nw.(succ) lor fresh
              end
            done
          done
        end;
        for i = 0 to !cur.n - 1 do
          !cur_word.(!cur.a.(i)) <- 0
        done;
        let tmp = !cur in
        cur := !next;
        next := tmp;
        let tw = !cur_word in
        cur_word := !next_word;
        next_word := tw;
        (* Keep [t]'s fields in step with the swap, or the next [grow]
           would reload the pre-swap roles. *)
        t.cur_word <- !cur_word;
        t.next_word <- !next_word;
        incr dist;
        if !cur.n = 0 then stop := true
      end
    done
  end

let reachable ?direction ?max_length t ~sources =
  let p = t.product in
  let nn = (Product.instance p).Gqkg_graph.Snapshot.num_nodes in
  let n = Array.length sources in
  let results = Array.make n [] in
  (* Per-node slot words: reach.(v) bit s set iff slot s reaches an
     accepting state at node v.  Accepting states at the same node
     collapse here, so no per-slot set structure is needed. *)
  let reach = Array.make (max 1 nn) 0 in
  let off = ref 0 in
  while !off < n do
    let k = min word_bits (n - !off) in
    let batch = Array.sub sources !off k in
    run_batch ?direction ?max_length t ~sources:batch;
    (* Reachability only needs the final visited words, not the level
       structure: one scan over the states the batch touched.  [visited]
       is valid until the next [run_batch] on this context. *)
    let visited = t.visited in
    let ns = min (Array.length visited) (Product.num_states p) in
    for id = 0 to ns - 1 do
      let w = visited.(id) in
      if w <> 0 && is_accepting t id then begin
        let v = Product.node_of p id in
        reach.(v) <- reach.(v) lor w
      end
    done;
    (* Walk nodes descending, consing onto per-slot heads: each result
       list comes out sorted ascending with no intermediate set. *)
    let heads = Array.make k [] in
    for v = nn - 1 downto 0 do
      let w = reach.(v) in
      if w <> 0 then begin
        B.word_iter w (fun s -> heads.(s) <- v :: heads.(s));
        reach.(v) <- 0
      end
    done;
    Array.blit heads 0 results !off k;
    off := !off + k
  done;
  results
