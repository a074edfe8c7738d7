(* Lazy deterministic product of a graph instance with the guarded NFA of
   a regular expression.

   A product state is a pair (graph node, set of NFA states) where the set
   is closed under ε and satisfied node-checks.  Because the second
   component is a *set*, the product is deterministic as a transducer of
   paths: a path n0 e1 n1 ... ek nk has exactly one run.  This is the key
   property behind the Section 4.1 algorithms — counting runs then *is*
   counting paths, sampling runs uniformly samples paths uniformly, and
   depth-first enumeration emits each path once.

   States are discovered on demand and given dense ids.  The kernel is
   built for throughput:

   - NFA state sets are packed [Bitset] words, and the distinct sets are
     themselves interned: a product state is a (node, set id) pair of
     ints, so state lookup hashes two ints instead of a word array, and
     everything that depends only on the set — directional move flags,
     acceptance, per-label seed sets — is computed once per distinct set
     rather than once per state.
   - Successor moves live in one flat CSR buffer ([succ_data], pairs of
     (edge, successor id) ints) addressed by per-state offset/length —
     no per-state arrays, no per-expansion hash tables.
   - The snapshot interns edge labels, so tests that only mention
     Label atoms are pre-evaluated per interned label at [create] time.
     For such label-pure moves the whole edge step is memoized: the
     successor of a state over an edge is a function of (source set,
     edge label, direction, destination node) only, so each set keeps an
     int-keyed memo from packed (node, label, direction) to successor
     id.  A memo hit skips seed construction, the ε/node-check closure
     and interning; even "no move" outcomes are memoized.  Tests with
     Prop/Feature atoms stay on the generic per-edge path.

   A move of the product is "(edge e, destination node w)": for an edge
   that can be traversed both ways between the same pair of incident
   nodes (a self-loop), forward and backward NFA transitions feed the
   same move, so the path is still counted once. *)

open Gqkg_graph
open Gqkg_automata
module B = Gqkg_util.Bitset
module Dyn = Gqkg_util.Dynarray

type state = { node : int; nfa_states : int array (* sorted, closed *) }

module Set_table = Hashtbl.Make (struct
  type t = int array (* packed NFA state set *)

  let equal = B.raw_equal
  let hash ws = B.raw_hash ws land max_int
end)

module Pair_table = Hashtbl.Make (struct
  type t = int * int (* node, set id *)

  let equal (n1, s1) (n2, s2) = n1 = n2 && s1 = s2
  let hash (n, s) = ((n * 0x01000193) lxor s) land max_int
end)

(* Flat linear-probing int -> int map for the per-set step memo: lookups
   allocate nothing and touch one slot in the common case, which matters
   because every label-pure edge consideration goes through here. Keys
   are non-negative; -1 marks an empty slot and is what [find] answers
   on a miss, so it is never stored as a value. *)
module Imap = struct
  type t = { mutable keys : int array; mutable vals : int array; mutable size : int }

  let create () = { keys = Array.make 8 (-1); vals = Array.make 8 0; size = 0 }

  (* Multiplicative spread of the packed (node, label, dir) keys; the
     wrap-around of the multiply is harmless for hashing. *)
  let slot keys key = (key * 0x2545F4914F6CDD1D) land (Array.length keys - 1)

  let find m key =
    let keys = m.keys in
    let mask = Array.length keys - 1 in
    let i = ref (slot keys key) in
    while keys.(!i) <> key && keys.(!i) <> -1 do
      i := (!i + 1) land mask
    done;
    if keys.(!i) = key then m.vals.(!i) else -1

  (* First write wins (matching Hashtbl.add semantics for fresh keys;
     concurrent phases only ever insert the same value for a key). *)
  let rec add m key v =
    let cap = Array.length m.keys in
    if 4 * (m.size + 1) > 3 * cap then begin
      let old_keys = m.keys and old_vals = m.vals in
      m.keys <- Array.make (2 * cap) (-1);
      m.vals <- Array.make (2 * cap) 0;
      m.size <- 0;
      for i = 0 to cap - 1 do
        if old_keys.(i) >= 0 then add m old_keys.(i) old_vals.(i)
      done;
      add m key v
    end
    else begin
      let keys = m.keys in
      let mask = Array.length keys - 1 in
      let i = ref (slot keys key) in
      while keys.(!i) <> key && keys.(!i) <> -1 do
        i := (!i + 1) land mask
      done;
      if keys.(!i) = -1 then begin
        keys.(!i) <- key;
        m.vals.(!i) <- v;
        m.size <- m.size + 1
      end
    end
end

(* Per-label move tables: [pure_*.(q * num_labels + l)] are the NFA
   targets reachable from state [q] over an edge with interned label [l]
   via label-pure tests.  The label of edge [e] is read straight from
   the snapshot's [elabel] column — no closure on the per-edge path. *)
type dispatch = {
  num_labels : int;
  pure_fwd : int array array;
  pure_bwd : int array array;
}

(* Process-wide count of product states ever interned, across all
   products.  Lets tests assert that a statically-empty query was
   answered without materializing any product state. *)
let interned_counter = Atomic.make 0
let states_interned_total () = Atomic.get interned_counter

(* Bits of [set_flags]: what the members of a set can do. *)
let f_fwd = 1 (* some member has a forward edge move *)

let f_bwd = 2 (* some member has a backward edge move *)
let f_genf = 4 (* ... a generic (not label-pure) forward move *)
let f_genb = 8 (* ... a generic backward move *)
let f_accept = 16 (* the set contains the accept state *)

type t = {
  inst : Snapshot.t;
  nfa : Nfa.t;
  words : int; (* Bitset words per NFA state set *)
  (* Interned distinct NFA state sets and their per-set data. *)
  sets : int Set_table.t;
  set_members : int array Dyn.t; (* set id -> sorted members *)
  set_flags : int Dyn.t; (* set id -> f_* bits *)
  (* set id -> per-label seed sets (fwd at [l], bwd at [num_labels + l]),
     filled on first use. *)
  set_seed_cache : int array option array Dyn.t;
  (* set id -> packed (node, label, direction) -> successor state id, or
     -1 when that step provably yields no move. *)
  set_memo : Imap.t Dyn.t;
  (* set id -> packed (check signature, label, direction) -> interned
     target *set* id.  A closure's outcome depends on the destination
     node only through its check-answer vector, so once a (signature,
     label, direction) combination has been closed the successor at any
     further node [w] with the same signature is just the product state
     (w, target set) — no closure, no set hashing. *)
  set_sig_memo : Imap.t Dyn.t;
  (* Product states: dense id -> (node, set id). *)
  ids : int Pair_table.t;
  state_node : int Dyn.t;
  state_set : int Dyn.t;
  (* CSR successor storage: state id -> (offset, length) into the flat
     (edge, succ) pair buffer; offset -1 marks an unexpanded state. *)
  mutable succ_off : int array;
  mutable succ_len : int array;
  mutable succ_data : int array;
  mutable data_len : int;
  (* Transition dispatch: label-pure moves per interned label (when the
     instance carries a label index) and the generic leftovers. *)
  labels : dispatch option;
  gen_fwd : (Regex.test * int) array array; (* state -> generic fwd moves *)
  gen_bwd : (Regex.test * int) array array;
  (* Node-check memo: byte per (node, check occurrence) — 0 unknown,
     1 satisfied, 2 not.  Closures at a node re-ask the same checks for
     every distinct seed set reaching it; the answers are pure functions
     of the node.  Empty when the automaton has no checks or the graph
     is too large to afford the table. *)
  check_cache : Bytes.t;
  (* node -> packed vector of its check answers (bit [idx] = check
     occurrence [idx] holds), -1 = not yet computed.  Empty when the
     automaton has too many checks for one word. *)
  node_sig : int array;
  check_tests : Regex.test array;
  (* node -> interned set id of its start closure (-1 not yet closed,
     -2 empty closure), and node -> start state id (-1 not yet
     interned).  Split so that the live-seed test can close the start
     set without interning a product state. *)
  start_set : int array;
  start_id : int array;
  (* The start closure at a node is a function of the answers to the
     start checks ({!Nfa.start_checks}) there: packed answer vector ->
     start set id.  [None] past 30 start checks. *)
  start_checks : int array;
  start_memo : Imap.t option;
  live : Bytes.t; (* node -> live-seed memo: 0 unknown, 1 live, 2 not *)
  budget : Gqkg_util.Budget.t;
      (* resource budget shared by every kernel walking this product;
         checked per level / per batch, never per edge *)
}

(* Split each NFA state's edge moves into the label-pure part (tabulated
   per interned label) and the generic rest.  An empty label universe
   routes every move through the generic tables — there is no per-label
   slot to park a label-pure move in. *)
let build_dispatch nfa (inst : Snapshot.t) =
  let num_labels = inst.Snapshot.num_labels in
  if num_labels = 0 then begin
    let all f = Array.init (Nfa.num_states nfa) f in
    (None, all (Nfa.fwd_moves nfa), all (Nfa.bwd_moves nfa))
  end
  else begin
    let label_sat = inst.Snapshot.label_sat in
    let ns = Nfa.num_states nfa in
    let tabulate moves_of =
      let pure_tbl = Array.make (max 1 (ns * num_labels)) [||] in
      let gen = Array.make ns [||] in
      for q = 0 to ns - 1 do
        let pure, generic =
          List.partition (fun (t, _) -> Regex.label_pure t) (Array.to_list (moves_of q))
        in
        gen.(q) <- Array.of_list generic;
        if pure <> [] then
          for l = 0 to num_labels - 1 do
            pure_tbl.((q * num_labels) + l) <-
              List.filter_map
                (fun (t, q') -> if Regex.eval_test (label_sat l) t then Some q' else None)
                pure
              |> Array.of_list
          done
      done;
      (pure_tbl, gen)
    in
    let pure_fwd, gen_fwd = tabulate (Nfa.fwd_moves nfa) in
    let pure_bwd, gen_bwd = tabulate (Nfa.bwd_moves nfa) in
    (Some { num_labels; pure_fwd; pure_bwd }, gen_fwd, gen_bwd)
  end

(* [nfa] lets the analyzer substitute a trimmed automaton for the
   Thompson construction of [regex]; both must recognize the same
   language on this instance. *)
let create ?(budget = Gqkg_util.Budget.unlimited) ?nfa inst regex =
  let nfa = match nfa with Some n -> n | None -> Nfa.of_regex regex in
  let labels, gen_fwd, gen_bwd = build_dispatch nfa inst in
  let start_checks = Nfa.start_checks nfa in
  {
    inst;
    nfa;
    words = Nfa.words nfa;
    sets = Set_table.create 64;
    set_members = Dyn.create [||];
    set_flags = Dyn.create 0;
    set_seed_cache = Dyn.create [||];
    set_memo = Dyn.create (Imap.create ());
    set_sig_memo = Dyn.create (Imap.create ());
    ids = Pair_table.create 256;
    state_node = Dyn.create (-1);
    state_set = Dyn.create (-1);
    succ_off = Array.make 16 (-1);
    succ_len = Array.make 16 0;
    succ_data = Array.make 64 0;
    data_len = 0;
    labels;
    gen_fwd;
    gen_bwd;
    check_cache =
      (let cells = inst.Snapshot.num_nodes * Nfa.num_checks nfa in
       if cells > 0 && cells <= 1 lsl 24 then Bytes.make cells '\000' else Bytes.empty);
    node_sig =
      (if Nfa.num_checks nfa <= 30 then Array.make (max inst.Snapshot.num_nodes 1) (-1)
       else [||]);
    check_tests = Nfa.check_tests nfa;
    start_set = Array.make (max inst.Snapshot.num_nodes 1) (-1);
    start_id = Array.make (max inst.Snapshot.num_nodes 1) (-1);
    start_checks;
    start_memo = (if Array.length start_checks <= 30 then Some (Imap.create ()) else None);
    live = Bytes.make (max inst.Snapshot.num_nodes 1) '\000';
    budget;
  }

let instance p = p.inst
let nfa p = p.nfa
let budget p = p.budget

(* Close [seeds] in place at node [w], caching node-check outcomes. *)
let close_at p w seeds =
  if Bytes.length p.check_cache = 0 then
    Nfa.close_raw p.nfa ~node_sat:(p.inst.Snapshot.node_atom w) seeds
  else begin
    let base = w * Nfa.num_checks p.nfa in
    Nfa.close_raw_idx p.nfa seeds ~check_sat:(fun idx t ->
        match Bytes.unsafe_get p.check_cache (base + idx) with
        | '\001' -> true
        | '\002' -> false
        | _ ->
            let r = Regex.eval_test (p.inst.Snapshot.node_atom w) t in
            (* Concurrent expanders may race here, but they write the
               same (deterministic) byte, so a lost update only costs a
               recomputation. *)
            Bytes.unsafe_set p.check_cache (base + idx) (if r then '\001' else '\002');
            r)
  end
let num_states p = Dyn.length p.state_node
let node_of p id = Dyn.get p.state_node id

(* The exposed view shares the interned members array; callers must not
   mutate it. *)
let state p id = { node = Dyn.get p.state_node id; nfa_states = Dyn.get p.set_members (Dyn.get p.state_set id) }

let is_accepting p id = Dyn.get p.set_flags (Dyn.get p.state_set id) land f_accept <> 0

(* Intern a packed closed state set.  The words array must not be mutated
   by the caller afterwards — it becomes the hash key. *)
let intern_set p ws =
  match Set_table.find_opt p.sets ws with
  | Some sid -> sid
  | None ->
      let members = B.raw_to_array ws in
      let exists f = Array.exists f members in
      let bit b mask = if b then mask else 0 in
      let flags =
        bit (exists (fun q -> Array.length (Nfa.fwd_moves p.nfa q) > 0)) f_fwd
        lor bit (exists (fun q -> Array.length (Nfa.bwd_moves p.nfa q) > 0)) f_bwd
        lor bit (exists (fun q -> Array.length p.gen_fwd.(q) > 0)) f_genf
        lor bit (exists (fun q -> Array.length p.gen_bwd.(q) > 0)) f_genb
        lor bit (B.raw_mem ws (Nfa.accept p.nfa)) f_accept
      in
      let sid = Dyn.push p.set_members members in
      let _ = Dyn.push p.set_flags flags in
      let cache_size = match p.labels with Some d -> 2 * d.num_labels | None -> 0 in
      let _ = Dyn.push p.set_seed_cache (Array.make cache_size None) in
      let _ = Dyn.push p.set_memo (Imap.create ()) in
      let _ = Dyn.push p.set_sig_memo (Imap.create ()) in
      Set_table.add p.sets ws sid;
      sid

(* Intern a (node, set id) product state. *)
let intern_state p node sid =
  let key = (node, sid) in
  match Pair_table.find_opt p.ids key with
  | Some id -> id
  | None ->
      Atomic.incr interned_counter;
      let id = Dyn.push p.state_node node in
      let _ = Dyn.push p.state_set sid in
      Pair_table.add p.ids key id;
      if id >= Array.length p.succ_off then begin
        let n = 2 * (id + 1) in
        let off = Array.make n (-1) and len = Array.make n 0 in
        Array.blit p.succ_off 0 off 0 (Array.length p.succ_off);
        Array.blit p.succ_len 0 len 0 (Array.length p.succ_len);
        p.succ_off <- off;
        p.succ_len <- len
      end;
      id

(* Interned set id of the closure of {q0} at [node], or -2 when the
   closure is the empty set of viable states — cannot happen with
   Thompson NFAs (the start state itself is always in its closure);
   kept total for robustness. *)
let close_start p node =
  let ws = Array.make p.words 0 in
  B.raw_add ws (Nfa.start p.nfa);
  close_at p node ws;
  if B.raw_is_empty ws then -2 else intern_set p ws

(* [close_start], memoized per node and per start-check answer vector;
   interns no product state. *)
let start_set_of p node =
  let sid = p.start_set.(node) in
  if sid <> -1 then sid
  else begin
    let sid =
      match p.start_memo with
      | None -> close_start p node
      | Some memo -> (
          (* Answer the start checks only, then close once per distinct
             answer vector (a stored -2 is a memoized empty closure). *)
          let sat = p.inst.Snapshot.node_atom node in
          let sg = ref 0 in
          Array.iteri
            (fun i idx -> if Regex.eval_test sat p.check_tests.(idx) then sg := !sg lor (1 lsl i))
            p.start_checks;
          match Imap.find memo !sg with
          | -1 ->
              let sid = close_start p node in
              Imap.add memo !sg sid;
              sid
          | sid -> sid)
    in
    p.start_set.(node) <- sid;
    sid
  end

(* The unique start state at a node: the product state over its start
   closure. *)
let start_state p node =
  let id = p.start_id.(node) in
  if id >= 0 then Some id
  else
    match start_set_of p node with
    | -2 -> None
    | sid ->
        let id = intern_state p node sid in
        p.start_id.(node) <- id;
        Some id

(* Result of considering one edge during expansion: either the memo
   already knows the successor id, or a freshly closed target set that
   [commit_moves] will intern (with the memo key to record, when the
   step was label-pure). *)
type computed_move =
  | Hit of int * int (* edge, successor state id *)
  | Fresh of int * int * int * int array (* edge, node, memo key, closed set *)
  | Fresh_raw of int * int * int array (* edge, node, closed set *)

let move_edge_id = function Hit (e, _) | Fresh (e, _, _, _) | Fresh_raw (e, _, _) -> e

(* Direction codes packed into memo keys; self-loops merge both
   directions into one move, hence the third code. *)
let c_fwd = 0

let c_bwd = 1
let c_both = 2

(* Compute the moves of a state without writing any shared mutable
   kernel structure (memos and seed caches are written only with
   [cache_write], which the concurrent phase of [levels] turns off), so
   frontier states can be expanded concurrently.  Returns the moves
   sorted by edge id — the deterministic move order — plus the memo keys
   of steps that provably yield no move. *)
let compute_moves ?(cache_write = true) p id =
  let v = Dyn.get p.state_node id in
  let sid = Dyn.get p.state_set id in
  let flags = Dyn.get p.set_flags sid in
  let has_fwd = flags land f_fwd <> 0 and has_bwd = flags land f_bwd <> 0 in
  if not (has_fwd || has_bwd) then []
  else begin
    let has_genf = flags land f_genf <> 0 and has_genb = flags land f_genb <> 0 in
    let members = Dyn.get p.set_members sid in
    let seed_cache = Dyn.get p.set_seed_cache sid in
    let memo = Dyn.get p.set_memo sid in
    let moves = ref [] in
    let null_seed = Array.make p.words 0 in
    (* Union of the label-pure targets of all members over label [l];
       the result is shared (cached per set) — do not mutate. *)
    let pure_seed d l ~fwd =
      let idx = if fwd then l else d.num_labels + l in
      match seed_cache.(idx) with
      | Some ws -> ws
      | None ->
          let tbl = if fwd then d.pure_fwd else d.pure_bwd in
          let ws = Array.make p.words 0 in
          Array.iter
            (fun q -> Array.iter (fun q' -> B.raw_add ws q') tbl.((q * d.num_labels) + l))
            members;
          if cache_write then seed_cache.(idx) <- Some ws;
          ws
    in
    let add_generic seeds tbl edge_sat =
      Array.iter
        (fun q ->
          Array.iter (fun (t, q') -> if Regex.eval_test edge_sat t then B.raw_add seeds q') tbl.(q))
        members
    in
    (* Generic fallback for steps that depend on more than the edge
       label: build the seed set per edge and close it. *)
    let consider_generic e w ~fwd ~both =
      let seeds = Array.make p.words 0 in
      let add ~fwd =
        if if fwd then has_fwd else has_bwd then begin
          (match p.labels with
          | Some d -> B.raw_union_into ~into:seeds (pure_seed d p.inst.Snapshot.elabel.(e) ~fwd)
          | None -> ());
          if if fwd then has_genf else has_genb then
            add_generic seeds (if fwd then p.gen_fwd else p.gen_bwd) (p.inst.Snapshot.edge_atom e)
        end
      in
      add ~fwd;
      if both then add ~fwd:(not fwd);
      if not (B.raw_is_empty seeds) then begin
        close_at p w seeds;
        moves := Fresh_raw (e, w, seeds) :: !moves
      end
    in
    (* Label-pure step: the successor is a function of (set, label,
       direction, destination) — consult / feed the per-set memo.  The
       cached seed sets are checked first: an empty seed set means no
       edge with this label moves anywhere, whatever the destination. *)
    let consider_pure d e w ~code =
      let l = p.inst.Snapshot.elabel.(e) in
      let sf = if has_fwd && code <> c_bwd then pure_seed d l ~fwd:true else null_seed in
      let sb = if has_bwd && code <> c_fwd then pure_seed d l ~fwd:false else null_seed in
      let ef = B.raw_is_empty sf and eb = B.raw_is_empty sb in
      if not (ef && eb) then begin
        let key = (((w * d.num_labels) + l) * 3) + code in
        let hit = Imap.find memo key in
        if hit >= 0 then moves := Hit (e, hit) :: !moves
        else begin
            let seeds =
              if eb then Array.copy sf
              else if ef then Array.copy sb
              else begin
                let s = Array.copy sf in
                B.raw_union_into ~into:s sb;
                s
              end
            in
            close_at p w seeds;
            moves := Fresh (e, w, key, seeds) :: !moves
        end
      end
    in
    (* A self-loop appears in both adjacency lists; it is handled once,
       in the out pass, with both directions merged into the single move
       — hence out_edges must be scanned even when only backward moves
       exist. *)
    let g = p.inst in
    let out_off = g.Snapshot.out_off and out_eid = g.Snapshot.out_eid in
    let out_nbr = g.Snapshot.out_nbr in
    let in_off = g.Snapshot.in_off and in_eid = g.Snapshot.in_eid in
    let in_nbr = g.Snapshot.in_nbr in
    (match p.labels with
    | Some d ->
        let pure_out = not has_genf and pure_in = not has_genb in
        for i = out_off.(v) to out_off.(v + 1) - 1 do
          let e = out_eid.(i) and w = out_nbr.(i) in
          if w = v then
            if pure_out && pure_in then consider_pure d e w ~code:c_both
            else consider_generic e w ~fwd:true ~both:true
          else if has_fwd || has_genf then
            if pure_out then consider_pure d e w ~code:c_fwd
            else consider_generic e w ~fwd:true ~both:false
        done;
        if has_bwd then
          for i = in_off.(v) to in_off.(v + 1) - 1 do
            let e = in_eid.(i) and u = in_nbr.(i) in
            if u <> v then
              if pure_in then consider_pure d e u ~code:c_bwd
              else consider_generic e u ~fwd:false ~both:false
          done
    | None ->
        for i = out_off.(v) to out_off.(v + 1) - 1 do
          let e = out_eid.(i) and w = out_nbr.(i) in
          consider_generic e w ~fwd:true ~both:(w = v)
        done;
        if has_bwd then
          for i = in_off.(v) to in_off.(v + 1) - 1 do
            let e = in_eid.(i) and u = in_nbr.(i) in
            if u <> v then consider_generic e u ~fwd:false ~both:false
          done);
    (* Deterministic order: sort by edge id (unique per move). *)
    List.sort (fun m1 m2 -> Int.compare (move_edge_id m1) (move_edge_id m2)) !moves
  end

(* Intern the computed moves, record memo outcomes, and append the moves
   to the CSR buffer. *)
let commit_moves p id moves =
  let memo = Dyn.get p.set_memo (Dyn.get p.state_set id) in
  let n = List.length moves in
  let off = p.data_len in
  if off + (2 * n) > Array.length p.succ_data then begin
    let bigger = Array.make (max (2 * Array.length p.succ_data) (off + (2 * n))) 0 in
    Array.blit p.succ_data 0 bigger 0 p.data_len;
    p.succ_data <- bigger
  end;
  List.iter
    (fun m ->
      let e, succ =
        match m with
        | Hit (e, succ) -> (e, succ)
        | Fresh (e, w, key, closed) ->
            let succ = intern_state p w (intern_set p closed) in
            if Imap.find memo key < 0 then Imap.add memo key succ;
            (e, succ)
        | Fresh_raw (e, w, closed) -> (e, intern_state p w (intern_set p closed))
      in
      p.succ_data.(p.data_len) <- e;
      p.succ_data.(p.data_len + 1) <- succ;
      p.data_len <- p.data_len + 2)
    moves;
  p.succ_off.(id) <- off;
  p.succ_len.(id) <- n

(* --- Sequential expansion fast path ------------------------------------

   Resolve each edge and append the move straight into the CSR buffer —
   no intermediate move list, and memo entries become visible to later
   edges of the same expansion.  Helpers are top-level functions taking
   explicit arguments (not closures) to keep the per-expansion
   allocation near zero.  Must stay semantically in line with
   [compute_moves] + [commit_moves] (the two-phase pair used by the
   concurrent [levels] expansion): both produce the same successors in
   the same ascending-edge order. *)

let emit p e succ =
  if p.data_len + 2 > Array.length p.succ_data then begin
    let bigger = Array.make (max (2 * Array.length p.succ_data) (p.data_len + 2)) 0 in
    Array.blit p.succ_data 0 bigger 0 p.data_len;
    p.succ_data <- bigger
  end;
  p.succ_data.(p.data_len) <- e;
  p.succ_data.(p.data_len + 1) <- succ;
  p.data_len <- p.data_len + 2

(* Cached union of the label-pure targets of [members] over label [l];
   the result is shared — callers must not mutate it. *)
let seed_of p d seed_cache members l ~fwd =
  let idx = if fwd then l else d.num_labels + l in
  match seed_cache.(idx) with
  | Some ws -> ws
  | None ->
      let tbl = if fwd then d.pure_fwd else d.pure_bwd in
      let ws = Array.make p.words 0 in
      Array.iter
        (fun q -> Array.iter (fun q' -> B.raw_add ws q') tbl.((q * d.num_labels) + l))
        members;
      seed_cache.(idx) <- Some ws;
      ws

(* Does the state set [sid] have an edge move at node [v]?  Looks for
   one incident edge whose seed set is non-empty — a move
   [expand_direct] would emit (a non-empty seed set survives its
   closure) — without closing or interning anything.  A self-loop is
   seen once, from the out-list, in both directions. *)
let has_move p sid v =
  let flags = Dyn.get p.set_flags sid in
  let has_fwd = flags land f_fwd <> 0 and has_bwd = flags land f_bwd <> 0 in
  let has_genf = flags land f_genf <> 0 and has_genb = flags land f_genb <> 0 in
  let members = Dyn.get p.set_members sid in
  let seed_cache = Dyn.get p.set_seed_cache sid in
  let g = p.inst in
  let moves e ~fwd =
    (if fwd then has_fwd else has_bwd)
    && ((match p.labels with
        | Some d -> not (B.raw_is_empty (seed_of p d seed_cache members g.Snapshot.elabel.(e) ~fwd))
        | None -> false)
       || (if fwd then has_genf else has_genb)
          &&
          let sat = g.Snapshot.edge_atom e in
          let tbl = if fwd then p.gen_fwd else p.gen_bwd in
          Array.exists (fun q -> Array.exists (fun (t, _) -> Regex.eval_test sat t) tbl.(q)) members)
  in
  let found = ref false in
  if has_fwd || has_bwd then begin
    let i = ref g.Snapshot.out_off.(v) in
    while (not !found) && !i < g.Snapshot.out_off.(v + 1) do
      let e = g.Snapshot.out_eid.(!i) in
      found := moves e ~fwd:true || (g.Snapshot.out_nbr.(!i) = v && moves e ~fwd:false);
      incr i
    done;
    if has_bwd then begin
      let i = ref g.Snapshot.in_off.(v) in
      while (not !found) && !i < g.Snapshot.in_off.(v + 1) do
        found := g.Snapshot.in_nbr.(!i) <> v && moves g.Snapshot.in_eid.(!i) ~fwd:false;
        incr i
      done
    end
  end;
  !found

(* A live seed can start a matching path: its start closure accepts (the
   empty path matches) or has an edge move at the node.  Any other node
   reaches nothing, so multi-source searches may skip it without
   changing a single answer. *)
let live_seed p node =
  match Bytes.unsafe_get p.live node with
  | '\001' -> true
  | '\002' -> false
  | _ ->
      let live =
        match start_set_of p node with
        | -2 -> false
        | sid -> Dyn.get p.set_flags sid land f_accept <> 0 || has_move p sid node
      in
      Bytes.unsafe_set p.live node (if live then '\001' else '\002');
      live

(* Packed vector of the node's check answers, computed once per node.
   Only called when the automaton has at most 30 checks (the signature
   must fit an immediate int with headroom for the memo-key packing). *)
let node_sig_of p w =
  let s = p.node_sig.(w) in
  if s >= 0 then s
  else begin
    let sat = p.inst.Snapshot.node_atom w in
    let s = ref 0 in
    Array.iteri (fun idx t -> if Regex.eval_test sat t then s := !s lor (1 lsl idx)) p.check_tests;
    p.node_sig.(w) <- !s;
    !s
  end

(* Label-pure step, CSR-direct: memo hit emits immediately; a miss
   closes, interns, memoizes, then emits. *)
let step_pure p d memo memo2 seed_cache members ~has_fwd ~has_bwd e w code =
  let l = p.inst.Snapshot.elabel.(e) in
  let sf =
    if has_fwd && code <> c_bwd then seed_of p d seed_cache members l ~fwd:true else [||]
  in
  let sb =
    if has_bwd && code <> c_fwd then seed_of p d seed_cache members l ~fwd:false else [||]
  in
  let ef = Array.length sf = 0 || B.raw_is_empty sf in
  let eb = Array.length sb = 0 || B.raw_is_empty sb in
  if not (ef && eb) then begin
    let key = (((w * d.num_labels) + l) * 3) + code in
    let hit = Imap.find memo key in
    if hit >= 0 then emit p e hit
    else begin
      let seeds () =
        if eb then Array.copy sf
        else if ef then Array.copy sb
        else begin
          let s = Array.copy sf in
          B.raw_union_into ~into:s sb;
          s
        end
      in
      let succ =
        if Array.length p.node_sig > 0 then begin
          (* The closure at [w] is a function of (seeds, check answers
             at [w]): resolve the target set through the signature memo
             and only close on a genuinely new signature. *)
          let sg = node_sig_of p w in
          let key2 = (((sg * d.num_labels) + l) * 3) + code in
          let tsid = Imap.find memo2 key2 in
          let tsid =
            if tsid >= 0 then tsid
            else begin
              let s = seeds () in
              Nfa.close_raw_idx p.nfa s ~check_sat:(fun idx _ -> sg land (1 lsl idx) <> 0);
              let tsid = intern_set p s in
              Imap.add memo2 key2 tsid;
              tsid
            end
          in
          intern_state p w tsid
        end
        else begin
          let s = seeds () in
          close_at p w s;
          intern_state p w (intern_set p s)
        end
      in
      Imap.add memo key succ;
      emit p e succ
    end
  end

(* Generic step (tests beyond the edge label): per-edge evaluation, no
   memo. *)
let step_generic p seed_cache members ~has_fwd ~has_bwd ~has_genf ~has_genb e w ~fwd ~both =
  let seeds = Array.make p.words 0 in
  let add ~fwd =
    if if fwd then has_fwd else has_bwd then begin
      (match p.labels with
      | Some d ->
          B.raw_union_into ~into:seeds
            (seed_of p d seed_cache members p.inst.Snapshot.elabel.(e) ~fwd)
      | None -> ());
      if if fwd then has_genf else has_genb then
        Array.iter
          (fun q ->
            Array.iter
              (fun (t, q') ->
                if Regex.eval_test (p.inst.Snapshot.edge_atom e) t then B.raw_add seeds q')
              (if fwd then p.gen_fwd else p.gen_bwd).(q))
          members
    end
  in
  add ~fwd;
  if both then add ~fwd:(not fwd);
  if not (B.raw_is_empty seeds) then begin
    close_at p w seeds;
    emit p e (intern_state p w (intern_set p seeds))
  end

let expand_direct p id =
  let start_len = p.data_len in
  let v = Dyn.get p.state_node id in
  let sid = Dyn.get p.state_set id in
  let flags = Dyn.get p.set_flags sid in
  let has_fwd = flags land f_fwd <> 0 and has_bwd = flags land f_bwd <> 0 in
  if has_fwd || has_bwd then begin
    let has_genf = flags land f_genf <> 0 and has_genb = flags land f_genb <> 0 in
    let members = Dyn.get p.set_members sid in
    let seed_cache = Dyn.get p.set_seed_cache sid in
    let memo = Dyn.get p.set_memo sid in
    let memo2 = Dyn.get p.set_sig_memo sid in
    let g = p.inst in
    let out_off = g.Snapshot.out_off and out_eid = g.Snapshot.out_eid in
    let out_nbr = g.Snapshot.out_nbr in
    let in_off = g.Snapshot.in_off and in_eid = g.Snapshot.in_eid in
    let in_nbr = g.Snapshot.in_nbr in
    match p.labels with
    | Some d ->
        let pure_out = not has_genf and pure_in = not has_genb in
        for i = out_off.(v) to out_off.(v + 1) - 1 do
          let e = out_eid.(i) and w = out_nbr.(i) in
          if w = v then
            if pure_out && pure_in then
              step_pure p d memo memo2 seed_cache members ~has_fwd ~has_bwd e w c_both
            else
              step_generic p seed_cache members ~has_fwd ~has_bwd ~has_genf ~has_genb e w
                ~fwd:true ~both:true
          else if has_fwd then
            if pure_out then step_pure p d memo memo2 seed_cache members ~has_fwd ~has_bwd e w c_fwd
            else
              step_generic p seed_cache members ~has_fwd ~has_bwd ~has_genf ~has_genb e w
                ~fwd:true ~both:false
        done;
        if has_bwd then
          for i = in_off.(v) to in_off.(v + 1) - 1 do
            let e = in_eid.(i) and u = in_nbr.(i) in
            if u <> v then
              if pure_in then step_pure p d memo memo2 seed_cache members ~has_fwd ~has_bwd e u c_bwd
              else
                step_generic p seed_cache members ~has_fwd ~has_bwd ~has_genf ~has_genb e u
                  ~fwd:false ~both:false
          done
    | None ->
        for i = out_off.(v) to out_off.(v + 1) - 1 do
          let e = out_eid.(i) and w = out_nbr.(i) in
          step_generic p seed_cache members ~has_fwd ~has_bwd ~has_genf ~has_genb e w ~fwd:true
            ~both:(w = v)
        done;
        if has_bwd then
          for i = in_off.(v) to in_off.(v + 1) - 1 do
            let e = in_eid.(i) and u = in_nbr.(i) in
            if u <> v then
              step_generic p seed_cache members ~has_fwd ~has_bwd ~has_genf ~has_genb e u
                ~fwd:false ~both:false
          done
  end;
  (* Ascending-edge contract: the out and in adjacency scans each emit in
     list order — already ascending for graphs built by the standard
     builders.  Restore the order for the rare instance that is not. *)
  let n = (p.data_len - start_len) / 2 in
  let sorted = ref true in
  for m = 1 to n - 1 do
    if p.succ_data.(start_len + (2 * m)) < p.succ_data.(start_len + (2 * (m - 1))) then
      sorted := false
  done;
  if not !sorted then begin
    let pairs =
      Array.init n (fun m ->
          (p.succ_data.(start_len + (2 * m)), p.succ_data.(start_len + (2 * m) + 1)))
    in
    Array.sort (fun (e1, _) (e2, _) -> Int.compare e1 e2) pairs;
    Array.iteri
      (fun m (e, s) ->
        p.succ_data.(start_len + (2 * m)) <- e;
        p.succ_data.(start_len + (2 * m) + 1) <- s)
      pairs
  end;
  p.succ_off.(id) <- start_len;
  p.succ_len.(id) <- n

let ensure_expanded p id = if p.succ_off.(id) < 0 then expand_direct p id

let degree p id =
  ensure_expanded p id;
  p.succ_len.(id)

let move_edge p id i = p.succ_data.(p.succ_off.(id) + (2 * i))
let move_succ p id i = p.succ_data.(p.succ_off.(id) + (2 * i) + 1)

let iter_successors p id f =
  ensure_expanded p id;
  let off = p.succ_off.(id) and len = p.succ_len.(id) in
  for i = 0 to len - 1 do
    f p.succ_data.(off + (2 * i)) p.succ_data.(off + (2 * i) + 1)
  done

let is_expanded p id = p.succ_off.(id) >= 0
let moves_total p = p.data_len / 2

(* Breadth-first materialization of the states reachable within [depth]
   steps from every node's start state.  Returns the per-level state-id
   sets (level.(i) = ids reachable by paths of length exactly i; a state
   can appear in several levels).

   With [domains > 1], each level's unexpanded frontier states are
   expanded concurrently in two phases: phase A computes every state's
   moves with [compute_moves ~cache_write:false] (shared structures are
   only read), then phase B interns them sequentially in frontier order,
   so ids and levels are identical to a sequential run. *)
let levels ?domains p ~depth =
  let domains =
    match domains with Some d -> max 1 d | None -> Gqkg_util.Parallel.default_domains ()
  in
  let all_starts =
    List.filter_map (start_state p) (List.init p.inst.Snapshot.num_nodes Fun.id)
  in
  let first = List.sort_uniq Int.compare all_starts in
  let levels = Array.make (depth + 1) [] in
  levels.(0) <- first;
  let i = ref 1 in
  let fixed = ref false in
  (* Budget check site: once per level, before expanding the frontier.
     Stopping early leaves the remaining levels empty — a subset of the
     unbudgeted result, so downstream counts/enumerations only shrink. *)
  while
    (not !fixed) && !i <= depth
    &&
    (Gqkg_util.Budget.note_states p.budget (num_states p);
     not (Gqkg_util.Budget.check p.budget))
  do
    let frontier = levels.(!i - 1) in
    if not (Gqkg_util.Budget.is_unlimited p.budget) then
      Gqkg_util.Budget.charge_steps p.budget (List.length frontier);
    (if domains > 1 then begin
       let unexpanded = Array.of_list (List.filter (fun id -> p.succ_off.(id) < 0) frontier) in
       if Array.length unexpanded >= 2 * domains then begin
         let computed =
           Gqkg_util.Parallel.map_slices ~domains (Array.length unexpanded) (fun first last ->
               List.init (last - first) (fun k ->
                   let id = unexpanded.(first + k) in
                   (id, compute_moves ~cache_write:false p id)))
         in
         List.iter (List.iter (fun (id, moves) -> commit_moves p id moves)) computed
       end
     end);
    let seen = B.create ~capacity:(num_states p) () in
    List.iter
      (fun id ->
        ensure_expanded p id;
        let off = p.succ_off.(id) and len = p.succ_len.(id) in
        for m = 0 to len - 1 do
          B.add seen p.succ_data.(off + (2 * m) + 1)
        done)
      frontier;
    let level = Array.to_list (B.to_sorted_array seen) in
    levels.(!i) <- level;
    (* Once a level equals its own frontier the successor map has hit a
       fixpoint and every later level is the same set — stop walking. *)
    if List.equal Int.equal level frontier then begin
      fixed := true;
      for j = !i + 1 to depth do
        levels.(j) <- level
      done
    end;
    incr i
  done;
  levels
