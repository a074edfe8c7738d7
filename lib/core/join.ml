(* Worst-case-optimal multiway join over Snapshot CSR (a trie join).

   The engine binds variables one at a time in a single global order; at
   each level it merges the two shortest sorted slices of the atoms
   containing that variable and seeks each common value in the rest,
   O(atoms * shortest slice * log) per level.  Atom relations become tries —
   grouped sorted int columns of arity 1..3 — in two flavors:

   - binary relation sources read zero-copy from one of their two tries
     (a label's relation in the per-snapshot index, a path atom's
     relation prepared once and cached with its result),
   - tries built from materialized relations (triple-store scans,
     node-label sets, singleton constants, label unions, self-loop
     atoms): the rows are kept as columns plus a row-id permutation that
     stable LSD radix passes sort, and the trie is built once, in the
     column order the plan binds first.

   The variable order comes from Gqkg_analysis.Joinplan over per-atom
   cardinality estimates.  Budget checks happen at variable-binding
   boundaries at coarse granularity, so an exhausted budget yields a
   sound subset of the bindings. *)

open Gqkg_graph
module Budget = Gqkg_util.Budget

(* ------------------------------------------------------------------ *)
(* Sorted-array primitives                                            *)
(* ------------------------------------------------------------------ *)

(* First index in [lo, hi) with a.(i) >= key. *)
let lower_bound (a : int array) lo hi key =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) < key then lo := mid + 1 else hi := mid
  done;
  !lo

(* [lower_bound] for a key at or just past [lo]: probe lo+1, lo+2,
   lo+4, ... until the key is passed, then binary-search the last
   doubling step.  Seeks cost O(log distance), not O(log group). *)
let gallop (a : int array) lo hi key =
  if lo >= hi || a.(lo) >= key then lo
  else begin
    (* Invariant: a.(!prev) < key. *)
    let prev = ref lo and step = ref 1 in
    while !prev + !step < hi && a.(!prev + !step) < key do
      prev := !prev + !step;
      step := !step * 2
    done;
    lower_bound a (!prev + 1) (Int.min (!prev + !step) hi) key
  end

(* Whether the row ids [rows] are already in lexicographic order of
   the columns [keys] (path pairs and postings arrive sorted). *)
let is_sorted (keys : int array array) (rows : int array) =
  let k = Array.length keys and i = ref 1 and ok = ref true in
  while !ok && !i < Array.length rows do
    let a = rows.(!i - 1) and b = rows.(!i) and d = ref 0 in
    while !d < k && keys.(!d).(a) = keys.(!d).(b) do
      incr d
    done;
    ok := !d = k || keys.(!d).(a) < keys.(!d).(b);
    incr i
  done;
  !ok

(* Stable LSD radix sort of the row ids [rows], in place, by the
   non-negative columns [keys] lexicographically ([keys.(0)] most
   significant): 8-bit digits, the last column first, as many passes
   per column as its maximum has bytes.  Buckets are 256 wide whatever
   the id range, and no key is packed. *)
let sort_rows (keys : int array array) (rows : int array) =
  if not (is_sorted keys rows) then begin
    let n = Array.length rows in
    let count = Array.make 257 0 in
    let src = ref rows and dst = ref (Array.make n 0) in
    for j = Array.length keys - 1 downto 0 do
      let col = keys.(j) in
      let top = Array.fold_left (fun m r -> max m col.(r)) 0 rows in
      let shift = ref 0 in
      while !shift < Sys.int_size && top lsr !shift > 0 do
        let sh = !shift and s = !src and d = !dst in
        Array.fill count 0 257 0;
        for i = 0 to n - 1 do
          let b = ((col.(s.(i)) lsr sh) land 255) + 1 in
          count.(b) <- count.(b) + 1
        done;
        for b = 1 to 256 do
          count.(b) <- count.(b) + count.(b - 1)
        done;
        for i = 0 to n - 1 do
          let r = s.(i) in
          let b = (col.(r) lsr sh) land 255 in
          d.(count.(b)) <- r;
          count.(b) <- count.(b) + 1
        done;
        src := d;
        dst := s;
        shift := sh + 8
      done
    done;
    if !src != rows then Array.blit !src 0 rows 0 n
  end

(* ------------------------------------------------------------------ *)
(* Tries: grouped sorted int columns, arity 1..3                      *)
(* ------------------------------------------------------------------ *)

(* [keys.(d)] holds the depth-d values, sorted and distinct within each
   group; the children of [keys.(d).(j)] are the slice
   [offs.(d).(j), offs.(d).(j + 1)) of [keys.(d + 1)].  A dense root
   has a [rank] array: [rank.(v)] is the first root position whose key
   is >= v, so a seek on the root is one read; a sparse root has
   [rank = [||]]. *)
type trie = { keys : int array array; offs : int array array; rank : int array }

(* A root is dense when its key range [0, max key] is at most this many
   times its distinct key count: its rank array then costs at most this
   many ints per root key. *)
let dense_factor = 4

let rank_of (root : int array) =
  let n = Array.length root in
  if n = 0 || root.(n - 1) + 1 > dense_factor * n then [||]
  else begin
    let j = ref 0 in
    Array.init
      (root.(n - 1) + 1)
      (fun v ->
        while root.(!j) < v do
          incr j
        done;
        !j)
  end

(* First column where row [i] of [rows] differs from row [i - 1]: 0 at
   [i = lo], [Array.length cols] for a duplicate. *)
let first_diff (cols : int array array) (rows : int array) lo i =
  if i = lo then 0
  else begin
    let a = rows.(i) and b = rows.(i - 1) and k = Array.length cols in
    let d = ref 0 in
    while !d < k && cols.(!d).(a) = cols.(!d).(b) do
      incr d
    done;
    !d
  end

(* Distinct prefixes per depth of the sorted rows [lo, hi): entry [d]
   counts the distinct (cols.(0), .., cols.(d)) values. *)
let prefix_counts cols rows lo hi =
  let counts = Array.make (Array.length cols) 0 in
  for i = lo to hi - 1 do
    for d = first_diff cols rows lo i to Array.length cols - 1 do
      counts.(d) <- counts.(d) + 1
    done
  done;
  counts

(* The trie of rows [lo, hi) of [rows], sorted by [cols]; adjacent
   duplicates are dropped in the same pass. *)
let build_trie (cols : int array array) rows lo hi =
  let k = Array.length cols in
  let counts = prefix_counts cols rows lo hi in
  let keys = Array.map (fun c -> Array.make c 0) counts in
  let offs = Array.init (k - 1) (fun d -> Array.make (counts.(d) + 1) 0) in
  let fill = Array.make k 0 in
  for i = lo to hi - 1 do
    let r = rows.(i) in
    for d = first_diff cols rows lo i to k - 1 do
      let j = fill.(d) in
      keys.(d).(j) <- cols.(d).(r);
      if d < k - 1 then offs.(d).(j) <- fill.(d + 1);
      fill.(d) <- j + 1
    done
  done;
  for d = 0 to k - 2 do
    offs.(d).(counts.(d)) <- counts.(d + 1)
  done;
  { keys; offs; rank = rank_of keys.(0) }

(* ------------------------------------------------------------------ *)
(* Binary relations and the per-snapshot join index                   *)
(* ------------------------------------------------------------------ *)

(* Both tries of a relation's distinct pairs, and each root's size-biased fan-out. *)
type relation = { by_src : trie; by_dst : trie; src_fanout : float; dst_fanout : float }

(* Size-biased fan-out of a two-level trie's root: sum over its groups
   of group^2 / pairs. *)
let fanout t =
  let off = t.offs.(0) and sq = ref 0.0 in
  for g = 1 to Array.length off - 1 do
    sq := !sq +. (float_of_int (off.(g) - off.(g - 1)) ** 2.0)
  done;
  !sq /. float_of_int (max 1 (Array.length t.keys.(1)))

(* The relation of rows [lo, hi) of [rows], sorted by (src, dst); the
   dst trie takes one stable sort of a copy by dst. *)
let relation_of_sorted src dst rows lo hi =
  let by_dst = Array.sub rows lo (hi - lo) in
  sort_rows [| dst |] by_dst;
  let by_src = build_trie [| src; dst |] rows lo hi in
  let by_dst = build_trie [| dst; src |] by_dst 0 (hi - lo) in
  { by_src; by_dst; src_fanout = fanout by_src; dst_fanout = fanout by_dst }

let check_ids a =
  Array.iter (fun x -> if x < 0 then invalid_arg "Join: negative id") a;
  a

let relation_of_pairs l =
  let src = check_ids (Array.of_list (List.map fst l)) in
  let dst = check_ids (Array.of_list (List.map snd l)) in
  let rows = Array.init (Array.length src) Fun.id in
  sort_rows [| src; dst |] rows;
  relation_of_sorted src dst rows 0 (Array.length rows)

let relation_id : relation Type.Id.t = Type.Id.make ()

(* An answer's columns are in (src, dst) order already: no sort for the src trie. *)
let relation_of_answer (a : Answer.t) =
  Answer.memo a relation_id (fun () ->
      let n = Answer.length a in
      relation_of_sorted a.src a.dst (Array.init n Fun.id) 0 n)

(* Nodes with a self-loop, ascending. *)
let loop_nodes { by_src = { keys; offs; _ }; _ } =
  let loop g s =
    let i = lower_bound keys.(1) offs.(0).(g) offs.(0).(g + 1) s in
    i < offs.(0).(g + 1) && keys.(1).(i) = s
  in
  Array.of_list (List.filteri loop (Array.to_list keys.(0)))

module Index = struct
  type label_stat = {
    name : string;
    pairs : int;
    distinct_src : int;
    distinct_dst : int;
    self_loops : int;
    src_fanout : float;
    dst_fanout : float;
  }

  type t = { snap : Snapshot.t; rels : relation array (* per edge-label id *) }

  (* One sort of all edges by (label, src, dst); each label's slice is its relation. *)
  let build snap =
    let num_labels = snap.Snapshot.num_labels and elabel = snap.Snapshot.elabel in
    let esrc = snap.Snapshot.esrc and edst = snap.Snapshot.edst in
    if num_labels = 0 then { snap; rels = [||] }
    else begin
      let rows = Array.init snap.Snapshot.num_edges Fun.id in
      sort_rows [| elabel; esrc; edst |] rows;
      let start = Array.make (num_labels + 1) 0 in
      Array.iter (fun l -> start.(l + 1) <- start.(l + 1) + 1) elabel;
      for l = 1 to num_labels do
        start.(l) <- start.(l) + start.(l - 1)
      done;
      let rel l = relation_of_sorted esrc edst rows start.(l) start.(l + 1) in
      { snap; rels = Array.init num_labels rel }
    end

  let index_id : t Type.Id.t = Type.Id.make ()
  let get snap = Snapshot.memo snap index_id build

  (* O(labels) per call: the index keeps no table written on the read
     path. *)
  let edge_label_ids idx c =
    let ids = ref [] in
    for l = idx.snap.Snapshot.num_labels - 1 downto 0 do
      if Snapshot.label_holds idx.snap l (Atom.Label c) then ids := l :: !ids
    done;
    !ids

  let nodes_with_const_label idx c = Postings.nodes idx.snap (Atom.Label c)

  let label_stats idx =
    Array.mapi
      (fun l r ->
        {
          name = idx.snap.Snapshot.label_names.(l);
          pairs = Array.length r.by_src.keys.(1);
          distinct_src = Array.length r.by_src.keys.(0);
          distinct_dst = Array.length r.by_dst.keys.(0);
          self_loops = Array.length (loop_nodes r);
          src_fanout = r.src_fanout;
          dst_fanout = r.dst_fanout;
        })
      idx.rels

  let describe idx =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "per-edge-label join statistics (distinct pairs / srcs / dsts / self-loops / fan-outs):\n";
    if Array.length idx.rels = 0 then
      Buffer.add_string buf "  (no interned edge labels)\n"
    else
      Array.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf
               "  %-16s %8d pairs  %8d srcs  %8d dsts  %6d self-loops  %8.1f out  %8.1f in\n"
               s.name s.pairs s.distinct_src s.distinct_dst s.self_loops s.src_fanout
               s.dst_fanout))
        (label_stats idx);
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Atom specification and normalization                               *)
(* ------------------------------------------------------------------ *)

type rel =
  | Edges of int list
  | Pairs of (int * int) list
  | Relation of relation
  | Set of int array
  | Rows3 of (int * int * int) list

type atom_spec = { avars : string array; rel : rel; name : string }

let atom ?name avars rel =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "(%s)" (String.concat "," (Array.to_list avars))
  in
  { avars; rel; name }

let rel_arity = function Edges _ | Pairs _ | Relation _ -> 2 | Set _ -> 1 | Rows3 _ -> 3

(* A normalized atom: distinct variables only, with a relation source
   ready for stats and (after ordering) trie construction. *)
type source =
  | SRel of relation (* zero-copy: (src, dst) read from either trie *)
  | SRows of int array array * int array
    (* one column per [pvars] entry, and the atom's row ids sorted by
       those columns (duplicates still adjacent) *)

type pre = {
  pname : string;
  pkind : string;
  pvars : int array; (* distinct var ids, canonical column order *)
  psize : int;
  pdistinct : int array;
  pfanout : float array; (* per column: size-biased fan-out *)
  psource : source;
}

(* Over the row ids [rows], ordered so that equal values of column [j]
   and duplicate rows are adjacent: the distinct rows, the distinct
   values of column [j], and its size-biased fan-out (sum over its
   groups of distinct rows of group^2 / distinct rows). *)
let column_stats cols rows j =
  let total = ref 0 and distinct = ref 0 and group = ref 0 and sq = ref 0.0 in
  let close () = sq := !sq +. (float_of_int !group ** 2.0) in
  Array.iteri
    (fun i r ->
      if first_diff cols rows 0 i < Array.length cols then begin
        if i = 0 || cols.(j).(r) <> cols.(j).(rows.(i - 1)) then begin
          close ();
          group := 0;
          incr distinct
        end;
        incr group;
        incr total
      end)
    rows;
  close ();
  (!total, !distinct, !sq /. float_of_int (max 1 !total))

(* Materialize an atom over [vids] (one per column of [cols], repeats
   allowed): rows inconsistent on a repeated variable are dropped, the
   rest sorted by the distinct variables' columns.  Sizes, distinct
   counts and fan-outs come from counting passes over sorted row ids:
   the canonical sort for the first column, one single-column stable
   sort for each later one. *)
let materialize ~name ~kind vids cols =
  let k = Array.length vids and n = Array.length cols.(0) in
  let first =
    Array.map
      (fun v ->
        let rec find j = if vids.(j) = v then j else find (j + 1) in
        find 0)
      vids
  in
  let rows = Array.init n Fun.id and m = ref 0 in
  for r = 0 to n - 1 do
    let ok = ref true in
    for i = 0 to k - 1 do
      if cols.(i).(r) <> cols.(first.(i)).(r) then ok := false
    done;
    if !ok then begin
      rows.(!m) <- r;
      incr m
    end
  done;
  let rows = if !m = n then rows else Array.sub rows 0 !m in
  let keep = List.filter (fun i -> first.(i) = i) (List.init k Fun.id) in
  let cols = Array.of_list (List.map (fun i -> cols.(i)) keep) in
  sort_rows cols rows;
  let stats =
    Array.init (Array.length cols) (fun j ->
        if j = 0 then column_stats cols rows 0
        else begin
          let by_col = Array.copy rows in
          sort_rows [| cols.(j) |] by_col;
          column_stats cols by_col j
        end)
  in
  {
    pname = name;
    pkind = kind;
    pvars = Array.of_list (List.map (fun i -> vids.(i)) keep);
    psize = (let n, _, _ = stats.(0) in n);
    pdistinct = Array.map (fun (_, d, _) -> d) stats;
    pfanout = Array.map (fun (_, _, f) -> f) stats;
    psource = SRows (cols, rows);
  }

(* The (src, dst) columns of a union of relations, each relation's
   distinct pairs in turn. *)
let pair_columns rels =
  let n = List.fold_left (fun n r -> n + Array.length r.by_src.keys.(1)) 0 rels in
  let src = Array.make n 0 and dst = Array.make n 0 and at = ref 0 in
  List.iter
    (fun { by_src = t; _ } ->
      let off = t.offs.(0) and v1 = t.keys.(1) in
      Array.iteri (fun g s -> Array.fill src (!at + off.(g)) (off.(g + 1) - off.(g)) s) t.keys.(0);
      Array.blit v1 0 dst !at (Array.length v1);
      at := !at + Array.length v1)
    rels;
  [| src; dst |]

let normalize ?snapshot spec ~var_id =
  let arity = rel_arity spec.rel in
  if Array.length spec.avars <> arity then
    invalid_arg
      (Printf.sprintf "Join: atom %s has %d variables for an arity-%d relation" spec.name
         (Array.length spec.avars) arity);
  let vids = Array.map var_id spec.avars in
  let label l =
    match snapshot with
    | Some snap -> (Index.get snap).Index.rels.(l)
    | None -> invalid_arg "Join: Edges atom requires ~snapshot"
  in
  let materialize kind vids cols = materialize ~name:spec.name ~kind vids cols in
  (* Over distinct variables a binary source reads its tries; over (x, x), its self-loops. *)
  let binary kind r =
    if vids.(0) = vids.(1) then materialize kind [| vids.(0) |] [| loop_nodes r |]
    else
      {
        pname = spec.name;
        pkind = kind;
        pvars = vids;
        psize = Array.length r.by_src.keys.(1);
        pdistinct = [| Array.length r.by_src.keys.(0); Array.length r.by_dst.keys.(0) |];
        pfanout = [| r.src_fanout; r.dst_fanout |];
        psource = SRel r;
      }
  in
  match spec.rel with
  | Edges [ l ] when vids.(0) <> vids.(1) -> binary "csr" (label l)
  | Edges ls ->
      let kind = if vids.(0) = vids.(1) then "self-loops" else "csr-union" in
      materialize kind vids (pair_columns (List.map label ls))
  | Pairs l -> binary "pairs" (relation_of_pairs l)
  | Relation r -> binary "pairs" r
  | Set a -> materialize (if Array.length a = 1 then "singleton" else "set") vids [| check_ids a |]
  | Rows3 l ->
      let col f = check_ids (Array.of_list (List.map f l)) in
      materialize "rows" vids
        [| col (fun (a, _, _) -> a); col (fun (_, b, _) -> b); col (fun (_, _, c) -> c) |]

(* The trie of a normalized atom under the global order, with its
   variables in trie column order.  Materialized rows are sorted in the
   atom's column order; a stable sort by the leading columns the plan
   reorders (the ones before the longest suffix still in column order)
   sorts them in the plan's order. *)
let trie_of_pre level_of p =
  match p.psource with
  | SRel r ->
      if level_of p.pvars.(0) < level_of p.pvars.(1) then (r.by_src, p.pvars)
      else (r.by_dst, [| p.pvars.(1); p.pvars.(0) |])
  | SRows (cols, rows) ->
      let k = Array.length cols in
      let perm = Array.init k Fun.id in
      Array.sort (fun a b -> compare (level_of p.pvars.(a)) (level_of p.pvars.(b))) perm;
      let m = ref (k - 1) in
      while !m > 0 && perm.(!m - 1) < perm.(!m) do
        decr m
      done;
      let rows =
        if !m = 0 then rows
        else begin
          let rows = Array.copy rows in
          sort_rows (Array.init !m (fun i -> cols.(perm.(i)))) rows;
          rows
        end
      in
      let oriented = Array.map (fun c -> cols.(c)) perm in
      (build_trie oriented rows 0 (Array.length rows), Array.map (fun c -> p.pvars.(c)) perm)

exception Tripped

(* ------------------------------------------------------------------ *)
(* Compilation: specs -> variable table, normalized atoms, plan       *)
(* ------------------------------------------------------------------ *)

type compiled = {
  var_names : string array;
  var_tbl : (string, int) Hashtbl.t;
  pres : pre list;
}

let compile ?snapshot specs =
  let var_tbl = Hashtbl.create 16 in
  let names = ref [] and next = ref 0 in
  let var_id v =
    match Hashtbl.find_opt var_tbl v with
    | Some i -> i
    | None ->
        let i = !next in
        incr next;
        Hashtbl.add var_tbl v i;
        names := v :: !names;
        i
  in
  let pres = List.map (fun s -> normalize ?snapshot s ~var_id) specs in
  { var_names = Array.of_list (List.rev !names); var_tbl; pres }

let stats_of_pres pres =
  List.map
    (fun p ->
      {
        Gqkg_analysis.Joinplan.vars = p.pvars;
        size = float_of_int p.psize;
        distinct = Array.map float_of_int p.pdistinct;
        fanout = p.pfanout;
        label = Printf.sprintf "%s [%s]" p.pname p.pkind;
      })
    pres

type plan = {
  order : string array;
  atom_summary : (string * string * int) list;
  rendered : string;
}

let plan_of_compiled c ~order =
  let var_name i = c.var_names.(i) in
  let stats = stats_of_pres c.pres in
  {
    order = Array.map var_name order;
    atom_summary = List.map (fun p -> (p.pname, p.pkind, p.psize)) c.pres;
    rendered = Gqkg_analysis.Joinplan.describe ~var_name stats ~order;
  }

let choose ?order_hint c =
  let num_vars = Array.length c.var_names in
  match order_hint with
  | Some names ->
      if Array.length names <> num_vars then
        invalid_arg "Join: order_hint must mention every variable exactly once";
      let seen = Array.make num_vars false in
      let order =
        Array.map
          (fun n ->
            match Hashtbl.find_opt c.var_tbl n with
            | Some i when not seen.(i) ->
                seen.(i) <- true;
                i
            | _ -> invalid_arg "Join: order_hint must mention every variable exactly once")
          names
      in
      order
  | None -> Gqkg_analysis.Joinplan.choose_order ~num_vars (stats_of_pres c.pres)

let plan ?snapshot specs =
  let c = compile ?snapshot specs in
  let order = choose c in
  plan_of_compiled c ~order

(* ------------------------------------------------------------------ *)
(* Evaluation                                                         *)
(* ------------------------------------------------------------------ *)

let budget_check_interval = 64

(* An open-addressed set of int rows of one width: the rows sit
   contiguously in [data] (row [r] at [r * width], room for half as
   many rows as there are slots), [slots] holds row ids (-1 when empty)
   at a load factor below 1/2, probed linearly from an integer mix
   hash.  A probe allocates nothing. *)
type rowset = {
  width : int;
  mutable data : int array;
  mutable slots : int array;
  mutable rows : int;
}

(* The slot holding the row equal to [a.(off .. off + width - 1)], or
   the empty slot where it belongs. *)
let row_slot t (a : int array) off =
  let mask = Array.length t.slots - 1 and w = t.width and h = ref t.width in
  for i = off to off + w - 1 do
    h := (!h lxor a.(i)) * 0x2545F4914F6CDD1D
  done;
  let i = ref ((!h lxor (!h lsr 29)) land mask) and found = ref false in
  while not !found do
    let r = t.slots.(!i) in
    if r < 0 then found := true
    else begin
      let j = ref 0 in
      while !j < w && t.data.((r * w) + !j) = a.(off + !j) do
        incr j
      done;
      if !j = w then found := true else i := (!i + 1) land mask
    end
  done;
  !i

(* Adds [row]; false when it was already present. *)
let rowset_add t row =
  let i = row_slot t row 0 and w = t.width in
  if t.slots.(i) >= 0 then false
  else begin
    for j = 0 to w - 1 do
      t.data.((t.rows * w) + j) <- row.(j)
    done;
    t.slots.(i) <- t.rows;
    t.rows <- t.rows + 1;
    if 2 * t.rows = Array.length t.slots then begin
      t.data <- Array.append t.data t.data (* double the room *);
      t.slots <- Array.make (2 * Array.length t.slots) (-1);
      for r = 0 to t.rows - 1 do
        t.slots.(row_slot t t.data (r * w)) <- r
      done
    end;
    true
  end

(* Linear steps a seek on a column without a rank array takes before it
   gallops: a merge of two slices of like length finds most targets a
   step or two ahead, where a gallop would spend probes and a search. *)
let linear_steps = 4

(* One level of the join: the trie columns bound at this variable, one
   slot per participant.  A root column spans all of [keys.(i)]; a
   deeper one is the slice [offs.(i)] gives for its parent's position,
   which sits in slot [pslot.(i)] of level [plevel.(i)].  A dense root
   seeks through its rank array [rank.(i)]; every other column steps,
   then gallops ([rank.(i) = [||]]). *)
type level = {
  keys : int array array;
  offs : int array array;
  rank : int array array;
  plevel : int array; (* -1 at a trie root *)
  pslot : int array;
  pos : int array;
  hi : int array;
}

(* The first position in [p, h) of the sorted [a] holding a key >= [x],
   where every key before [p] is below [x]: one read of the rank array
   [r] of a dense root, else up to [linear_steps] steps, then a gallop. *)
let seek (a : int array) (r : int array) p h x =
  if Array.length r > 0 then if x < Array.length r then r.(x) else h
  else begin
    let p = ref p in
    let stop = if h - !p < linear_steps then h else !p + linear_steps in
    while !p < stop && a.(!p) < x do
      incr p
    done;
    if !p < stop then !p else gallop a !p h x
  end

let solve ?budget ?snapshot ?order_hint specs ~vars ~yield =
  match specs with
  | [] ->
      if vars <> [] then invalid_arg "Join.solve: variable used by no atom";
      yield [||]
  | _ ->
      let c = compile ?snapshot specs in
      let num_vars = Array.length c.var_names in
      let proj =
        List.map
          (fun v ->
            match Hashtbl.find_opt c.var_tbl v with
            | Some i -> i
            | None -> invalid_arg (Printf.sprintf "Join.solve: variable %s used by no atom" v))
          vars
      in
      let order = choose ?order_hint c in
      let level_of = Array.make num_vars 0 in
      Array.iteri (fun lvl v -> level_of.(v) <- lvl) order;
      (* Participants per level, as (key column, the offsets that open
         it, its rank array, (level, slot) of its parent column). *)
      let parts = Array.make num_vars [] and count = Array.make num_vars 0 in
      List.iter
        (fun p ->
          let (trie : trie), ovars = trie_of_pre (fun v -> level_of.(v)) p in
          let parent = ref (-1, 0) in
          Array.iteri
            (fun d v ->
              let g = level_of.(v) in
              let offs = if d = 0 then [||] else trie.offs.(d - 1) in
              let rank = if d = 0 then trie.rank else [||] in
              parts.(g) <- (trie.keys.(d), offs, rank, !parent) :: parts.(g);
              parent := (g, count.(g));
              count.(g) <- count.(g) + 1)
            ovars)
        c.pres;
      let levels =
        Array.map
          (fun ps ->
            let ps = Array.of_list (List.rev ps) in
            let k = Array.length ps in
            assert (k > 0);
            {
              keys = Array.map (fun (c, _, _, _) -> c) ps;
              offs = Array.map (fun (_, o, _, _) -> o) ps;
              rank = Array.map (fun (_, _, r, _) -> r) ps;
              plevel = Array.map (fun (_, _, _, (g, _)) -> g) ps;
              pslot = Array.map (fun (_, _, _, (_, s)) -> s) ps;
              pos = Array.make k 0;
              hi = Array.make k 0;
            })
          parts
      in
      (* Projection / dedup setup. *)
      let proj = Array.of_list proj in
      let full_cover =
        let covered = Array.make num_vars false in
        Array.iter (fun v -> covered.(v) <- true) proj;
        Array.length proj = num_vars && Array.for_all (fun b -> b) covered
      in
      let w = Array.length proj in
      let seen = { width = w; data = Array.make (8 * w) 0; slots = Array.make 16 (-1); rows = 0 } in
      let bnd = Array.make num_vars (-1) in
      (* Reusable probe row: duplicates (the common case under a
         projection) cost one set probe and no allocation; only a new
         row is copied for [yield]. *)
      let probe = Array.make (Array.length proj) 0 in
      let bound v = bnd.(v) in
      let emit () =
        if full_cover then yield (Array.map bound proj)
        else begin
          (* Not [Array.iteri]: its closure would be allocated per call. *)
          for i = 0 to Array.length proj - 1 do
            probe.(i) <- bnd.(proj.(i))
          done;
          if rowset_add seen probe then yield (Array.copy probe)
        end
      in
      (* Budget plumbing: one step per variable binding, polled coarsely. *)
      let metered =
        match budget with Some b when not (Budget.is_unlimited b) -> Some b | _ -> None
      in
      let pending = ref 0 in
      let tick b =
        incr pending;
        if !pending land (budget_check_interval - 1) = 0 then begin
          Budget.charge_steps b budget_check_interval;
          if Budget.check b then raise Tripped
        end
      in
      let rec level g =
        if g = num_vars then emit ()
        else begin
          let { keys; offs; rank; plevel; pslot; pos; hi } = levels.(g) in
          let k = Array.length keys in
          (* Open every participant, stopping at the first empty one;
             [a] and [b] are the two shortest slices ([b = a] alone). *)
          let a = ref 0 and b = ref 0 and live = ref true and i = ref 0 in
          while !live && !i < k do
            let s = !i in
            if plevel.(s) < 0 then begin
              pos.(s) <- 0;
              hi.(s) <- Array.length keys.(s)
            end
            else begin
              let pp = levels.(plevel.(s)).pos.(pslot.(s)) in
              pos.(s) <- offs.(s).(pp);
              hi.(s) <- offs.(s).(pp + 1)
            end;
            let n = hi.(s) - pos.(s) in
            if n = 0 then live := false
            else if n < hi.(!a) - pos.(!a) then begin
              b := !a;
              a := s
            end
            else if !b = !a || n < hi.(!b) - pos.(!b) then b := s;
            incr i
          done;
          (* Merge [a] with [b]; a common value is sought in the other
             participants, and bound when all of them hold it. *)
          let a = !a and b = !b in
          let ka = keys.(a) and kb = keys.(b) and ha = hi.(a) and hb = hi.(b) in
          let ra = rank.(a) and rb = rank.(b) in
          let pa = ref (if !live then pos.(a) else ha) and pb = ref pos.(b) in
          while !pa < ha && !pb < hb do
            let x = ka.(!pa) and y = kb.(!pb) in
            if x < y then pa := seek ka ra (!pa + 1) ha y
            else if y < x then pb := seek kb rb (!pb + 1) hb x
            else begin
              pos.(a) <- !pa;
              pos.(b) <- !pb;
              let hit = ref true and s = ref 0 in
              while !hit && !s < k do
                let i = !s in
                if i <> a && i <> b then begin
                  pos.(i) <- seek keys.(i) rank.(i) pos.(i) hi.(i) x;
                  hit := pos.(i) < hi.(i) && keys.(i).(pos.(i)) = x
                end;
                incr s
              done;
              if !hit then begin
                bnd.(order.(g)) <- x;
                (match metered with Some m -> tick m | None -> ());
                level (g + 1)
              end;
              incr pa;
              incr pb
            end
          done
        end
      in
      let run () =
        match budget with
        | Some b when Budget.check b -> () (* sticky: already exhausted *)
        | _ -> level 0
      in
      (try run () with Tripped -> ());
      Option.iter
        (fun b -> Budget.charge_steps b (!pending land (budget_check_interval - 1)))
        metered
