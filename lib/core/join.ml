(* Worst-case-optimal multiway join over Snapshot CSR (Leapfrog Triejoin).

   The engine binds variables one at a time in a single global order; at
   each level it leapfrogs the sorted iterators of every atom containing
   that variable to their common values.  Atom relations become tries —
   grouped sorted int columns of arity 1..3 — in two flavors:

   - zero-copy views over a per-snapshot label-sorted adjacency index
     (edge-label atoms need no per-query materialization),
   - tries built from materialized relations (RPQ path atoms,
     triple-store scans, node-label sets, singleton constants): the
     rows are kept as columns plus a row-id permutation that stable
     LSD radix passes sort, and the trie is built once, in the column
     order the plan binds first.

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
    lower_bound a (!prev + 1) (min (!prev + !step) hi) key
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
   [offs.(d).(j), offs.(d).(j + 1)) of [keys.(d + 1)]. *)
type trie = { keys : int array array; offs : int array array }

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
  { keys; offs }

(* ------------------------------------------------------------------ *)
(* Per-snapshot join index                                            *)
(* ------------------------------------------------------------------ *)

module Index = struct
  type label_stat = {
    name : string;
    pairs : int;
    distinct_src : int;
    distinct_dst : int;
    self_loops : int;
  }

  type t = {
    snap : Snapshot.t;
    out_tries : trie array; (* per edge-label id, grouped by src *)
    in_tries : trie array; (* grouped by dst *)
    stats : label_stat array;
  }

  (* One orientation: every label's distinct (key0, key1) pairs as a
     two-level trie, from one sort of all edges by (label, key0, key1). *)
  let tries snap ~key0 ~key1 =
    let num_labels = snap.Snapshot.num_labels and elabel = snap.Snapshot.elabel in
    if num_labels = 0 then [||]
    else begin
      let rows = Array.init snap.Snapshot.num_edges Fun.id in
      sort_rows [| elabel; key0; key1 |] rows;
      let start = Array.make (num_labels + 1) 0 in
      Array.iter (fun l -> start.(l + 1) <- start.(l + 1) + 1) elabel;
      for l = 1 to num_labels do
        start.(l) <- start.(l) + start.(l - 1)
      done;
      Array.init num_labels (fun l -> build_trie [| key0; key1 |] rows start.(l) start.(l + 1))
    end

  let self_loop_count t =
    let k0 = t.keys.(0) and off = t.offs.(0) and v1 = t.keys.(1) in
    let n = ref 0 in
    Array.iteri
      (fun g s ->
        let i = lower_bound v1 off.(g) off.(g + 1) s in
        if i < off.(g + 1) && v1.(i) = s then incr n)
      k0;
    !n

  let build snap =
    let esrc = snap.Snapshot.esrc and edst = snap.Snapshot.edst in
    let out_tries = tries snap ~key0:esrc ~key1:edst in
    let in_tries = tries snap ~key0:edst ~key1:esrc in
    let stats =
      Array.mapi
        (fun l t ->
          {
            name = snap.Snapshot.label_names.(l);
            pairs = Array.length t.keys.(1);
            distinct_src = Array.length t.keys.(0);
            distinct_dst = Array.length in_tries.(l).keys.(0);
            self_loops = self_loop_count t;
          })
        out_tries
    in
    { snap; out_tries; in_tries; stats }

  let index_id : t Type.Id.t = Type.Id.make ()
  let get snap = Snapshot.memo snap index_id build

  (* O(labels) per call: the index keeps no table written on the read
     path. *)
  let edge_label_ids idx c =
    let ids = ref [] in
    for l = idx.snap.Snapshot.num_labels - 1 downto 0 do
      if idx.snap.Snapshot.label_sat l (Atom.Label c) then ids := l :: !ids
    done;
    !ids

  let nodes_with_const_label idx c = Postings.nodes idx.snap (Atom.Label c)

  let label_stats idx = Array.copy idx.stats

  let describe idx =
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      "per-edge-label join statistics (distinct pairs / srcs / dsts / self-loops):\n";
    if Array.length idx.stats = 0 then
      Buffer.add_string buf "  (no interned edge labels)\n"
    else
      Array.iter
        (fun s ->
          Buffer.add_string buf
            (Printf.sprintf "  %-16s %8d pairs  %8d srcs  %8d dsts  %6d self-loops\n"
               s.name s.pairs s.distinct_src s.distinct_dst s.self_loops))
        idx.stats;
    Buffer.contents buf
end

(* ------------------------------------------------------------------ *)
(* Atom specification and normalization                               *)
(* ------------------------------------------------------------------ *)

type rel =
  | Edges of int list
  | Pairs of (int * int) list
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

let rel_arity = function Edges _ -> 2 | Pairs _ -> 2 | Set _ -> 1 | Rows3 _ -> 3

(* A normalized atom: distinct variables only, with a relation source
   ready for stats and (after ordering) trie construction. *)
type source =
  | SCsr of Index.t * int (* zero-copy: edge-label id in the index *)
  | SRows of int array array * int array
    (* one column per [pvars] entry, and the atom's row ids sorted by
       those columns (duplicates still adjacent) *)

type pre = {
  pname : string;
  pkind : string;
  pvars : int array; (* distinct var ids, canonical column order *)
  psize : int;
  pdistinct : int array;
  psource : source;
}

(* Columns of a materialized relation, one per atom column; a union of
   edge labels concatenates each label's distinct pairs. *)
let columns_of idx rel =
  let id x = if x < 0 then invalid_arg "Join: negative id" else x in
  match rel with
  | Set a ->
      Array.iter (fun x -> ignore (id x)) a;
      [| a |]
  | Pairs l ->
      let n = List.length l in
      let c0 = Array.make n 0 and c1 = Array.make n 0 in
      List.iteri
        (fun i (a, b) ->
          c0.(i) <- id a;
          c1.(i) <- id b)
        l;
      [| c0; c1 |]
  | Rows3 l ->
      let n = List.length l in
      let cols = Array.init 3 (fun _ -> Array.make n 0) in
      List.iteri
        (fun i (a, b, c) ->
          cols.(0).(i) <- id a;
          cols.(1).(i) <- id b;
          cols.(2).(i) <- id c)
        l;
      cols
  | Edges labels ->
      let tries = List.map (fun l -> (Lazy.force idx).Index.out_tries.(l)) labels in
      let n = List.fold_left (fun n t -> n + Array.length t.keys.(1)) 0 tries in
      let src = Array.make n 0 and dst = Array.make n 0 and at = ref 0 in
      List.iter
        (fun t ->
          let off = t.offs.(0) and v1 = t.keys.(1) in
          Array.iteri
            (fun g s -> Array.fill src (!at + off.(g)) (off.(g + 1) - off.(g)) s)
            t.keys.(0);
          Array.blit v1 0 dst !at (Array.length v1);
          at := !at + Array.length v1)
        tries;
      [| src; dst |]

(* Materialize an atom over [vids] (one per column of [cols], repeats
   allowed): rows inconsistent on a repeated variable are dropped, the
   rest sorted by the distinct variables' columns.  Sizes and distinct
   counts come from counting passes over sorted row ids. *)
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
  let counts = prefix_counts cols rows 0 !m in
  let distinct j =
    if j = 0 then counts.(0)
    else begin
      let col = [| cols.(j) |] and by_col = Array.copy rows in
      sort_rows col by_col;
      (prefix_counts col by_col 0 !m).(0)
    end
  in
  {
    pname = name;
    pkind = kind;
    pvars = Array.of_list (List.map (fun i -> vids.(i)) keep);
    psize = counts.(Array.length cols - 1);
    pdistinct = Array.init (Array.length cols) distinct;
    psource = SRows (cols, rows);
  }

let normalize ?snapshot spec ~var_id =
  let arity = rel_arity spec.rel in
  if Array.length spec.avars <> arity then
    invalid_arg
      (Printf.sprintf "Join: atom %s has %d variables for an arity-%d relation" spec.name
         (Array.length spec.avars) arity);
  let vids = Array.map var_id spec.avars in
  let idx =
    lazy
      (match snapshot with
      | Some snap -> Index.get snap
      | None -> invalid_arg "Join: Edges atom requires ~snapshot")
  in
  let materialize kind = materialize ~name:spec.name ~kind vids (columns_of idx spec.rel) in
  match spec.rel with
  | Edges [ l ] when vids.(0) <> vids.(1) ->
      let stat = (Lazy.force idx).Index.stats.(l) in
      {
        pname = spec.name;
        pkind = "csr";
        pvars = vids;
        psize = stat.Index.pairs;
        pdistinct = [| stat.Index.distinct_src; stat.Index.distinct_dst |];
        psource = SCsr (Lazy.force idx, l);
      }
  | Edges _ -> materialize (if vids.(0) = vids.(1) then "self-loops" else "csr-union")
  | Set a -> materialize (if Array.length a = 1 then "singleton" else "set")
  | Pairs _ -> materialize "pairs"
  | Rows3 _ -> materialize "rows"

(* The trie of a normalized atom under the global order, with its
   variables in trie column order.  Materialized rows are sorted in the
   atom's column order; a stable sort by the leading columns the plan
   reorders (the ones before the longest suffix still in column order)
   sorts them in the plan's order. *)
let trie_of_pre level_of p =
  match p.psource with
  | SCsr (idx, l) ->
      if level_of p.pvars.(0) < level_of p.pvars.(1) then (idx.Index.out_tries.(l), p.pvars)
      else (idx.Index.in_tries.(l), [| p.pvars.(1); p.pvars.(0) |])
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

(* One level of the leapfrog: the trie columns bound at this variable,
   one slot per participant.  A root column spans all of [keys.(i)];
   a deeper one is the slice [offs.(i)] gives for its parent's position,
   which sits in slot [pslot.(i)] of level [plevel.(i)]. *)
type level = {
  keys : int array array;
  offs : int array array;
  plevel : int array; (* -1 at a trie root *)
  pslot : int array;
  pos : int array;
  hi : int array;
  ord : int array; (* slots by current key, ascending *)
}

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
         it, (level, slot) of its parent column). *)
      let parts = Array.make num_vars [] and count = Array.make num_vars 0 in
      List.iter
        (fun p ->
          let (trie : trie), ovars = trie_of_pre (fun v -> level_of.(v)) p in
          let parent = ref (-1, 0) in
          Array.iteri
            (fun d v ->
              let g = level_of.(v) in
              let offs = if d = 0 then [||] else trie.offs.(d - 1) in
              parts.(g) <- (trie.keys.(d), offs, !parent) :: parts.(g);
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
              keys = Array.map (fun (c, _, _) -> c) ps;
              offs = Array.map (fun (_, o, _) -> o) ps;
              plevel = Array.map (fun (_, _, (g, _)) -> g) ps;
              pslot = Array.map (fun (_, _, (_, s)) -> s) ps;
              pos = Array.make k 0;
              hi = Array.make k 0;
              ord = Array.make k 0;
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
      let seen = Hashtbl.create 64 in
      let bnd = Array.make num_vars (-1) in
      (* Reusable probe row: duplicates (the common case under a
         projection) cost one hash lookup and no allocation; only a
         genuinely new row is copied to become the table key. *)
      let probe = Array.make (Array.length proj) 0 in
      let bound v = bnd.(v) in
      let emit () =
        if full_cover then yield (Array.map bound proj)
        else begin
          Array.iteri (fun i v -> probe.(i) <- bnd.(v)) proj;
          if not (Hashtbl.mem seen probe) then begin
            let row = Array.copy probe in
            Hashtbl.replace seen row ();
            yield row
          end
        end
      in
      (* Budget plumbing: one step per variable binding, polled coarsely. *)
      let pending = ref 0 in
      let tick =
        match budget with
        | Some b when not (Budget.is_unlimited b) ->
            fun () ->
              incr pending;
              if !pending land (budget_check_interval - 1) = 0 then begin
                Budget.charge_steps b budget_check_interval;
                if Budget.check b then raise Tripped
              end
        | _ -> fun () -> ()
      in
      let flush_pending () =
        match budget with
        | Some b when not (Budget.is_unlimited b) ->
            Budget.charge_steps b (!pending land (budget_check_interval - 1))
        | _ -> ()
      in
      let rec level g =
        if g = num_vars then emit ()
        else begin
          let { keys; offs; plevel; pslot; pos; hi; ord } = levels.(g) in
          let k = Array.length keys in
          (* Open every participant and insertion-sort the slots by
             their first key; stop at the first empty one. *)
          let live = ref true and i = ref 0 in
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
            if pos.(s) >= hi.(s) then live := false
            else begin
              let x = keys.(s).(pos.(s)) and j = ref s in
              while !j > 0 && keys.(ord.(!j - 1)).(pos.(ord.(!j - 1))) > x do
                ord.(!j) <- ord.(!j - 1);
                decr j
              done;
              ord.(!j) <- s;
              incr i
            end
          done;
          let p = ref 0 in
          let xmax = ref (if !live then keys.(ord.(k - 1)).(pos.(ord.(k - 1))) else 0) in
          let v = order.(g) in
          while !live do
            let s = ord.(!p) in
            let a = keys.(s) in
            if a.(pos.(s)) = !xmax then begin
              (* All k iterators agree: bind and descend. *)
              bnd.(v) <- !xmax;
              tick ();
              level (g + 1);
              pos.(s) <- pos.(s) + 1
            end
            else pos.(s) <- gallop a (pos.(s) + 1) hi.(s) !xmax;
            if pos.(s) >= hi.(s) then live := false
            else begin
              xmax := a.(pos.(s));
              p := if !p + 1 = k then 0 else !p + 1
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
      flush_pending ()

(* ------------------------------------------------------------------ *)
(* Shared path-atom materialization                                   *)
(* ------------------------------------------------------------------ *)

let path_pairs ?budget ?max_length snap regex = Rpq.eval_pairs ?budget ?max_length snap regex
