(* Worst-case-optimal multiway join over Snapshot CSR (Leapfrog Triejoin).

   The engine binds variables one at a time in a single global order; at
   each level it leapfrogs the sorted iterators of every atom containing
   that variable to their common values.  Atom relations become tries —
   grouped sorted int columns of arity 1..3 — in three flavors:

   - zero-copy views over a per-snapshot label-sorted adjacency index
     (edge-label atoms need no per-query materialization),
   - sorted int arrays built from materialized relations (RPQ path
     atoms, triple-store scans),
   - unary sorted sets (node-label atoms, singleton constants).

   The variable order comes from Gqkg_analysis.Joinplan over per-atom
   cardinality estimates; tries are laid out column-by-column in that
   order (a pair atom picks its src- or dst-grouped orientation, the CSR
   index serves either direction).  Budget checks happen at
   variable-binding boundaries at coarse granularity, so an exhausted
   budget yields a sound subset of the bindings. *)

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

let pair_compare (a1, b1) (a2, b2) =
  if a1 <> a2 then compare (a1 : int) a2 else compare (b1 : int) b2

let row_compare (a1, b1, c1) (a2, b2, c2) =
  if a1 <> a2 then compare (a1 : int) a2
  else if b1 <> b2 then compare (b1 : int) b2
  else compare (c1 : int) c2

(* Stable counting sort of [perm] by [key] (values in [0, num_keys)). *)
let counting_sort ~key ~num_keys perm =
  let count = Array.make (num_keys + 1) 0 in
  Array.iter (fun e -> count.(key e + 1) <- count.(key e + 1) + 1) perm;
  for i = 1 to num_keys do
    count.(i) <- count.(i) + count.(i - 1)
  done;
  let out = Array.make (Array.length perm) 0 in
  Array.iter
    (fun e ->
      let k = key e in
      out.(count.(k)) <- e;
      count.(k) <- count.(k) + 1)
    perm;
  out

(* ------------------------------------------------------------------ *)
(* Tries: grouped sorted int columns, arity 1..3                      *)
(* ------------------------------------------------------------------ *)

type trie =
  | T1 of int array (* sorted distinct values *)
  | T2 of { k0 : int array; off : int array; v1 : int array }
    (* distinct first-column keys; group [i] of sorted second-column
       values is v1.[off.(i) .. off.(i+1)) *)
  | T3 of {
      k0 : int array;
      off0 : int array; (* group of k0.(i) in k1: [off0.(i), off0.(i+1)) *)
      k1 : int array; (* second column, distinct within its group *)
      off1 : int array; (* group of k1.(j) in v2: [off1.(j), off1.(j+1)) *)
      v2 : int array;
    }

let t1_of_array a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || a.(i) <> a.(i - 1) then begin
      a.(!m) <- a.(i);
      incr m
    end
  done;
  T1 (Array.sub a 0 !m)

(* [pairs] must be sorted lexicographically and deduplicated. *)
let t2_of_sorted_pairs pairs =
  let n = Array.length pairs in
  let groups = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || fst pairs.(i) <> fst pairs.(i - 1) then incr groups
  done;
  let k0 = Array.make !groups 0 and off = Array.make (!groups + 1) 0 in
  let v1 = Array.make n 0 in
  let g = ref (-1) in
  for i = 0 to n - 1 do
    let a, b = pairs.(i) in
    if i = 0 || a <> fst pairs.(i - 1) then begin
      incr g;
      k0.(!g) <- a;
      off.(!g) <- i
    end;
    v1.(i) <- b
  done;
  off.(!groups) <- n;
  T2 { k0; off; v1 }

let sort_dedup_pairs pairs =
  let a = Array.of_list pairs in
  Array.sort pair_compare a;
  let n = Array.length a in
  let m = ref 0 in
  for i = 0 to n - 1 do
    if i = 0 || a.(i) <> a.(i - 1) then begin
      a.(!m) <- a.(i);
      incr m
    end
  done;
  Array.sub a 0 !m

(* [rows] must be sorted lexicographically and deduplicated. *)
let t3_of_sorted_rows rows =
  let n = Array.length rows in
  let g01 = ref 0 and g0 = ref 0 in
  for i = 0 to n - 1 do
    let a, b, _ = rows.(i) in
    if i = 0 then begin
      incr g01;
      incr g0
    end
    else begin
      let a', b', _ = rows.(i - 1) in
      if a <> a' then incr g0;
      if a <> a' || b <> b' then incr g01
    end
  done;
  let k0 = Array.make !g0 0 and off0 = Array.make (!g0 + 1) 0 in
  let k1 = Array.make !g01 0 and off1 = Array.make (!g01 + 1) 0 in
  let v2 = Array.make n 0 in
  let i0 = ref (-1) and i1 = ref (-1) in
  for i = 0 to n - 1 do
    let a, b, c = rows.(i) in
    let new0 = i = 0 || (let a', _, _ = rows.(i - 1) in a <> a') in
    let new1 = new0 || (let _, b', _ = rows.(i - 1) in b <> b') in
    if new1 then begin
      incr i1;
      k1.(!i1) <- b;
      off1.(!i1) <- i
    end;
    if new0 then begin
      incr i0;
      k0.(!i0) <- a;
      off0.(!i0) <- !i1
    end;
    v2.(i) <- c
  done;
  off0.(!g0) <- !g01;
  off1.(!g01) <- n;
  T3 { k0; off0; k1; off1; v2 }

let trie_pairs = function
  | T2 { k0; off; v1 } ->
      let out = ref [] in
      for g = Array.length k0 - 1 downto 0 do
        for i = off.(g + 1) - 1 downto off.(g) do
          out := (k0.(g), v1.(i)) :: !out
        done
      done;
      !out
  | _ -> invalid_arg "Join.trie_pairs: not a binary trie"

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
    self_tries : trie array; (* T1 of self-loop nodes *)
    stats : label_stat array;
  }

  (* Build one orientation: edges of label [l] as a T2 keyed by
     [key0], grouped values from [key1], deduplicating parallel edges.
     [order] lists edge ids sorted by (label, key0, key1). *)
  let tries_of_order snap order ~key0 ~key1 =
    let num_labels = snap.Snapshot.num_labels in
    let m = Array.length order in
    let elabel = snap.Snapshot.elabel in
    let seg_start = Array.make (num_labels + 1) m in
    for i = m - 1 downto 0 do
      seg_start.(elabel.(order.(i))) <- i
    done;
    (* Empty labels inherit the next segment's start. *)
    for l = num_labels - 1 downto 0 do
      if seg_start.(l) > seg_start.(l + 1) then seg_start.(l) <- seg_start.(l + 1)
    done;
    Array.init num_labels (fun l ->
        let lo = seg_start.(l) and hi = seg_start.(l + 1) in
        (* Pass 1: distinct pairs and distinct keys in the segment. *)
        let pairs = ref 0 and keys = ref 0 in
        for i = lo to hi - 1 do
          let e = order.(i) in
          let fresh =
            i = lo
            ||
            let e' = order.(i - 1) in
            key0 e <> key0 e' || key1 e <> key1 e'
          in
          if fresh then begin
            incr pairs;
            if i = lo || key0 (order.(i - 1)) <> key0 e then incr keys
          end
        done;
        let k0 = Array.make !keys 0 and off = Array.make (!keys + 1) 0 in
        let v1 = Array.make !pairs 0 in
        let gi = ref (-1) and pi = ref 0 in
        for i = lo to hi - 1 do
          let e = order.(i) in
          let dup =
            i > lo
            &&
            let e' = order.(i - 1) in
            key0 e = key0 e' && key1 e = key1 e'
          in
          if not dup then begin
            if i = lo || key0 (order.(i - 1)) <> key0 e then begin
              incr gi;
              k0.(!gi) <- key0 e;
              off.(!gi) <- !pi
            end;
            v1.(!pi) <- key1 e;
            incr pi
          end
        done;
        off.(!keys) <- !pairs;
        T2 { k0; off; v1 })

  let build snap =
    let m = snap.Snapshot.num_edges and n = snap.Snapshot.num_nodes in
    let num_labels = snap.Snapshot.num_labels in
    let esrc = snap.Snapshot.esrc and edst = snap.Snapshot.edst in
    let elabel = snap.Snapshot.elabel in
    let out_tries, in_tries =
      if num_labels = 0 then ([||], [||])
      else begin
        let perm = Array.init m (fun e -> e) in
        let nn = max 1 n in
        let by_label p = counting_sort ~key:(fun e -> elabel.(e)) ~num_keys:num_labels p in
        let by_src p = counting_sort ~key:(fun e -> esrc.(e)) ~num_keys:nn p in
        let by_dst p = counting_sort ~key:(fun e -> edst.(e)) ~num_keys:nn p in
        let out_order = by_label (by_src (by_dst perm)) in
        let in_order = by_label (by_dst (by_src perm)) in
        ( tries_of_order snap out_order ~key0:(fun e -> esrc.(e)) ~key1:(fun e -> edst.(e)),
          tries_of_order snap in_order ~key0:(fun e -> edst.(e)) ~key1:(fun e -> esrc.(e)) )
      end
    in
    let self_tries =
      Array.init num_labels (fun l ->
          match out_tries.(l) with
          | T2 { k0; off; v1 } ->
              let loops = ref [] in
              for g = Array.length k0 - 1 downto 0 do
                let s = k0.(g) in
                let i = lower_bound v1 off.(g) off.(g + 1) s in
                if i < off.(g + 1) && v1.(i) = s then loops := s :: !loops
              done;
              T1 (Array.of_list !loops)
          | _ -> T1 [||])
    in
    let stats =
      Array.init num_labels (fun l ->
          let pairs, distinct_src =
            match out_tries.(l) with
            | T2 { k0; v1; _ } -> (Array.length v1, Array.length k0)
            | _ -> (0, 0)
          in
          let distinct_dst =
            match in_tries.(l) with T2 { k0; _ } -> Array.length k0 | _ -> 0
          in
          let self_loops =
            match self_tries.(l) with T1 a -> Array.length a | _ -> 0
          in
          {
            name = snap.Snapshot.label_names.(l);
            pairs;
            distinct_src;
            distinct_dst;
            self_loops;
          })
    in
    { snap; out_tries; in_tries; self_tries; stats }

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
  | SSet of int array (* sorted distinct *)
  | SPairs of (int * int) array * (int * int) array
    (* forward-sorted (by col0) and backward-sorted (swapped, by col1)
       copies; both deduplicated *)
  | SCsr of Index.t * int (* zero-copy: edge-label id in the index *)
  | SRows of (int * int * int) array (* deduplicated, forward-sorted *)

type pre = {
  pname : string;
  pkind : string;
  pvars : int array; (* distinct var ids, canonical column order *)
  psize : int;
  pdistinct : int array;
  psource : source;
}

(* Project rows with repeated variables down to their distinct columns,
   keeping only rows consistent on the repeats.  [vids] are the atom's
   variable ids per column (with repeats); rows are int arrays. *)
let project_repeats vids rows =
  let arity = Array.length vids in
  let first = Array.map (fun v ->
    let rec find i = if vids.(i) = v then i else find (i + 1) in
    find 0) vids in
  let keep = ref [] and cols = ref [] in
  for i = arity - 1 downto 0 do
    if first.(i) = i then cols := i :: !cols
  done;
  let cols = Array.of_list !cols in
  List.iter
    (fun (row : int array) ->
      let ok = ref true in
      for i = 0 to arity - 1 do
        if row.(i) <> row.(first.(i)) then ok := false
      done;
      if !ok then keep := Array.map (fun c -> row.(c)) cols :: !keep)
    rows;
  (Array.map (fun c -> vids.(c)) cols, !keep)

let distinct_count_of_column rows i =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (r : int array) -> Hashtbl.replace tbl r.(i) ()) rows;
  Hashtbl.length tbl

(* Build a [pre] from distinct-variable generic rows. *)
let pre_of_rows ~name ~kind vids rows =
  match Array.length vids with
  | 1 ->
      let set =
        match t1_of_array (Array.of_list (List.map (fun (r : int array) -> r.(0)) rows)) with
        | T1 a -> a
        | _ -> assert false
      in
      {
        pname = name;
        pkind = kind;
        pvars = vids;
        psize = Array.length set;
        pdistinct = [| Array.length set |];
        psource = SSet set;
      }
  | 2 ->
      let fwd = sort_dedup_pairs (List.map (fun (r : int array) -> (r.(0), r.(1))) rows) in
      let bwd = sort_dedup_pairs (List.map (fun (r : int array) -> (r.(1), r.(0))) rows) in
      let group_count a =
        let g = ref 0 in
        Array.iteri (fun i (x, _) -> if i = 0 || x <> fst a.(i - 1) then incr g) a;
        !g
      in
      {
        pname = name;
        pkind = kind;
        pvars = vids;
        psize = Array.length fwd;
        pdistinct = [| group_count fwd; group_count bwd |];
        psource = SPairs (fwd, bwd);
      }
  | 3 ->
      let a = Array.of_list (List.map (fun (r : int array) -> (r.(0), r.(1), r.(2))) rows) in
      Array.sort row_compare a;
      let n = Array.length a in
      let m = ref 0 in
      for i = 0 to n - 1 do
        if i = 0 || a.(i) <> a.(i - 1) then begin
          a.(!m) <- a.(i);
          incr m
        end
      done;
      let a = Array.sub a 0 !m in
      let rows' = List.map (fun (x, y, z) -> [| x; y; z |]) (Array.to_list a) in
      {
        pname = name;
        pkind = kind;
        pvars = vids;
        psize = Array.length a;
        pdistinct =
          [|
            distinct_count_of_column rows' 0;
            distinct_count_of_column rows' 1;
            distinct_count_of_column rows' 2;
          |];
        psource = SRows a;
      }
  | _ -> invalid_arg "Join: unsupported atom arity"

let normalize ?snapshot spec ~var_id =
  let arity = rel_arity spec.rel in
  if Array.length spec.avars <> arity then
    invalid_arg
      (Printf.sprintf "Join: atom %s has %d variables for an arity-%d relation" spec.name
         (Array.length spec.avars) arity);
  let vids = Array.map var_id spec.avars in
  let has_repeats =
    let seen = Hashtbl.create 4 in
    Array.exists
      (fun v ->
        if Hashtbl.mem seen v then true
        else begin
          Hashtbl.replace seen v ();
          false
        end)
      vids
  in
  match spec.rel with
  | Edges labels -> begin
      let idx =
        match snapshot with
        | Some snap -> Index.get snap
        | None -> invalid_arg "Join: Edges atom requires ~snapshot"
      in
      match (labels, has_repeats) with
      | [ l ], false ->
          let stat = idx.Index.stats.(l) in
          {
            pname = spec.name;
            pkind = "csr";
            pvars = vids;
            psize = stat.Index.pairs;
            pdistinct = [| stat.Index.distinct_src; stat.Index.distinct_dst |];
            psource = SCsr (idx, l);
          }
      | _, false ->
          (* Union of several labels: materialize the merged pairs. *)
          let pairs = List.concat_map (fun l -> trie_pairs idx.Index.out_tries.(l)) labels in
          pre_of_rows ~name:spec.name ~kind:"csr-union" vids
            (List.map (fun (s, d) -> [| s; d |]) pairs)
      | _, true ->
          (* (x, x): the self-loop node set. *)
          let loops =
            List.concat_map
              (fun l ->
                match idx.Index.self_tries.(l) with
                | T1 a -> Array.to_list a
                | _ -> [])
              labels
          in
          pre_of_rows ~name:spec.name ~kind:"self-loops" [| vids.(0) |]
            (List.map (fun v -> [| v |]) loops)
    end
  | Set a ->
      pre_of_rows ~name:spec.name ~kind:(if Array.length a = 1 then "singleton" else "set")
        vids
        (Array.to_list (Array.map (fun v -> [| v |]) a))
  | Pairs pairs ->
      let rows = List.map (fun (a, b) -> [| a; b |]) pairs in
      if has_repeats then
        let vids', rows' = project_repeats vids rows in
        pre_of_rows ~name:spec.name ~kind:"pairs" vids' rows'
      else pre_of_rows ~name:spec.name ~kind:"pairs" vids rows
  | Rows3 rows ->
      let rows = List.map (fun (a, b, c) -> [| a; b; c |]) rows in
      if has_repeats then
        let vids', rows' = project_repeats vids rows in
        pre_of_rows ~name:spec.name ~kind:"rows" vids' rows'
      else pre_of_rows ~name:spec.name ~kind:"rows" vids rows

(* ------------------------------------------------------------------ *)
(* Cursors and the leapfrog kernel                                    *)
(* ------------------------------------------------------------------ *)

type cursor = {
  trie : trie;
  ovars : int array; (* var ids in trie column order *)
  lo : int array;
  hi : int array;
  pos : int array;
}

let col c d =
  match (c.trie, d) with
  | T1 a, 0 -> a
  | T2 t, 0 -> t.k0
  | T2 t, 1 -> t.v1
  | T3 t, 0 -> t.k0
  | T3 t, 1 -> t.k1
  | T3 t, 2 -> t.v2
  | _ -> assert false

let start_root c =
  c.lo.(0) <- 0;
  c.hi.(0) <- Array.length (col c 0);
  c.pos.(0) <- 0

(* Set depth [d]'s range from the parent's position. *)
let open_child c d =
  (match (c.trie, d) with
  | T2 t, 1 ->
      let p = c.pos.(0) in
      c.lo.(1) <- t.off.(p);
      c.hi.(1) <- t.off.(p + 1)
  | T3 t, 1 ->
      let p = c.pos.(0) in
      c.lo.(1) <- t.off0.(p);
      c.hi.(1) <- t.off0.(p + 1)
  | T3 t, 2 ->
      let p = c.pos.(1) in
      c.lo.(2) <- t.off1.(p);
      c.hi.(2) <- t.off1.(p + 1)
  | _ -> assert false);
  c.pos.(d) <- c.lo.(d)

let cursor_of_trie trie ovars =
  let arity = Array.length ovars in
  { trie; ovars; lo = Array.make arity 0; hi = Array.make arity 0; pos = Array.make arity 0 }

(* Build the oriented trie of a normalized atom under the global order:
   columns sorted by the variables' positions in [level_of]. *)
let cursor_of_pre level_of p =
  let order_vars vids =
    let vs = Array.copy vids in
    Array.sort (fun a b -> compare (level_of a) (level_of b)) vs;
    vs
  in
  match p.psource with
  | SSet a -> cursor_of_trie (T1 a) p.pvars
  | SPairs (fwd, bwd) ->
      if level_of p.pvars.(0) < level_of p.pvars.(1) then
        cursor_of_trie (t2_of_sorted_pairs fwd) p.pvars
      else cursor_of_trie (t2_of_sorted_pairs bwd) [| p.pvars.(1); p.pvars.(0) |]
  | SCsr (idx, l) ->
      if level_of p.pvars.(0) < level_of p.pvars.(1) then
        cursor_of_trie idx.Index.out_tries.(l) p.pvars
      else cursor_of_trie idx.Index.in_tries.(l) [| p.pvars.(1); p.pvars.(0) |]
  | SRows rows ->
      let ovars = order_vars p.pvars in
      let posn v =
        let rec find i = if p.pvars.(i) = v then i else find (i + 1) in
        find 0
      in
      let c0 = posn ovars.(0) and c1 = posn ovars.(1) and c2 = posn ovars.(2) in
      let permuted =
        Array.map (fun (a, b, c) ->
          let r = [| a; b; c |] in
          (r.(c0), r.(c1), r.(c2))) rows
      in
      Array.sort row_compare permuted;
      cursor_of_trie (t3_of_sorted_rows permuted) ovars

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
      let cursors = List.map (cursor_of_pre (fun v -> level_of.(v))) c.pres in
      (* Participants per level: (cursor, depth) for every trie column
         bound at that level. *)
      let levels = Array.make num_vars [] in
      List.iter
        (fun cu ->
          Array.iteri (fun d v -> levels.(level_of.(v)) <- (cu, d) :: levels.(level_of.(v))) cu.ovars)
        cursors;
      let levels = Array.map Array.of_list levels in
      Array.iter (fun parts -> assert (Array.length parts > 0)) levels;
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
      let emit () =
        if full_cover then yield (Array.map (fun v -> bnd.(v)) proj)
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
          let parts = levels.(g) in
          let k = Array.length parts in
          Array.iter (fun (cu, d) -> if d = 0 then start_root cu else open_child cu d) parts;
          let dead = ref false in
          Array.iter (fun (cu, d) -> if cu.pos.(d) >= cu.hi.(d) then dead := true) parts;
          if not !dead then begin
            Array.sort
              (fun (c1, d1) (c2, d2) ->
                compare (col c1 d1).(c1.pos.(d1)) (col c2 d2).(c2.pos.(d2)))
              parts;
            let p = ref 0 in
            let x' =
              let cu, d = parts.(k - 1) in
              ref (col cu d).(cu.pos.(d))
            in
            let live = ref true in
            while !live do
              let cu, d = parts.(!p) in
              let x = (col cu d).(cu.pos.(d)) in
              if x = !x' then begin
                (* All k iterators agree on x: bind and descend. *)
                bnd.(order.(g)) <- x;
                tick ();
                level (g + 1);
                cu.pos.(d) <- cu.pos.(d) + 1;
                if cu.pos.(d) >= cu.hi.(d) then live := false
                else begin
                  x' := (col cu d).(cu.pos.(d));
                  p := (!p + 1) mod k
                end
              end
              else begin
                cu.pos.(d) <- lower_bound (col cu d) cu.pos.(d) cu.hi.(d) !x';
                if cu.pos.(d) >= cu.hi.(d) then live := false
                else begin
                  x' := (col cu d).(cu.pos.(d));
                  p := (!p + 1) mod k
                end
              end
            done
          end
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
