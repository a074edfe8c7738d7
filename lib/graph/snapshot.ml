(* The frozen columnar store shared by all four Section 3 data models.

   Freezing compiles a model to one physical layout — flat endpoint
   columns, CSR adjacency in both directions, interned edge labels,
   node-label membership bitmaps, interned property and feature rows and
   degree/label statistics — so the Section 4 engines touch plain arrays
   instead of per-model closures, and the model itself can be dropped.
   The per-model freezers are the [of_*] constructors below plus the
   triple store's frozen view in gqkg_kg ([Triple_store.view]), whose
   literal-object triples are property rows like any other.

   Everything in the record is immutable after [make] returns, except
   the memo of derived state, which only ever grows by compare-and-set;
   the hot fields are plain int arrays, so one snapshot is shared freely
   by every reader of an epoch (serve's workers, the writer's next
   commit). *)

module B = Gqkg_util.Bitset

type stats = {
  out_degree_p50 : int;
  out_degree_p99 : int;
  out_degree_max : int;
  in_degree_p50 : int;
  in_degree_p99 : int;
  in_degree_max : int;
  degree_p50 : int;
  degree_p99 : int;
  degree_max : int;
  edge_label_counts : int array;
  node_label_counts : int array;
}

type rows = { off : int array; kv : int array }

type attrs = {
  dict : Const.t array;
  node_props : rows;
  edge_props : rows;
  dimension : int;
  node_features : rows;
  edge_features : rows;
}

type t = {
  num_nodes : int;
  num_edges : int;
  esrc : int array;
  edst : int array;
  out_off : int array;
  out_eid : int array;
  out_nbr : int array;
  in_off : int array;
  in_eid : int array;
  in_nbr : int array;
  num_labels : int;
  elabel : int array;
  label_names : string array;
  label_keys : Const.t array array;
  num_node_labels : int;
  node_label_names : string array;
  node_label_keys : Const.t array array;
  node_label_bits : int array array;
  attrs : attrs;
  node_name : int -> string;
  edge_name : int -> string;
  stats : stats;
  epoch : int;
  memo : Gqkg_util.Memo.t;
}

(* Process-wide epoch counter: every snapshot constructed in this
   process (via [make], the overlay commit or the loader's literal
   record) gets a distinct stamp. *)
let epoch_counter = Atomic.make 0
let fresh_epoch () = Atomic.fetch_and_add epoch_counter 1
let memo s id build = Gqkg_util.Memo.get s.memo id (fun () -> build s)

(* Percentile of a degree distribution given as a counting histogram
   over 0 .. max_degree (nearest-rank on the n node observations). *)
let percentile_of_hist hist n p =
  if n = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (p *. float_of_int n))) in
    let acc = ref 0 and result = ref 0 and d = ref 0 in
    let len = Array.length hist in
    while !acc < rank && !d < len do
      acc := !acc + hist.(!d);
      if !acc >= rank then result := !d;
      incr d
    done;
    !result
  end

let degree_stats n off =
  let maxd = ref 0 in
  for v = 0 to n - 1 do
    let d = off.(v + 1) - off.(v) in
    if d > !maxd then maxd := d
  done;
  let hist = Array.make (!maxd + 1) 0 in
  for v = 0 to n - 1 do
    let d = off.(v + 1) - off.(v) in
    hist.(d) <- hist.(d) + 1
  done;
  (percentile_of_hist hist n 0.50, percentile_of_hist hist n 0.99, !maxd)

(* CSR from endpoint columns by counting sort; iterating edges in
   ascending id keeps each node's adjacency in ascending edge order —
   the deterministic order the product kernel's move contract relies
   on. *)
let pack_csr n esrc edst =
  let m = Array.length esrc in
  let out_off = Array.make (n + 1) 0 and in_off = Array.make (n + 1) 0 in
  for e = 0 to m - 1 do
    out_off.(esrc.(e)) <- out_off.(esrc.(e)) + 1;
    in_off.(edst.(e)) <- in_off.(edst.(e)) + 1
  done;
  let acc_out = ref 0 and acc_in = ref 0 in
  for v = 0 to n do
    let o = out_off.(v) and i = in_off.(v) in
    out_off.(v) <- !acc_out;
    in_off.(v) <- !acc_in;
    acc_out := !acc_out + o;
    acc_in := !acc_in + i
  done;
  let out_eid = Array.make m 0 and out_nbr = Array.make m 0 in
  let in_eid = Array.make m 0 and in_nbr = Array.make m 0 in
  let out_fill = Array.make (max n 1) 0 and in_fill = Array.make (max n 1) 0 in
  for e = 0 to m - 1 do
    let s = esrc.(e) and d = edst.(e) in
    let oi = out_off.(s) + out_fill.(s) in
    out_eid.(oi) <- e;
    out_nbr.(oi) <- d;
    out_fill.(s) <- out_fill.(s) + 1;
    let ii = in_off.(d) + in_fill.(d) in
    in_eid.(ii) <- e;
    in_nbr.(ii) <- s;
    in_fill.(d) <- in_fill.(d) + 1
  done;
  (out_off, out_eid, out_nbr, in_off, in_eid, in_nbr)

(* Full stats record from packed offsets and label counts — shared by
   [make] and the incremental re-freeze (Overlay.commit), which reuses
   unchanged label-count columns instead of recounting. *)
let stats_of_columns ~num_nodes ~out_off ~in_off ~edge_label_counts ~node_label_counts =
  let out_degree_p50, out_degree_p99, out_degree_max = degree_stats num_nodes out_off in
  let in_degree_p50, in_degree_p99, in_degree_max = degree_stats num_nodes in_off in
  let degree_p50, degree_p99, degree_max =
    let maxd = ref 0 in
    for v = 0 to num_nodes - 1 do
      let d = out_off.(v + 1) - out_off.(v) + in_off.(v + 1) - in_off.(v) in
      if d > !maxd then maxd := d
    done;
    let hist = Array.make (!maxd + 1) 0 in
    for v = 0 to num_nodes - 1 do
      let d = out_off.(v + 1) - out_off.(v) + in_off.(v + 1) - in_off.(v) in
      hist.(d) <- hist.(d) + 1
    done;
    ( percentile_of_hist hist num_nodes 0.50,
      percentile_of_hist hist num_nodes 0.99,
      !maxd )
  in
  {
    out_degree_p50;
    out_degree_p99;
    out_degree_max;
    in_degree_p50;
    in_degree_p99;
    in_degree_max;
    degree_p50;
    degree_p99;
    degree_max;
    edge_label_counts;
    node_label_counts;
  }

let no_rows = { off = [||]; kv = [||] }
let entry k v = (k lsl 31) lor v
let entry_key e = e lsr 31
let entry_value e = e land 0x7fffffff

let no_attrs =
  {
    dict = [||];
    node_props = no_rows;
    edge_props = no_rows;
    dimension = 0;
    node_features = no_rows;
    edge_features = no_rows;
  }

let make ~attrs ~num_nodes ~esrc ~edst ~num_labels ~elabel ~label_names ~label_keys
    ~num_node_labels ~node_labels ~node_label_names ~node_label_keys ~node_name ~edge_name =
  let num_edges = Array.length esrc in
  if Array.length edst <> num_edges || Array.length elabel <> num_edges then
    invalid_arg "Snapshot.make: esrc/edst/elabel lengths differ";
  if Array.length node_labels <> num_nodes then
    invalid_arg "Snapshot.make: node_labels length";
  if Array.length label_keys <> num_labels || Array.length node_label_keys <> num_node_labels then
    invalid_arg "Snapshot.make: one key array per label";
  let out_off, out_eid, out_nbr, in_off, in_eid, in_nbr = pack_csr num_nodes esrc edst in
  let node_label_bits =
    Array.init num_node_labels (fun _ -> B.raw_create (max num_nodes 1))
  in
  let node_label_counts = Array.make num_node_labels 0 in
  Array.iteri
    (fun v ls ->
      List.iter
        (fun l ->
          B.raw_add node_label_bits.(l) v;
          node_label_counts.(l) <- node_label_counts.(l) + 1)
        ls)
    node_labels;
  let edge_label_counts = Array.make num_labels 0 in
  if num_labels > 0 then
    Array.iter (fun l -> edge_label_counts.(l) <- edge_label_counts.(l) + 1) elabel;
  {
    num_nodes;
    num_edges;
    esrc;
    edst;
    out_off;
    out_eid;
    out_nbr;
    in_off;
    in_eid;
    in_nbr;
    num_labels;
    elabel;
    label_names;
    label_keys;
    num_node_labels;
    node_label_names;
    node_label_keys;
    node_label_bits;
    attrs;
    node_name;
    edge_name;
    stats = stats_of_columns ~num_nodes ~out_off ~in_off ~edge_label_counts ~node_label_counts;
    epoch = fresh_epoch ();
    memo = Gqkg_util.Memo.create ();
  }

let intern ~n ~get =
  let ids = Hashtbl.create 16 in
  let distinct = ref [] in
  let table =
    Array.init n (fun i ->
        let x = get i in
        match Hashtbl.find_opt ids x with
        | Some id -> id
        | None ->
            let id = Hashtbl.length ids in
            Hashtbl.add ids x id;
            distinct := x :: !distinct;
            id)
  in
  (table, Array.of_list (List.rev !distinct))

(* ---- Atomic tests ------------------------------------------------------ *)

(* The one label rule, for every model: [Label c] holds on label id [l]
   when [c] equals one of the constants that name [l].  Generic edge
   tests call it per edge, so it allocates nothing. *)
let rec names c k i = i < Array.length k && (Const.equal c k.(i) || names c k (i + 1))

let keys_hold keys l = function
  | Atom.Label c -> names c keys.(l) 0
  | Atom.Prop _ | Atom.Feature _ -> false

let label_holds s l atom = keys_hold s.label_keys l atom
let node_label_holds s l atom = keys_hold s.node_label_keys l atom

(* The value of [key] in object [o]'s row. *)
let row_find dict r o key =
  if Array.length r.off = 0 then None
  else begin
    let rec go i stop =
      if i = stop then None
      else if Const.equal dict.(entry_key r.kv.(i)) key then Some dict.(entry_value r.kv.(i))
      else go (i + 1) stop
    in
    go r.off.(o) r.off.(o + 1)
  end

(* Some entry of object [o]'s row maps [p] to [v]. A key may carry
   several values (RDF), its entries adjacent: after the first key
   match only that key id is scanned on. *)
let rec key_maps_to dict kv k v i stop =
  i < stop
  && entry_key kv.(i) = k
  && (Const.equal v dict.(entry_value kv.(i)) || key_maps_to dict kv k v (i + 1) stop)

let rec row_maps_to dict kv p v i stop =
  i < stop
  &&
  let k = entry_key kv.(i) in
  if Const.equal dict.(k) p then key_maps_to dict kv k v i stop
  else row_maps_to dict kv p v (i + 1) stop

let prop_holds a r o p v =
  Array.length r.off > 0 && row_maps_to a.dict r.kv p v r.off.(o) r.off.(o + 1)

(* An absent feature is ⊥. *)
let feature_holds a r o i v =
  i >= 1 && i <= a.dimension
  && Const.equal v (Option.value (row_find a.dict r o (Const.Int i)) ~default:Const.Bottom)

let node_atom s v atom =
  match atom with
  | Atom.Label _ ->
      let rec go l =
        l < s.num_node_labels
        && ((B.raw_mem s.node_label_bits.(l) v && node_label_holds s l atom) || go (l + 1))
      in
      go 0
  | Atom.Prop (p, c) -> prop_holds s.attrs s.attrs.node_props v p c
  | Atom.Feature (i, c) -> feature_holds s.attrs s.attrs.node_features v i c

let edge_atom s e atom =
  match atom with
  | Atom.Label _ -> s.num_labels > 0 && label_holds s s.elabel.(e) atom
  | Atom.Prop (p, c) -> prop_holds s.attrs s.attrs.edge_props e p c
  | Atom.Feature (i, c) -> feature_holds s.attrs s.attrs.edge_features e i c

(* ---- Property and feature columns -------------------------------------- *)

let find_const dict c =
  let lo = ref 0 and hi = ref (Array.length dict) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Const.compare dict.(mid) c < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length dict && Const.equal dict.(!lo) c then !lo else -1

let row dict r o =
  if Array.length r.off = 0 then [||]
  else
    Array.init (r.off.(o + 1) - r.off.(o)) (fun i ->
        let e = r.kv.(r.off.(o) + i) in
        (dict.(entry_key e), dict.(entry_value e)))

module Consts = Hashtbl.Make (Const)

(* One pass interns every constant by first occurrence while the rows
   are filled; ranking the distinct constants then sorts the
   dictionary, and the rows are renumbered in place. *)
let intern_attrs ~dimension ~node_props ~edge_props ~node_features ~edge_features =
  let ids = Consts.create 64 in
  let intern c =
    match Consts.find_opt ids c with
    | Some i -> i
    | None ->
        let i = Consts.length ids in
        Consts.add ids c i;
        i
  in
  let rows objs =
    let n = Array.length objs in
    if Array.for_all (fun r -> Array.length r = 0) objs then no_rows
    else begin
      let off = Array.make (n + 1) 0 in
      Array.iteri (fun o r -> off.(o + 1) <- off.(o) + Array.length r) objs;
      let kv = Array.make off.(n) 0 in
      Array.iteri
        (fun o r -> Array.iteri (fun i (p, v) -> kv.(off.(o) + i) <- entry (intern p) (intern v)) r)
        objs;
      { off; kv }
    end
  in
  let node_props = rows node_props and edge_props = rows edge_props in
  let node_features = rows node_features and edge_features = rows edge_features in
  let sorted = Array.of_seq (Consts.to_seq ids) in
  Array.sort (fun (a, _) (b, _) -> Const.compare a b) sorted;
  let rank = Array.make (Array.length sorted) 0 in
  Array.iteri (fun r (_, i) -> rank.(i) <- r) sorted;
  let rerank e = entry rank.(entry_key e) rank.(entry_value e) in
  List.iter
    (fun r -> Array.iteri (fun i e -> r.kv.(i) <- rerank e) r.kv)
    [ node_props; edge_props; node_features; edge_features ];
  { dict = Array.map fst sorted; node_props; edge_props; dimension; node_features; edge_features }

type segment = Base of int * int | Row of int array

let gather_rows r segments =
  let empty = Array.length r.off = 0 in
  let start v = if empty then 0 else r.off.(v) in
  let count, total =
    List.fold_left
      (fun (n, p) -> function
        | Base (a, b) -> (n + b - a, p + start b - start a)
        | Row kv -> (n + 1, p + Array.length kv))
      (0, 0) segments
  in
  if total = 0 then no_rows
  else begin
    let off = Array.make (count + 1) total and kv = Array.make total 0 in
    let fill (k, o) = function
      | Base (a, b) ->
          let s0 = start a and len = start b - start a in
          if empty then Array.fill off k (b - a) o
          else if o = s0 then Array.blit r.off a off k (b - a)
          else
            for v = a to b - 1 do
              off.(k + v - a) <- o + r.off.(v) - s0
            done;
          Array.blit r.kv s0 kv o len;
          (k + b - a, o + len)
      | Row row ->
          off.(k) <- o;
          Array.blit row 0 kv o (Array.length row);
          (k + 1, o + Array.length row)
    in
    ignore (List.fold_left fill (0, 0) segments);
    { off; kv }
  end

let node_label s v =
  let rec go l =
    if l = s.num_node_labels then -1 else if B.raw_mem s.node_label_bits.(l) v then l else go (l + 1)
  in
  go 0

(* ---- The Section 3 models --------------------------------------------- *)

(* Shared freeze for the three Const-labeled models: one label per node,
   one per edge, each named by its own constant, ids copied out as names
   so nothing here keeps the model alive. *)
let of_const_labeled ~attrs ~num_nodes ~num_edges ~endpoints ~node_label ~edge_label ~node_id
    ~edge_id =
  let esrc = Array.init num_edges (fun e -> fst (endpoints e)) in
  let edst = Array.init num_edges (fun e -> snd (endpoints e)) in
  let elabel, edge_universe = intern ~n:num_edges ~get:edge_label in
  let nlabel, node_universe = intern ~n:num_nodes ~get:node_label in
  let node_names = Array.init num_nodes (fun v -> Const.to_string (node_id v)) in
  let edge_names = Array.init num_edges (fun e -> Const.to_string (edge_id e)) in
  make ~attrs ~num_nodes ~esrc ~edst ~num_labels:(Array.length edge_universe)
    ~elabel ~label_names:(Array.map Const.to_string edge_universe)
    ~label_keys:(Array.map (fun c -> [| c |]) edge_universe)
    ~num_node_labels:(Array.length node_universe)
    ~node_labels:(Array.map (fun l -> [ l ]) nlabel)
    ~node_label_names:(Array.map Const.to_string node_universe)
    ~node_label_keys:(Array.map (fun c -> [| c |]) node_universe)
    ~node_name:(Array.get node_names) ~edge_name:(Array.get edge_names)

let of_labeled g =
  of_const_labeled ~attrs:no_attrs ~num_nodes:(Labeled_graph.num_nodes g)
    ~num_edges:(Labeled_graph.num_edges g) ~endpoints:(Labeled_graph.endpoints g)
    ~node_label:(Labeled_graph.node_label g) ~edge_label:(Labeled_graph.edge_label g)
    ~node_id:(Labeled_graph.node_id g) ~edge_id:(Labeled_graph.edge_id g)

let of_property g =
  let n = Property_graph.num_nodes g and m = Property_graph.num_edges g in
  let attrs =
    intern_attrs ~dimension:0
      ~node_props:(Array.init n (Property_graph.node_properties g))
      ~edge_props:(Array.init m (Property_graph.edge_properties g))
      ~node_features:[||] ~edge_features:[||]
  in
  of_const_labeled ~attrs ~num_nodes:n ~num_edges:m ~endpoints:(Property_graph.endpoints g)
    ~node_label:(Property_graph.node_label g) ~edge_label:(Property_graph.edge_label g)
    ~node_id:(Property_graph.node_id g) ~edge_id:(Property_graph.edge_id g)

(* The label survives flattening as feature 1 (index 0), so Label atoms
   are determined by that feature alone. *)
let of_vector g =
  let features vector =
    let present (i, c) = if Const.equal c Const.Bottom then None else Some (Const.Int (i + 1), c) in
    Array.of_seq (Seq.filter_map present (Array.to_seqi vector))
  in
  let n = Vector_graph.num_nodes g and m = Vector_graph.num_edges g in
  let attrs =
    intern_attrs ~dimension:(Vector_graph.dimension g) ~node_props:[||] ~edge_props:[||]
      ~node_features:(Array.init n (fun v -> features (Vector_graph.node_vector g v)))
      ~edge_features:(Array.init m (fun e -> features (Vector_graph.edge_vector g e)))
  in
  of_const_labeled ~attrs ~num_nodes:n ~num_edges:m ~endpoints:(Vector_graph.endpoints g)
    ~node_label:(fun v -> (Vector_graph.node_vector g v).(0))
    ~edge_label:(fun e -> (Vector_graph.edge_vector g e).(0))
    ~node_id:(Vector_graph.node_id g) ~edge_id:(Vector_graph.edge_id g)

(* ---- Accessors --------------------------------------------------------- *)

let endpoints s e = (s.esrc.(e), s.edst.(e))
let out_degree s v = s.out_off.(v + 1) - s.out_off.(v)
let in_degree s v = s.in_off.(v + 1) - s.in_off.(v)

let iter_out s v f =
  for i = s.out_off.(v) to s.out_off.(v + 1) - 1 do
    f s.out_eid.(i) s.out_nbr.(i)
  done

let iter_in s v f =
  for i = s.in_off.(v) to s.in_off.(v + 1) - 1 do
    f s.in_eid.(i) s.in_nbr.(i)
  done

(* Side-by-side disjoint union (nodes and edges of [b] shifted past
   [a]'s), used by the WL isomorphism test and kernel: joint color
   refinement needs one graph whose palette spans both sides.  Labels
   and properties are dropped — refinement only reads structure; names
   delegate to the matching side. *)
let disjoint_union a b =
  let n1 = a.num_nodes and m1 = a.num_edges in
  let n = n1 + b.num_nodes and m = m1 + b.num_edges in
  let shift off arr1 arr2 =
    Array.init m (fun e -> if e < m1 then arr1.(e) else arr2.(e - m1) + off)
  in
  make ~attrs:no_attrs ~num_nodes:n ~esrc:(shift n1 a.esrc b.esrc)
    ~edst:(shift n1 a.edst b.edst) ~num_labels:0 ~elabel:(Array.make m 0) ~label_names:[||]
    ~label_keys:[||] ~num_node_labels:0 ~node_labels:(Array.make n []) ~node_label_names:[||]
    ~node_label_keys:[||]
    ~node_name:(fun v -> if v < n1 then a.node_name v else b.node_name (v - n1))
    ~edge_name:(fun e -> if e < m1 then a.edge_name e else b.edge_name (e - m1))

let describe s =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "%d nodes, %d edges\n" s.num_nodes s.num_edges);
  let universe names counts what =
    if Array.length names = 0 then Buffer.add_string buf (Printf.sprintf "%s: (none)\n" what)
    else begin
      let entries =
        Array.to_list (Array.mapi (fun i name -> Printf.sprintf "%s (%d)" name counts.(i)) names)
      in
      Buffer.add_string buf (Printf.sprintf "%s: %s\n" what (String.concat ", " entries))
    end
  in
  universe s.node_label_names s.stats.node_label_counts "node labels";
  universe s.label_names s.stats.edge_label_counts "edge labels";
  Buffer.add_string buf
    (Printf.sprintf "degree p50/p99/max: %d/%d/%d (out %d/%d/%d, in %d/%d/%d)\n"
       s.stats.degree_p50 s.stats.degree_p99 s.stats.degree_max s.stats.out_degree_p50
       s.stats.out_degree_p99 s.stats.out_degree_max s.stats.in_degree_p50 s.stats.in_degree_p99
       s.stats.in_degree_max);
  Buffer.contents buf
