(* Tests for the persistence + layout pipeline: binary snapshots must
   round-trip every model-observable answer (save -> load -> the same
   name-level answers for label, property and feature atoms, also after
   an overlay commit and under every node order; version-1 files still
   load, label-only), renumbering must be
   answer-invariant bit-for-bit, the CSR of a loaded snapshot must agree
   with a naive scan of its endpoint columns (and a degree gather through
   it must not change across layouts), the partitioned adjacency
   must cover every edge exactly once, and corrupt files must raise
   [Snapshot_io.Corrupt] — never escape as a crash. *)

open Gqkg_graph
open Gqkg_core

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let parse = Gqkg_automata.Regex_parser.parse

let graph_gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 1 10 in
    let* edges = int_range 0 24 in
    return (seed, nodes, edges))

let make_snapshot (seed, nodes, edges) =
  let rng = Gqkg_util.Splitmix.create seed in
  Snapshot.of_labeled
    (Gqkg_workload.Gen_graph.random_labeled rng ~nodes ~edges ~node_labels:[ "a"; "b"; "c" ]
       ~edge_labels:[ "x"; "y"; "z" ])

(* Label probes for label-only graphs: edge labels, node-label tests,
   closures, converses. *)
let probe_queries =
  List.map parse [ "x"; "x/y"; "(x + y)*"; "?a/x/?b"; "x^-/(y + z)"; "?c/(x + y + z)*/?a" ]

(* Answers in name space: the only id-stable surface across layouts. *)
let name_pairs (s : Snapshot.t) pairs =
  List.sort compare
    (List.map (fun (a, b) -> (s.Snapshot.node_name a, s.Snapshot.node_name b)) pairs)

let answers (s : Snapshot.t) r = name_pairs s (Rpq.eval_pairs s ~max_length:6 r)

let with_temp_gqs f =
  let path = Filename.temp_file "gqkg_test" ".gqs" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

(* The sum over edges of the target's out-degree, read through the CSR
   neighbour column: invariant under any node renumbering. *)
let degree_gather (s : Snapshot.t) =
  let off = s.Snapshot.out_off and nbr = s.Snapshot.out_nbr in
  let acc = ref 0 in
  for v = 0 to s.Snapshot.num_nodes - 1 do
    for i = off.(v) to off.(v + 1) - 1 do
      let w = nbr.(i) in
      acc := !acc + off.(w + 1) - off.(w)
    done
  done;
  !acc

(* ---------- QCheck: save -> load round trip ---------- *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"save -> load preserves label-query answers" ~count:150 graph_gen
    (fun g ->
      let s = make_snapshot g in
      with_temp_gqs (fun path ->
          ignore (Snapshot_io.save ~path s);
          let loaded = Snapshot_io.load path in
          checki "nodes" s.Snapshot.num_nodes loaded.Snapshot.num_nodes;
          checki "edges" s.Snapshot.num_edges loaded.Snapshot.num_edges;
          List.iter
            (fun r -> checkb "answers" true (answers s r = answers loaded r))
            probe_queries;
          (* Names round-trip element-wise, not just through queries. *)
          for v = 0 to s.Snapshot.num_nodes - 1 do
            checkb "node name" true
              (String.equal (s.Snapshot.node_name v) (loaded.Snapshot.node_name v))
          done;
          true))

let prop_roundtrip_renumbered =
  QCheck2.Test.make ~name:"renumber -> save -> load preserves answers" ~count:150
    QCheck2.Gen.(pair graph_gen (oneofl [ Renumber.Degree; Renumber.Bfs ]))
    (fun (g, order) ->
      let s = make_snapshot g in
      let renumbered, perm = Renumber.renumber order s in
      with_temp_gqs (fun path ->
          ignore (Snapshot_io.save ~perm ~path renumbered);
          let loaded, stored = Snapshot_io.load_with_perm path in
          (match stored with
          | Some p ->
              checkb "stored permutation matches" true
                (p.Renumber.old_of_new = perm.Renumber.old_of_new)
          | None -> checkb "identity permutation elided" true (Renumber.is_identity perm));
          checki "degree gather" (degree_gather s) (degree_gather loaded);
          List.iter
            (fun r -> checkb "answers" true (answers s r = answers loaded r))
            probe_queries;
          true))

(* Save [s] under [order] and reload it. *)
let reload order (s : Snapshot.t) =
  let renumbered, perm = Renumber.renumber order s in
  with_temp_gqs (fun path ->
      ignore (Snapshot_io.save ~perm ~path renumbered);
      Snapshot_io.load path)

(* A committed epoch over the graph's freeze: a props-only delta (new
   values grow the property dictionary, a delete shrinks a row) or an
   adds-only one; it must equal the from-scratch replay of the graph's
   history plus the delta before it is persisted. *)
let committed delta g =
  let c = Const.str in
  let ops =
    match delta with
    | `Props ->
        [
          Mutation.Set_node_prop { id = c "v0"; prop = c "age"; value = Const.int 7 };
          Mutation.Set_node_prop { id = c "v0"; prop = c "zip"; value = c "z9" };
          Mutation.Del_node_prop { id = c "v0"; prop = c "name" };
        ]
        @
        if Property_graph.num_edges g > 0 then
          [ Mutation.Set_edge_prop { id = c "e0"; prop = c "w"; value = Const.int 1 } ]
        else []
    | `Adds ->
        [
          Mutation.Add_node { id = c "v99"; label = c "b" };
          Mutation.Set_node_prop { id = c "v99"; prop = c "age"; value = Const.int 2 };
          Mutation.Add_edge { id = c "e99"; src = c "v99"; dst = c "v0"; label = c "x" };
          Mutation.Set_edge_prop { id = c "e99"; prop = c "w"; value = Const.int 1 };
        ]
  in
  let overlay = Overlay.create (Overlay.base_of_property g) in
  List.iter (Overlay.apply overlay) ops;
  let s = Overlay.snapshot (fst (Overlay.commit overlay)) in
  let replayed = Journal.replay_ops (Journal.ops_of_graph g @ ops) in
  checkb "commit = replay" true
    (Attr_graphs.atom_table s = Attr_graphs.atom_table (Snapshot.of_property replayed));
  s

let attr_queries =
  List.map parse
    [ "?(a & age=1)/x"; "(x & w=1)/y^-"; "?(age=2)/(y & w=0)*/?b"; "?(f2=1)/(f5=2)"; "(f1=x & f5=1)*" ]

let prop_attr_roundtrip =
  QCheck2.Test.make ~name:"round trip: property and feature atoms" ~count:150
    QCheck2.Gen.(
      triple Attr_graphs.gen
        (oneofl [ Renumber.Identity; Renumber.Degree; Renumber.Bfs ])
        (oneofl [ `Property; `Vector; `Props_commit; `Adds_commit ]))
    (fun (params, order, kind) ->
      let g = Attr_graphs.property_graph params in
      let s =
        match kind with
        | `Property -> Snapshot.of_property g
        | `Vector -> Snapshot.of_vector (Attr_graphs.vector_graph g)
        | `Props_commit -> committed `Props g
        | `Adds_commit -> committed `Adds g
      in
      let loaded = reload order s in
      checkb "atoms" true (Attr_graphs.atom_table s = Attr_graphs.atom_table loaded);
      List.iter (fun r -> checkb "answers" true (answers s r = answers loaded r)) attr_queries;
      true)

(* ---------- QCheck: renumbering is answer-invariant (no I/O) ---------- *)

let prop_renumber_invariant =
  QCheck2.Test.make ~name:"renumbering is answer-invariant" ~count:200
    QCheck2.Gen.(pair graph_gen (oneofl [ Renumber.Identity; Renumber.Degree; Renumber.Bfs ]))
    (fun (g, order) ->
      let s = make_snapshot g in
      let renumbered, perm = Renumber.renumber order s in
      checki "node count" s.Snapshot.num_nodes renumbered.Snapshot.num_nodes;
      (* the permutation really is one *)
      let seen = Array.make (max 1 s.Snapshot.num_nodes) false in
      Array.iter (fun v -> seen.(v) <- true) perm.Renumber.old_of_new;
      checkb "node permutation total" true (Array.for_all Fun.id seen);
      List.iter
        (fun r -> checkb "answers" true (answers s r = answers renumbered r))
        probe_queries;
      true)

(* ---------- QCheck: loaded CSR vs naive edge scan ---------- *)

(* One node's adjacency as (edge, neighbor) pairs, in walk order. *)
let adjacency_list iter s v =
  let pairs = ref [] in
  iter s v (fun e w -> pairs := (e, w) :: !pairs);
  List.rev !pairs

let scan_adjacency (s : Snapshot.t) v ~out =
  let pairs = ref [] in
  for e = s.Snapshot.num_edges - 1 downto 0 do
    let u = if out then s.Snapshot.esrc.(e) else s.Snapshot.edst.(e) in
    let nbr = if out then s.Snapshot.edst.(e) else s.Snapshot.esrc.(e) in
    if u = v then pairs := (e, nbr) :: !pairs
  done;
  !pairs

let prop_loaded_csr =
  QCheck2.Test.make ~name:"loaded CSR = naive scan of loaded columns" ~count:150 graph_gen
    (fun g ->
      let s = make_snapshot g in
      let renumbered, perm = Renumber.renumber Renumber.Degree s in
      with_temp_gqs (fun path ->
          ignore (Snapshot_io.save ~perm ~path renumbered);
          let loaded = Snapshot_io.load path in
          for v = 0 to loaded.Snapshot.num_nodes - 1 do
            checkb "out row" true
              (adjacency_list Snapshot.iter_out loaded v = scan_adjacency loaded v ~out:true);
            checkb "in row" true
              (adjacency_list Snapshot.iter_in loaded v = scan_adjacency loaded v ~out:false)
          done;
          true))

(* ---------- QCheck: partitioned adjacency covers every edge once ---------- *)

let prop_partition_cover =
  QCheck2.Test.make ~name:"partition covers each edge exactly once" ~count:200
    QCheck2.Gen.(pair graph_gen (int_range 1 4))
    (fun (g, block_bits) ->
      let s = make_snapshot g in
      let p = Partition.build ~block_bits s in
      let seen = Array.make (max 1 s.Snapshot.num_edges) 0 in
      for b = 0 to Partition.num_blocks p - 1 do
        Partition.iter_block p ~block:b (fun e _src dst ->
            seen.(e) <- seen.(e) + 1;
            checki "edge filed in its destination's block" b (Partition.block_of_node p dst))
      done;
      checkb "each edge once" true
        (s.Snapshot.num_edges = 0 || Array.for_all (fun c -> c = 1) seen);
      true)

(* ---------- synthetic-name elision ---------- *)

let test_synthetic_names () =
  let rng = Gqkg_util.Splitmix.create 7 in
  let s = Gqkg_workload.Gen_graph.stream_gnm rng ~nodes:500 ~edges:1500 in
  with_temp_gqs (fun path ->
      let report = Snapshot_io.save ~path s in
      checkb "generator names elided from disk" false report.Snapshot_io.names_kept;
      let loaded = Snapshot_io.load path in
      checkb "synthetic names re-synthesized" true
        (String.equal (loaded.Snapshot.node_name 42) "n42"
        && String.equal (loaded.Snapshot.edge_name 7) "e7");
      (* ...and through a permutation they keep naming the *old* ids. *)
      let renumbered, perm = Renumber.renumber Renumber.Degree s in
      let path2 = path ^ ".2" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path2 then Sys.remove path2)
        (fun () ->
          ignore (Snapshot_io.save ~perm ~path:path2 renumbered);
          let l2 = Snapshot_io.load path2 in
          for v = 0 to 99 do
            checkb "renumbered synthetic name" true
              (String.equal (l2.Snapshot.node_name v)
                 ("n" ^ string_of_int perm.Renumber.old_of_new.(v)))
          done))

(* ---------- the round-trip contract ---------- *)

(* Figure 2 answers every query alike after a reload, property atoms
   included. *)
let test_figure2_roundtrip () =
  let s = Snapshot.of_property (Figure2.property ()) in
  with_temp_gqs (fun path ->
      ignore (Snapshot_io.save ~path s);
      let loaded = Snapshot_io.load path in
      List.iter
        (fun r -> checkb "query" true (answers s r = answers loaded r))
        (List.map parse
           [
             "rides"; "?person/rides/?bus"; "(rides + lives)*"; "?(person & age=42)/rides";
             "?(name=TransInc)/owns"; "(rides & date=3/3/21)/rides^-";
           ]);
      checkb "atoms" true (Attr_graphs.atom_table s = Attr_graphs.atom_table loaded);
      checki "property query answers after reload" 1
        (List.length (Rpq.eval_pairs loaded (parse "?person/(contact & date=3/4/21)/?infected"))))

(* The lossiness contract of version 1, the format written before
   properties persisted: a version-1 file still loads, keeps Label atoms
   only (the same label answers as Figure 2), and its property atoms
   test false. *)
let test_version1_fixture () =
  let path = Filename.concat "../examples/gqs" "figure2-v1.gqs" in
  checki "version" 1 (Snapshot_io.read_info path).Snapshot_io.i_version;
  let loaded = Snapshot_io.load path and s = Snapshot.of_property (Figure2.property ()) in
  List.iter
    (fun r -> checkb "label query" true (answers s r = answers loaded r))
    (List.map parse [ "rides"; "?person/rides/?bus"; "(rides + lives)*"; "contact^-/lives" ]);
  checki "no properties" 0
    (List.length (Rpq.eval_pairs loaded (parse "?person/(contact & date=3/4/21)/?infected")))

(* ---------- corrupt inputs ---------- *)

let corrupt_fixture name = Filename.concat "../examples/corrupt" name

let expect_corrupt ~name ~fragment =
  let path = corrupt_fixture name in
  match Snapshot_io.load path with
  | _ -> Alcotest.fail (name ^ ": should have been rejected")
  | exception Snapshot_io.Corrupt message ->
      let contains s sub =
        let n = String.length s and m = String.length sub in
        let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
        loop 0
      in
      if not (contains message fragment) then
        Alcotest.fail (Printf.sprintf "%s: message %S lacks %S" name message fragment)

let test_corrupt_fixtures () =
  expect_corrupt ~name:"truncated.gqs" ~fragment:"section table runs past end";
  expect_corrupt ~name:"bad-magic.gqs" ~fragment:"bad magic";
  expect_corrupt ~name:"bad-version.gqs" ~fragment:"unsupported snapshot version 99";
  expect_corrupt ~name:"bad-checksum.gqs" ~fragment:"checksum mismatch";
  checkb "sniff rejects bad magic" false (Snapshot_io.is_snapshot_file (corrupt_fixture "bad-magic.gqs"));
  checkb "sniff accepts truncated-but-magic" true
    (Snapshot_io.is_snapshot_file (corrupt_fixture "truncated.gqs"))

(* Rows [save] writes as given but the loader's order check refuses:
   a property row may repeat a key with ascending values, never an
   entry, nor go down; a feature row may not repeat a key. *)
let test_unordered_rows () =
  let one_node attrs =
    Snapshot.make ~attrs ~num_nodes:1 ~esrc:[||] ~edst:[||] ~num_labels:0 ~elabel:[||]
      ~label_names:[||] ~label_keys:[||] ~num_node_labels:0 ~node_labels:[| [] |]
      ~node_label_names:[||] ~node_label_keys:[||] ~node_name:(fun _ -> "v")
      ~edge_name:string_of_int
  in
  (* ascending: "age" < 30 < 31 (strings before ints) *)
  let dict = [| Const.str "age"; Const.int 30; Const.int 31 |] in
  let row entries = { Snapshot.off = [| 0; List.length entries |]; kv = Array.of_list entries } in
  let props entries = { Snapshot.no_attrs with dict; node_props = row entries } in
  let features entries = { Snapshot.no_attrs with dict; dimension = 31; node_features = row entries } in
  let e = Snapshot.entry in
  with_temp_gqs (fun path ->
      let loads attrs =
        ignore (Snapshot_io.save ~path (one_node attrs));
        match Snapshot_io.load path with _ -> true | exception Snapshot_io.Corrupt _ -> false
      in
      checkb "one key, two values" true (loads (props [ e 0 1; e 0 2 ]));
      checkb "a repeated (key, value) entry" false (loads (props [ e 0 1; e 0 1 ]));
      checkb "descending entries" false (loads (props [ e 0 2; e 0 1 ]));
      checkb "a repeated feature key" false (loads (features [ e 2 0; e 2 1 ])))

(* A saved file taken apart into its sections and written back with
   [edit id payload] applied, int sections at width 8 and the checksum
   refolded as the writer folds it (decoded values; the string tables'
   blobs, sections [blob_ids], as strings) — so a hand-built section
   reaches the loader's structural checks, not the checksum's. *)
type section = Ints of int array | Blob of string

let blob_ids = [ 9; 11; 17; 19; 23; 35; 38 ]

let rewrite_sections path edit =
  let image = In_channel.with_open_bin path In_channel.input_all in
  let u32 o = Int32.to_int (String.get_int32_le image o) land 0xffffffff in
  let i64 o = Int64.to_int (String.get_int64_le image o) in
  let sections =
    List.init (u32 40) (fun i ->
        let b = 64 + (24 * i) in
        let id = u32 b and width = u32 (b + 4) and off = i64 (b + 8) and len = i64 (b + 16) in
        let element j =
          match width with
          | 1 -> Char.code image.[off + j]
          | 4 -> u32 (off + (4 * j))
          | _ -> i64 (off + (8 * j))
        in
        let payload =
          if List.mem id blob_ids then Blob (String.sub image off len)
          else Ints (Array.init (len / width) element)
        in
        (id, edit id payload))
  in
  let module C = Gqkg_util.Checksum in
  let width = function Ints _ -> 8 | Blob _ -> 1 in
  let header = [ u32 8; u32 12; i64 16; i64 24; u32 32; u32 36 ] in
  let h = ref (List.fold_left C.add_int C.empty header) in
  List.iter
    (fun (id, p) ->
      h := C.add_int (C.add_int !h id) (width p);
      h := match p with Ints a -> C.add_int_array !h a | Blob s -> C.add_string !h s)
    sections;
  let header = Bytes.of_string (String.sub image 0 64) in
  Bytes.set_int64_le header 48 (Int64.of_int (C.finish !h));
  let table = Buffer.create 256 and data = Buffer.create 1024 in
  let base = 64 + (24 * List.length sections) in
  List.iter
    (fun (id, p) ->
      let bytes =
        match p with
        | Blob s -> s
        | Ints a ->
            let b = Bytes.create (8 * Array.length a) in
            Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.of_int x)) a;
            Bytes.to_string b
      in
      let entry = Bytes.make 24 '\000' in
      Bytes.set_int32_le entry 0 (Int32.of_int id);
      Bytes.set_int32_le entry 4 (Int32.of_int (width p));
      Bytes.set_int64_le entry 8 (Int64.of_int (base + Buffer.length data));
      Bytes.set_int64_le entry 16 (Int64.of_int (String.length bytes));
      Buffer.add_bytes table entry;
      Buffer.add_string data bytes)
    sections;
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_bytes oc header;
      Buffer.output_buffer oc table;
      Buffer.output_buffer oc data)

(* Hand-built node-label key sections (36: per-label offsets into the
   key list, 38: the keys' blob) the loader must refuse. One node with
   three labels; the first is keyed by two constants, so the sections
   are written. *)
let test_corrupt_label_keys () =
  let names = [| "a"; "b"; "c" |] in
  let s =
    Snapshot.make ~attrs:Snapshot.no_attrs ~num_nodes:1 ~esrc:[||] ~edst:[||] ~num_labels:0
      ~elabel:[||] ~label_names:[||] ~label_keys:[||] ~num_node_labels:3
      ~node_labels:[| [ 0; 1; 2 ] |] ~node_label_names:names
      ~node_label_keys:
        [| [| Const.str "urn:t/a"; Const.str "a" |]; [| Const.str "b" |]; [| Const.str "c" |] |]
      ~node_name:(fun _ -> "v") ~edge_name:string_of_int
  in
  with_temp_gqs (fun path ->
      let loads edit =
        ignore (Snapshot_io.save ~path s);
        rewrite_sections path edit;
        Snapshot_io.load path
      in
      let kept = loads (fun _ p -> p) in
      checkb "a rewrite as saved loads" true
        (kept.Snapshot.node_label_keys = s.Snapshot.node_label_keys);
      let refused what edit =
        match loads edit with
        | _ -> Alcotest.fail (what ^ ": should have been rejected")
        | exception Snapshot_io.Corrupt message ->
            checkb (what ^ ": " ^ message) true
              (String.starts_with ~prefix:"node label keys" message
              || String.starts_with ~prefix:"malformed constant" message)
      in
      let first a id p = if id = 36 then Ints a else p in
      refused "a malformed constant" (fun id p ->
          match p with
          | Blob text when id = 38 -> Blob ("q" ^ String.sub text 1 (String.length text - 1))
          | _ -> p);
      refused "a key offset out of range" (first [| 0; 2; 3; 5 |]);
      refused "descending key offsets" (first [| 0; 3; 2; 4 |]);
      refused "a wrong count" (first [| 0; 2; 4 |]))

(* Every single-byte corruption of a valid file must raise [Corrupt] —
   no Invalid_argument, no out-of-bounds, no silent wrong graph.  The
   checksum is over decoded values, so any payload flip is caught; any
   header/table flip must be caught structurally.  Half the files are an
   RDF view's, whose label-key and property sections are flipped too. *)
let prop_byte_flips =
  QCheck2.Test.make ~name:"every single-byte flip raises Corrupt" ~count:240
    QCheck2.Gen.(triple bool (int_bound 1_000_000) (int_bound 10_000))
    (fun (rdf, seed, flip_seed) ->
      let s =
        if rdf then
          let g = Attr_graphs.property_graph (seed, 4, 6) in
          (Gqkg_kg.Triple_store.view (Gqkg_kg.Pg_rdf.of_property_graph g)).snap
        else make_snapshot (seed, 6, 12)
      in
      with_temp_gqs (fun path ->
          ignore (Snapshot_io.save ~path s);
          let ic = open_in_bin path in
          let len = in_channel_length ic in
          let image = really_input_string ic len in
          close_in ic;
          let rng = Gqkg_util.Splitmix.create flip_seed in
          let pos = Gqkg_util.Splitmix.int rng len in
          let bit = 1 lsl Gqkg_util.Splitmix.int rng 8 in
          let corrupted = Bytes.of_string image in
          Bytes.set corrupted pos (Char.chr (Char.code (Bytes.get corrupted pos) lxor bit));
          let oc = open_out_bin path in
          output_bytes oc corrupted;
          close_out oc;
          (match Snapshot_io.load path with
          | _ ->
              Alcotest.fail
                (Printf.sprintf "flip of byte %d accepted (file len %d)" pos len)
          | exception Snapshot_io.Corrupt _ -> ());
          true))

(* ---------- read_info ---------- *)

let test_read_info () =
  let s = make_snapshot (11, 9, 20) in
  let renumbered, perm = Renumber.renumber Renumber.Degree s in
  with_temp_gqs (fun path ->
      let report = Snapshot_io.save ~perm ~path renumbered in
      let info = Snapshot_io.read_info path in
      checki "version" Snapshot_io.version info.Snapshot_io.i_version;
      checki "nodes" s.Snapshot.num_nodes info.Snapshot_io.i_nodes;
      checki "edges" s.Snapshot.num_edges info.Snapshot_io.i_edges;
      checki "file bytes" report.Snapshot_io.file_bytes info.Snapshot_io.i_file_bytes;
      checkb "renumbered flag" (not (Renumber.is_identity perm)) info.Snapshot_io.i_renumbered;
      (* random_labeled names nodes "n<i>" in freeze order — exactly the
         canonical synthetic pattern, so [`Auto] elides the tables. *)
      checkb "canonical generator names detected" true info.Snapshot_io.i_synthetic_names)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_persist"
    [
      ("roundtrip", q [ prop_roundtrip; prop_roundtrip_renumbered; prop_attr_roundtrip ]);
      ("renumber", q [ prop_renumber_invariant; prop_loaded_csr ]);
      ("partition", q [ prop_partition_cover ]);
      ( "contract",
        [
          Alcotest.test_case "synthetic-name elision" `Quick test_synthetic_names;
          Alcotest.test_case "round trip: every Figure 2 atom" `Quick test_figure2_roundtrip;
          Alcotest.test_case "lossiness: Label only" `Quick test_version1_fixture;
          Alcotest.test_case "read_info" `Quick test_read_info;
        ] );
      ( "corrupt",
        q [ prop_byte_flips ]
        @ [
            Alcotest.test_case "committed fixtures" `Quick test_corrupt_fixtures;
            Alcotest.test_case "unordered rows" `Quick test_unordered_rows;
            Alcotest.test_case "label keys" `Quick test_corrupt_label_keys;
          ] );
    ]
