(* Properties of the benchmark's generated inputs: determinism, key
   distinctness, cache fit and script validity. *)

open Gqkg_graph
module W = Perfbench_workloads.Workloads
module Jsonx = Gqkg_server.Jsonx

let seed = 11
let seconds = 1
let snap = lazy (Overlay.snapshot (Overlay.base_of_property (W.contact_graph seed)))
let stream w ~seed = W.stream w ~seed ~seconds (Lazy.force snap)
let served = [ W.Hot_reads; W.Cold_reads; W.Write_mix ]
let field name line = Option.get (Jsonx.member name (Result.get_ok (Jsonx.parse line)))
let op line = Jsonx.str (field "op" line)

let queries lines =
  List.filter_map (fun l -> if op l = Some "query" then Jsonx.str (field "q" l) else None) lines

let requests (s : W.stream) = Array.to_list s.W.warm @ Array.to_list s.W.timed

let test_same_seed_same_bytes () =
  List.iter
    (fun w ->
      let a = stream w ~seed and b = stream w ~seed in
      Alcotest.(check (list string)) (W.name w ^ " stream") (requests a) (requests b);
      Alcotest.(check (array string)) (W.name w ^ " probe") a.W.probe b.W.probe;
      Alcotest.(check bool)
        (W.name w ^ " differs on another seed")
        true
        (requests (stream w ~seed:(seed + 1)) <> requests a))
    served;
  Alcotest.(check string)
    "graph"
    (Graph_io.property_graph_to_string (W.contact_graph seed))
    (Graph_io.property_graph_to_string (W.contact_graph seed))

let test_cold_keys_distinct () =
  let s = stream W.Cold_reads ~seed in
  let snap = Lazy.force snap in
  let keys =
    List.map
      (fun q ->
        match Gqkg_core.Planner.semantic_key snap (Gqkg_automata.Regex_parser.parse q) with
        | Some k -> k
        | None -> Alcotest.failf "no semantic key for %s" q)
      (queries (requests s))
  in
  Alcotest.(check int) "warm-up and timed keys pairwise distinct"
    (List.length keys) (List.length (List.sort_uniq compare keys))

let test_hot_pool_fits () =
  let s = stream W.Hot_reads ~seed in
  let pool = List.sort_uniq compare (queries (requests s)) in
  Alcotest.(check bool) "pool within the result cache" true
    (List.length pool <= W.result_cache_entries && pool <> [])

(* Commit every script in stream order, as the daemon would; every line
   of every script must apply.  Returns the number of commits and the
   final snapshot. *)
let commit_all base lines =
  let mgr = Epochs.create base in
  List.iter
    (fun line ->
      match op line with
      | Some "mutate" ->
          let overlay = Overlay.create (Epochs.base mgr) in
          let script = Option.get (Jsonx.arr (field "ops" line)) in
          List.iteri
            (fun i v ->
              let text = Option.get (Jsonx.str v) in
              match Journal.op_of_line ~line:(i + 1) text with
              | Some op -> Overlay.apply ~line:(i + 1) overlay op
              | None -> ())
            script;
          Alcotest.(check int) "every line applied" (List.length script) (Overlay.size overlay);
          ignore (Epochs.commit mgr overlay)
      | _ -> ())
    lines;
  (Epochs.commits mgr, Epochs.snapshot mgr)

let test_scripts_apply () =
  let base () = Overlay.base_of_property (W.contact_graph seed) in
  let s = stream W.Write_mix ~seed in
  let writes = List.length (List.filter (fun l -> op l = Some "mutate") (requests s)) in
  let commits, last =
    try commit_all (base ()) (requests s)
    with Journal.Replay_error { message; _ } -> Alcotest.failf "GQ048: %s" message
  in
  Alcotest.(check int) "write-mix commits" writes commits;
  (* one written person exists at a time, so the graph keeps its size *)
  let first = Overlay.snapshot (base ()) in
  Alcotest.(check (pair int int))
    "one person and its two edges more"
    (first.Snapshot.num_nodes + 1, first.Snapshot.num_edges + 2)
    (last.Snapshot.num_nodes, last.Snapshot.num_edges);
  (* the probe's scripts are alike; the first 300 stand for the rest *)
  let probe = Array.to_list (Array.sub (stream W.Hot_reads ~seed).W.probe 0 300) in
  Alcotest.(check int) "probe commits" 300 (fst (commit_all (base ()) probe))

(* Each write-mix commit changes the answer of a hot key it reads, so a
   lost or misapplied write shows in the served totals. *)
let test_writes_visible () =
  let s = stream W.Write_mix ~seed in
  let keys = List.sort_uniq compare (queries (requests s)) in
  let total snap q =
    List.length (Gqkg_core.Rpq.eval_pairs snap (Gqkg_automata.Regex_parser.parse q))
  in
  let mgr = Epochs.create (Overlay.base_of_property (W.contact_graph seed)) in
  let totals () = List.map (total (Epochs.snapshot mgr)) keys in
  let writes = List.filter (fun l -> op l = Some "mutate") (requests s) in
  List.iteri
    (fun k line ->
      if k < 8 then begin
        let before = totals () in
        let overlay = Overlay.create (Epochs.base mgr) in
        List.iteri
          (fun i v ->
            Option.iter
              (Overlay.apply ~line:(i + 1) overlay)
              (Journal.op_of_line ~line:(i + 1) (Option.get (Jsonx.str v))))
          (Option.get (Jsonx.arr (field "ops" line)));
        ignore (Epochs.commit mgr overlay);
        Alcotest.(check bool) (Printf.sprintf "write %d changes a total" k) true (totals () <> before)
      end)
    writes

let () =
  Alcotest.run "perfbench workloads"
    [
      ( "generator",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_same_seed_same_bytes;
          Alcotest.test_case "cold keys distinct" `Quick test_cold_keys_distinct;
          Alcotest.test_case "hot pool fits the cache" `Quick test_hot_pool_fits;
          Alcotest.test_case "write scripts apply" `Quick test_scripts_apply;
          Alcotest.test_case "writes visible to the reads" `Quick test_writes_visible;
        ] );
    ]
