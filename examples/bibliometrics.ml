(* Figure 1 end to end: generate the synthetic bibliographic knowledge
   graph, store it as RDF triples, and answer the paper's question —
   how many publications per keyword per year? — through the BGP engine.

     dune exec examples/bibliometrics.exe

   The corpus is synthetic (we have no DBLP in this environment; see
   DESIGN.md), calibrated to reproduce the figure's qualitative shape. *)

open Gqkg_util
open Gqkg_workload

let () =
  let rng = Splitmix.create 2021 in
  let store = Bibliometrics.generate ~volume_scale:0.5 rng in
  Printf.printf "bibliographic knowledge graph: %d triples over %d terms\n\n"
    (Gqkg_kg.Triple_store.size store)
    (Gqkg_kg.Triple_store.num_terms store);

  (* The Figure 1 table, straight from BGP counting queries. *)
  let series = Bibliometrics.figure1_series store in
  let years = List.init 11 (fun i -> 2010 + i) in
  let table =
    Table.create ~aligns:(Table.Left :: List.map (fun _ -> Table.Right) years)
      ("keyword" :: List.map string_of_int years)
  in
  List.iter
    (fun s ->
      Table.add_row table
        (s.Bibliometrics.keyword
        :: List.map (fun y -> string_of_int (List.assoc y s.Bibliometrics.counts)) years))
    series;
  print_endline "publications per keyword and year (cf. Figure 1):";
  Table.print table;

  (* The falling share of KG papers that are about RDF/SPARQL. *)
  print_endline "\nshare of knowledge-graph papers also about RDF/SPARQL:";
  List.iter
    (fun (year, share) -> Printf.printf "  %d: %.0f%%  (paper reports ~%s)\n" year (100.0 *. share)
        (if year = 2015 then "70%" else "14%"))
    (Bibliometrics.share_statistics store);

  (* A taste of graph querying over the same KG: co-keyword structure via
     the RPQ engine (publication -> keyword -> publication). *)
  let inst = (Gqkg_kg.Triple_store.view store).snap in
  let r = Gqkg_automata.Regex_parser.parse "?Publication/keyword/keyword^-/?Publication" in
  let count = Gqkg_core.Count.count inst r ~length:2 in
  Printf.printf "\nordered publication pairs sharing a keyword (incl. self): %.0f\n" count
