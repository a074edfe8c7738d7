(* gqkg: command-line front end to the library ([gqkg --help] lists the
   subcommands).  [query], [count] and [mutate] are argv adapters over
   Gqkg_server.Request, the pipeline [gqkg serve] answers with; their
   terminal renderers live here, and every JSON printed comes from
   Gqkg_server.Jsonx.

   Exit-code contract (shared by lint and contain; the table lives in
   DESIGN.md section 5g and is asserted in CI): 0 = clean / holds /
   unknown, 1 = findings (lint: statically empty; contain: refuted),
   2 = usage or parse error (GQ04x), 3 = budget tripped (GQ03x),
   answer printed is a sound partial.

   Anywhere a command loads a graph, a binary snapshot written by
   [gqkg save] is accepted transparently (sniffed by magic / the .gqs
   suffix) — loading is O(read) instead of parse + freeze. *)

open Cmdliner
open Gqkg_graph
open Gqkg_core
module Analyze = Gqkg_analysis.Analyze
module Diagnostic = Gqkg_analysis.Diagnostic
module Jsonx = Gqkg_server.Jsonx
module Request = Gqkg_server.Request

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if verbose then Some Logs.Debug else Some Logs.Warning)

let verbose_flag =
  let doc = "Enable debug logging." in
  Term.(const setup_logs $ Arg.(value & flag & info [ "v"; "verbose" ] ~doc))

let graph_arg =
  let doc = "Graph file: property-graph text (.pg), a $(b,gqkg save) snapshot (.gqs) or a journal." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"GRAPH" ~doc)

let length_arg = Arg.(value & opt int 3 & info [ "k"; "length" ] ~doc:"Path length.")

let regex_arg position =
  let doc = "Regular path query, e.g. '?person/rides/?bus'." in
  Arg.(required & pos position (some string) None & info [] ~docv:"REGEX" ~doc)

let print_json v = print_endline (Jsonx.to_string v)
let prerr_diagnostic d = prerr_endline (Jsonx.to_string (Jsonx.of_diagnostic d))

(* Structured user-input failure: one GQ04x JSON diagnostic on stderr
   and exit code 2 — never a raw OCaml backtrace.  Codes: GQ040
   malformed graph file, GQ041 file-system error, GQ042 regex parse
   error, GQ043 CRPQ parse error, GQ044 SPARQL parse error, GQ045
   N-Triples parse error, GQ046 bad argument, GQ047 corrupt binary
   snapshot, GQ048 malformed or invalid mutation journal/script. *)
let fail_user ~code ~subterm ~message =
  prerr_diagnostic (Diagnostic.user_error ~code ~subterm ~message);
  exit 2

(* A path names a binary snapshot if it carries the .gqs suffix or
   starts with the snapshot magic — the suffix check first, so a
   corrupt .gqs reports GQ047 rather than a text-parse GQ040. *)
let names_snapshot path =
  Filename.check_suffix path ".gqs" || Snapshot_io.is_snapshot_file path

(* A path names a mutation journal (replayed on load) by suffix. *)
let names_journal path =
  Filename.check_suffix path ".log" || Filename.check_suffix path ".journal"

(* Journal errors surface as GQ048 with file:line context — including
   the torn-final-line case of a crashed append. *)
let load_journal path =
  match Journal.load path with
  | g -> g
  | exception Journal.Replay_error { file; line; message } ->
      fail_user ~code:"GQ048" ~subterm:path
        ~message:
          (Graph_io.error_to_string ~file:(Some (Option.value file ~default:path)) ~line ~message)
  | exception Sys_error message -> fail_user ~code:"GQ041" ~subterm:path ~message

let load_property path =
  if names_snapshot path then
    fail_user ~code:"GQ046" ~subterm:path
      ~message:"this command needs a text property-graph file, not a binary snapshot (.gqs)"
  else if names_journal path then load_journal path
  else
    match Graph_io.load_property_graph path with
    | pg -> pg
    | exception Graph_io.Parse_error { file; line; message } ->
        fail_user ~code:"GQ040" ~subterm:path ~message:(Graph_io.error_to_string ~file ~line ~message)
    | exception Sys_error message -> fail_user ~code:"GQ041" ~subterm:path ~message

let load_snapshot path =
  match Snapshot_io.load path with
  | s -> s
  | exception Snapshot_io.Corrupt message -> fail_user ~code:"GQ047" ~subterm:path ~message
  | exception Sys_error message -> fail_user ~code:"GQ041" ~subterm:path ~message

(* Every query-side command loads through here, so all of them accept
   the text format (parse + freeze), a binary snapshot (bounds-checked
   decode), or an append-only journal (replay + freeze). *)
let load_instance path =
  if names_snapshot path then load_snapshot path
  else Snapshot.of_property (load_property path)

(* The writable form, for the commands that commit epochs: the same
   one freeze, plus the writer's id index on first write. *)
let load_base path =
  try Overlay.base_of_snapshot (load_instance path)
  with Invalid_argument message -> fail_user ~code:"GQ046" ~subterm:path ~message

let load_store path =
  match Gqkg_kg.Ntriples.load path with
  | store -> store
  | exception Gqkg_kg.Ntriples.Parse_error { file; line; message } ->
      fail_user ~code:"GQ045" ~subterm:path ~message:(Graph_io.error_to_string ~file ~line ~message)
  | exception Sys_error message -> fail_user ~code:"GQ041" ~subterm:path ~message

(* The terminal face of a request error.  [script] names the mutation
   script a [Script_error] points into. *)
let fail_request ?(script = "") = function
  | Request.Parse_error { text; _ } as e ->
      fail_user ~code:"GQ042" ~subterm:text ~message:(Request.error_message e)
  | Request.Bad_length _ as e ->
      fail_user ~code:"GQ046" ~subterm:"--length" ~message:(Request.error_message e)
  | Request.Negative_bound _ as e ->
      fail_user ~code:"GQ046" ~subterm:"--max-length" ~message:(Request.error_message e)
  | Request.Script_error { line; message } ->
      fail_user ~code:"GQ048" ~subterm:script
        ~message:(Graph_io.error_to_string ~file:(Some script) ~line ~message)

let parse_regex text = match Request.parse text with Ok r -> r | Error e -> fail_request e
let validate posed = match Request.validate posed with Ok v -> v | Error e -> fail_request e

(* --timeout-ms / --max-states: the resource governor's CLI face.  The
   budget itself is created inside each command right before evaluation
   so the wall-clock deadline excludes graph loading. *)
let budget_args =
  let timeout_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "timeout-ms" ] ~docv:"MS"
          ~doc:"Wall-clock budget for evaluation; on exhaustion a sound partial result is returned.")
  in
  let max_states =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-states" ] ~docv:"N"
          ~doc:"Bound on interned product states; on exhaustion a sound partial result is returned.")
  in
  let max_steps =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Bound on traversal/join steps (e.g. variable bindings in the multiway join); on \
             exhaustion a sound partial result is returned.")
  in
  Term.(
    const (fun timeout_ms max_states max_steps -> { Request.timeout_ms; max_states; max_steps })
    $ timeout_ms $ max_states $ max_steps)

(* Exit code 3 with a GQ03x JSON diagnostic on stderr when the budget
   tripped and the printed answer is therefore a sound partial result. *)
let report = function
  | None -> ()
  | Some d ->
      prerr_diagnostic d;
      exit 3

let report_budget budget = report (Diagnostic.of_budget budget)

(* The terminal renderer of a request's answer: one tab-separated line
   per pair, or the exact count. *)
let print_pair inst a b =
  Printf.printf "%s\t%s\n" (inst.Snapshot.node_name a) (inst.Snapshot.node_name b)

let print_answer inst = function
  | Request.Pairs { src; dst; _ } -> Array.iteri (fun i a -> print_pair inst a dst.(i)) src
  | Request.Path_count { count; _ } -> Printf.printf "exact: %.0f\n" count

(* Ctrl-C trips the active budget instead of killing the process
   mid-write: the kernel unwinds cooperatively at its next budget
   check, the sound partial answer is printed, and [report_budget]
   exits 3 with a GQ034 diagnostic — the same degradation ladder a
   timeout takes. *)
let cancel_on_sigint budget f =
  match
    Sys.signal Sys.sigint
      (Sys.Signal_handle (fun _ -> Gqkg_util.Budget.cancel budget))
  with
  | exception Invalid_argument _ -> f () (* platform without signals *)
  | previous -> Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigint previous) f

(* ---- generate ---- *)

let save_property output pg =
  Graph_io.save_property_graph output pg;
  Printf.printf "wrote %s: %d nodes, %d edges\n" output (Property_graph.num_nodes pg)
    (Property_graph.num_edges pg)

let generate_cmd =
  let run () kind seed scale output =
    if scale < 1 then
      fail_user ~code:"GQ046" ~subterm:"--scale"
        ~message:(Printf.sprintf "scale %d is below 1" scale);
    let rng = Gqkg_util.Splitmix.create seed in
    let pg =
      match kind with
      | "contact" -> Gqkg_workload.Contact_network.scaled rng ~scale
      | "er" ->
          Property_graph.of_labeled
            (Gqkg_workload.Gen_graph.erdos_renyi_gnm rng ~nodes:(50 * scale) ~edges:(150 * scale))
      | "ba" ->
          Property_graph.of_labeled
            (Gqkg_workload.Gen_graph.barabasi_albert rng ~nodes:(50 * scale) ~attach:2)
      | "figure2" -> Figure2.property ()
      | other ->
          fail_user ~code:"GQ046" ~subterm:other
            ~message:"unknown graph kind (try contact, er, ba, figure2)"
    in
    save_property output pg
  in
  let kind =
    Arg.(value & opt string "contact" & info [ "kind" ] ~docv:"KIND" ~doc:"contact | er | ba | figure2")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let scale = Arg.(value & opt int 1 & info [ "scale" ] ~doc:"Size multiplier.") in
  let output = Arg.(required & pos 0 (some string) None & info [] ~docv:"OUTPUT" ~doc:"Output file.") in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic graph")
    Term.(const run $ verbose_flag $ kind $ seed $ scale $ output)

(* ---- query ---- *)

let node_of_name inst name =
  let rec find v =
    if v >= inst.Snapshot.num_nodes then
      fail_user ~code:"GQ046" ~subterm:name ~message:"unknown node"
    else if inst.Snapshot.node_name v = name then v
    else find (v + 1)
  in
  find 0

(* The semantic caches' hits and lookups in this process. *)
let print_cache_counters () =
  let s = Semcache.stats () in
  Printf.printf
    "semantic-cache: %d hits / %d lookups (plans: %d hits / %d lookups, shapes: %d hits / %d \
     lookups)\n"
    s.Semcache.result_hits (s.Semcache.result_hits + s.Semcache.result_misses) s.Semcache.plan_hits
    (s.Semcache.plan_hits + s.Semcache.plan_misses) s.Semcache.shape_hits
    (s.Semcache.shape_hits + s.Semcache.shape_misses)

(* Resolve a --sources selector: comma-separated node names and/or
   [label:<name>] items (all nodes carrying that label, ascending).
   Duplicates are dropped, first occurrence wins, so the output order
   follows the selector. *)
let resolve_sources inst spec =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let add v =
    if not (Hashtbl.mem seen v) then begin
      Hashtbl.replace seen v ();
      out := v :: !out
    end
  in
  List.iter
    (fun item ->
      match String.index_opt item ':' with
      | Some i when String.sub item 0 i = "label" ->
          let label = String.sub item (i + 1) (String.length item - i - 1) in
          let atom = Gqkg_graph.Atom.label label in
          let matched = ref 0 in
          for v = 0 to inst.Snapshot.num_nodes - 1 do
            if Snapshot.node_atom inst v atom then begin
              incr matched;
              add v
            end
          done;
          if !matched = 0 then Logs.warn (fun m -> m "label %S matches no node" label)
      | _ -> add (node_of_name inst item))
    (List.filter (fun s -> s <> "") (String.split_on_char ',' spec));
  Array.of_list (List.rev !out)

let query_cmd =
  let run () path regex max_length sources repeat limits =
    let inst = load_instance path in
    match sources with
    | None ->
        (* Through the request pipeline and the Governor, so repeated
           evaluations of the same (or a semantically equivalent) query
           hit the semantic result cache; --repeat N demonstrates and
           exercises it.  Budgeted runs never consult the cache, so
           each repeat gets a fresh budget and really evaluates. *)
        let req = validate { Request.q = regex; kind = Request.Query { max_length } } in
        let eval () =
          let budget = Request.budget limits in
          cancel_on_sigint budget (fun () -> Request.eval ~budget inst req)
        in
        let r = eval () in
        print_answer inst r.Request.answer;
        for _ = 2 to repeat do
          ignore (eval ())
        done;
        if repeat > 1 then print_cache_counters ();
        report r.Request.diagnostic
    | Some spec ->
        let r = parse_regex regex in
        let sources = resolve_sources inst spec in
        let budget = Request.budget limits in
        let batches0 = Gqkg_core.Frontier.batches_total () in
        let results =
          cancel_on_sigint budget (fun () ->
              Rpq.reachable_many ~budget inst ?max_length r ~sources)
        in
        let total = ref 0 in
        Array.iteri
          (fun i targets ->
            List.iter
              (fun b ->
                incr total;
                print_pair inst sources.(i) b)
              targets)
          results;
        Logs.info (fun m ->
            m "%d pairs from %d sources (%d frontier batches)" !total (Array.length sources)
              (Gqkg_core.Frontier.batches_total () - batches0));
        report_budget budget
  in
  let max_length =
    Arg.(value & opt (some int) None & info [ "max-length" ] ~doc:"Bound on path length.")
  in
  let sources =
    Arg.(
      value
      & opt (some string) None
      & info [ "sources" ] ~docv:"A,B,label:L"
          ~doc:
            "Evaluate from these sources only (comma-separated node names and/or label:<name> \
             selectors), batched through the multi-source frontier engine.")
  in
  let repeat =
    Arg.(
      value
      & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Evaluate the query N times and report semantic-cache counters (pairs are printed \
             once).")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Endpoint pairs of matching paths")
    Term.(
      const run $ verbose_flag $ graph_arg $ regex_arg 1 $ max_length $ sources $ repeat
      $ budget_args)

(* ---- count ---- *)

let count_cmd =
  let run () path regex length epsilon from_node to_node =
    (match epsilon with
    | Some e when not (e > 0.0 && e < 1.0) ->
        fail_user ~code:"GQ046" ~subterm:"--epsilon"
          ~message:(Printf.sprintf "epsilon %g is outside (0,1)" e)
    | _ -> ());
    let inst = load_instance path in
    (* One validation, the length rule included, for every count path. *)
    let req = validate { Request.q = regex; kind = Request.Count { length } } in
    let r = req.Request.q in
    let resolve = node_of_name inst in
    (match (from_node, to_node) with
    | Some a, Some b ->
        Printf.printf "exact (%s -> %s): %.0f\n" a b
          (Count.count_between inst r ~source:(resolve a) ~target:(resolve b) ~length)
    | Some a, None ->
        let product = Product.create inst r in
        let table = Count.build product ~depth:length in
        Printf.printf "exact (from %s): %.0f\n" a (Count.count_from table ~source:(resolve a) ~length)
    | None, Some _ -> fail_user ~code:"GQ046" ~subterm:"--to" ~message:"--to requires --from"
    | None, None ->
        let budget = Request.budget Request.no_limits in
        print_answer inst (Request.eval ~budget inst req).Request.answer);
    match epsilon with
    | Some epsilon ->
        Printf.printf "fpras(eps=%.2g): %.1f\n" epsilon (Approx_count.count inst r ~length ~epsilon)
    | None -> ()
  in
  let epsilon =
    Arg.(value & opt (some float) None & info [ "epsilon" ] ~doc:"Also run the FPRAS at this error.")
  in
  let from_node = Arg.(value & opt (some string) None & info [ "from" ] ~doc:"Restrict to a start node.") in
  let to_node = Arg.(value & opt (some string) None & info [ "to" ] ~doc:"Restrict to an end node (needs --from).") in
  Cmd.v
    (Cmd.info "count" ~doc:"Count matching paths of a given length")
    Term.(
      const run $ verbose_flag $ graph_arg $ regex_arg 1 $ length_arg $ epsilon $ from_node
      $ to_node)

(* ---- sample ---- *)

let sample_cmd =
  let run () path regex length n seed =
    let inst = load_instance path in
    (* Count's validation: the sampler builds the same length table. *)
    let r = (validate { Request.q = regex; kind = Request.Count { length } }).Request.q in
    let gen = Uniform_gen.create inst r ~length in
    if Uniform_gen.total_count gen = 0.0 then begin
      Printf.eprintf "no matching paths of length %d\n" length;
      exit 1
    end;
    let rng = Gqkg_util.Splitmix.create seed in
    List.iter (fun p -> print_endline (Path.to_string inst p)) (Uniform_gen.samples gen rng n)
  in
  let n = Arg.(value & opt int 5 & info [ "n" ] ~doc:"Number of samples.") in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"PRNG seed.") in
  Cmd.v
    (Cmd.info "sample" ~doc:"Uniformly sample matching paths")
    Term.(const run $ verbose_flag $ graph_arg $ regex_arg 1 $ length_arg $ n $ seed)

(* ---- enumerate ---- *)

let enumerate_cmd =
  let run () path regex length limit =
    let inst = load_instance path in
    (* Count's validation: the enumerator builds the same length table. *)
    let r = (validate { Request.q = regex; kind = Request.Count { length } }).Request.q in
    let e = Enumerate.create inst r ~length in
    let rec loop remaining =
      if remaining <> 0 then begin
        match Enumerate.next e with
        | Some p ->
            print_endline (Path.to_string inst p);
            loop (remaining - 1)
        | None -> ()
      end
    in
    loop limit;
    Logs.info (fun m -> m "emitted %d, max delay %d" (Enumerate.emitted e) (Enumerate.max_delay e))
  in
  let limit = Arg.(value & opt int 20 & info [ "limit" ] ~doc:"Stop after this many paths (-1: all).") in
  Cmd.v
    (Cmd.info "enumerate" ~doc:"Enumerate matching paths with bounded delay")
    Term.(const run $ verbose_flag $ graph_arg $ regex_arg 1 $ length_arg $ limit)

(* ---- centrality ---- *)

let centrality_cmd =
  let run () path measure regex top =
    let inst = load_instance path in
    let scores =
      match measure with
      | "betweenness" -> Gqkg_analytics.Centrality.betweenness ~directed:false inst
      | "pagerank" -> Gqkg_analytics.Centrality.pagerank inst
      | "closeness" -> Gqkg_analytics.Centrality.closeness inst
      | "bcr" -> begin
          match regex with
          | Some regex -> Gqkg_analytics.Regex_centrality.exact inst (parse_regex regex)
          | None -> fail_user ~code:"GQ046" ~subterm:"bcr" ~message:"bcr needs --regex"
        end
      | other ->
          fail_user ~code:"GQ046" ~subterm:other
            ~message:"unknown measure (try betweenness, bcr, pagerank, closeness)"
    in
    let order = Gqkg_analytics.Centrality.ranking scores in
    Array.iteri
      (fun rank v ->
        if rank < top then Printf.printf "%2d. %-12s %.4f\n" (rank + 1) (inst.Snapshot.node_name v) scores.(v))
      order
  in
  let measure =
    Arg.(value & opt string "betweenness" & info [ "measure" ] ~doc:"betweenness | bcr | pagerank | closeness")
  in
  let regex = Arg.(value & opt (some string) None & info [ "regex" ] ~doc:"Pattern for bcr.") in
  let top = Arg.(value & opt int 10 & info [ "top" ] ~doc:"Show this many nodes.") in
  Cmd.v
    (Cmd.info "centrality" ~doc:"Node centrality rankings")
    Term.(const run $ verbose_flag $ graph_arg $ measure $ regex $ top)

(* ---- match (CRPQ) ---- *)

let parse_crpq query =
  match Gqkg_logic.Crpq_parser.parse query with
  | q -> q
  | exception Gqkg_logic.Crpq_parser.Error { position; message } ->
      fail_user ~code:"GQ043" ~subterm:query
        ~message:(Printf.sprintf "parse error at position %d: %s" position message)

let match_cmd =
  let run () path query max_length show_plan limits =
    Result.iter_error fail_request (Request.check (Request.Query { max_length }));
    let inst = load_instance path in
    let q = parse_crpq query in
    if show_plan then print_string (Gqkg_logic.Crpq.explain ?max_length inst q)
    else begin
      let budget = Request.budget limits in
      cancel_on_sigint budget (fun () ->
          List.iter
            (fun row ->
              print_endline
                (String.concat "\t" (List.map (fun v -> inst.Snapshot.node_name v) row)))
            (Gqkg_logic.Crpq.answers ~budget ?max_length inst q));
      report_budget budget
    end
  in
  let query =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERY" ~doc:"e.g. 'SELECT x WHERE (x:person)-[rides]->(y:bus)'")
  in
  let max_length =
    Arg.(value & opt (some int) None & info [ "max-length" ] ~doc:"Bound on path length per atom.")
  in
  let show_plan = Arg.(value & flag & info [ "plan" ] ~doc:"Show the evaluation plan instead.") in
  Cmd.v
    (Cmd.info "match" ~doc:"Evaluate a conjunctive regular path query")
    Term.(const run $ verbose_flag $ graph_arg $ query $ max_length $ show_plan $ budget_args)

(* ---- convert ---- *)

let convert_cmd =
  let run () input output =
    let ends_with suffix s = Filename.check_suffix s suffix in
    match (ends_with ".pg" input, ends_with ".nt" output, ends_with ".nt" input, ends_with ".pg" output) with
    | true, true, _, _ ->
        let pg = load_property input in
        Gqkg_kg.Ntriples.save output (Gqkg_kg.Pg_rdf.of_property_graph pg);
        Printf.printf "wrote %s\n" output
    | _, _, true, true ->
        let store = load_store input in
        save_property output (Gqkg_kg.Pg_rdf.to_property_graph store)
    | _ ->
        fail_user ~code:"GQ046" ~subterm:(input ^ " -> " ^ output)
          ~message:"supported conversions: .pg -> .nt and .nt -> .pg"
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT" ~doc:"Input file.") in
  let output = Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT" ~doc:"Output file.") in
  Cmd.v
    (Cmd.info "convert" ~doc:"Convert between property-graph and N-Triples formats")
    Term.(const run $ verbose_flag $ input $ output)

(* ---- materialize (RDFS) ---- *)

let materialize_cmd =
  let run () input output =
    let store = load_store input in
    let before = Gqkg_kg.Triple_store.size store in
    let added = Gqkg_kg.Rdfs.materialize store in
    Gqkg_kg.Ntriples.save output store;
    Printf.printf "%d triples + %d inferred -> %s\n" before added output
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT" ~doc:"N-Triples input.") in
  let output = Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT" ~doc:"N-Triples output.") in
  Cmd.v
    (Cmd.info "materialize" ~doc:"Forward-chain RDFS entailments to fixpoint")
    Term.(const run $ verbose_flag $ input $ output)

(* ---- sparql ---- *)

let sparql_cmd =
  let run () path query =
    let store = load_store path in
    match Gqkg_kg.Sparql.run store query with
    | rows ->
        List.iter
          (fun row ->
            print_endline (String.concat "\t" (List.map Gqkg_kg.Term.to_string row)))
          rows
    | exception Gqkg_kg.Sparql.Error { position; message } ->
        fail_user ~code:"GQ044" ~subterm:query
          ~message:(Printf.sprintf "parse error at position %d: %s" position message)
  in
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRIPLES" ~doc:"N-Triples file.")
  in
  let query =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"QUERY" ~doc:"e.g. 'SELECT ?x WHERE { ?x a <urn:t/Person> }'")
  in
  Cmd.v
    (Cmd.info "sparql" ~doc:"Evaluate a SPARQL-lite query over an N-Triples file")
    Term.(const run $ verbose_flag $ path $ query)

(* ---- explain ---- *)

(* A SELECT-shaped input is a CRPQ: explain shows the multiway-join plan
   (chosen variable order + per-atom estimates) instead of the regex
   compilation pipeline. *)
let explain_crpq query graph =
  let q = parse_crpq query in
  match graph with
  | None ->
      fail_user ~code:"GQ046" ~subterm:query
        ~message:"explaining a conjunctive query needs --graph (estimates come from the snapshot)"
  | Some path ->
      let inst = load_instance path in
      print_string (Gqkg_logic.Crpq.explain inst q)

let explain_cmd =
  let run () regex graph limits =
    let is_select =
      String.length regex >= 6 && String.lowercase_ascii (String.sub regex 0 6) = "select"
    in
    if is_select then explain_crpq regex graph
    else begin
    let r = parse_regex regex in
    let budget = Request.budget limits in
    Printf.printf "expression : %s\n" (Gqkg_automata.Regex.to_string ~top:true r);
    let simplified = Gqkg_automata.Regex.simplify r in
    if not (Gqkg_automata.Regex.equal simplified r) then
      Printf.printf "simplified : %s\n" (Gqkg_automata.Regex.to_string ~top:true simplified);
    Printf.printf "size       : %d (simplified: %d)\n" (Gqkg_automata.Regex.size r)
      (Gqkg_automata.Regex.size simplified);
    Printf.printf "path length: min %d, max %s\n"
      (Gqkg_automata.Regex.min_path_length r)
      (match Gqkg_automata.Regex.max_path_length r with
      | Some m -> string_of_int m
      | None -> "unbounded");
    let nfa = Gqkg_automata.Nfa.of_regex simplified in
    Printf.printf "\n%s" (Gqkg_automata.Nfa.to_string nfa);
    match graph with
    | None -> ()
    | Some path -> (
        let inst = load_instance path in
        Printf.printf "\nsnapshot (epoch %d): %s" inst.Snapshot.epoch (Snapshot.describe inst);
        let plan = Planner.prepare_explained ~budget inst simplified in
        let report = plan.Planner.report in
        (match report.Analyze.nfa with
        | None -> Printf.printf "\nanalysis: statically empty on %s\n" path
        | Some _ ->
            Printf.printf "\nanalysis: %d -> %d states after trimming; seed cost fwd %.0f / bwd %.0f\n"
              report.Analyze.states_before report.Analyze.states_after report.Analyze.fwd_cost
              report.Analyze.bwd_cost);
        List.iter (fun d -> print_endline (Diagnostic.to_string d)) report.Analyze.diagnostics;
        (match plan.Planner.canon with
        | Some c ->
            Printf.printf "canonical: %d -> %d states, hash %s (%s%s)\n"
              report.Analyze.states_after c.Gqkg_analysis.Decide.states
              (Gqkg_analysis.Decide.hash_hex c.Gqkg_analysis.Decide.hash)
              (if plan.Planner.minimized then "evaluating minimized automaton"
               else "already minimal, kept as-is")
              (if plan.Planner.plan_cache_hit then "; plan cache hit" else "")
        | None -> ());
        (* The measured counts all-pairs evaluation picks its direction
           from, beside the static estimate that plays no part in it. *)
        Option.iter
          (fun c ->
            Printf.printf
              "live seeds: forward %d, backward %s; pairs run %s (static seed cost fwd %.0f / bwd %.0f)\n"
              c.Rpq.forward_live
              (match c.Rpq.backward_live with Some b -> string_of_int b | None -> "-")
              (match c.Rpq.direction with Rpq.Forward -> "forward" | Rpq.Backward -> "backward")
              report.Analyze.fwd_cost report.Analyze.bwd_cost;
            let candidates = function
              | Some k -> Printf.sprintf "%d of %d nodes" k inst.Snapshot.num_nodes
              | None -> "(full scan)"
            in
            Printf.printf "seed candidates: forward %s, backward %s\n"
              (candidates c.Rpq.forward_candidates)
              (match c.Rpq.backward_live with
              | Some _ -> candidates c.Rpq.backward_candidates
              | None -> "-"))
          (Rpq.seed_counts ~budget inst simplified);
        (match plan.Planner.prep with
        | Planner.Empty ->
            Printf.printf "on %s: 0 product states materialized, 0 answer pairs\n" path
        | Planner.Ready product ->
            ignore (Product.reach product ~depth:8);
            let batches0 = Gqkg_core.Frontier.batches_total () in
            let td0 = Gqkg_core.Frontier.top_down_levels_total () in
            let bu0 = Gqkg_core.Frontier.bottom_up_levels_total () in
            let pairs = Rpq.eval_pairs ~budget inst ~max_length:8 simplified in
            Printf.printf
              "on %s: %d nodes x %d NFA states -> %d product states materialized, %d answer pairs (paths up to 8)\n"
              path inst.Snapshot.num_nodes
              (Gqkg_automata.Nfa.num_states nfa)
              (Product.num_states product) (List.length pairs);
            let batches = Gqkg_core.Frontier.batches_total () - batches0 in
            let td = Gqkg_core.Frontier.top_down_levels_total () - td0 in
            let bu = Gqkg_core.Frontier.bottom_up_levels_total () - bu0 in
            if batches > 0 then
              Printf.printf
                "frontier: %d batched pass%s (up to %d sources each); %d level%s top-down, %d bottom-up\n"
                batches
                (if batches = 1 then "" else "es")
                Gqkg_core.Frontier.word_bits td
                (if td = 1 then "" else "s")
                bu
            else Printf.printf "frontier: not used (statically answered)\n");
        Printf.printf "budget: %s\n" (Gqkg_util.Budget.describe budget);
        report_budget budget)
    end
  in
  let regex =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REGEX"
          ~doc:"Path expression, or a SELECT ... WHERE conjunctive query (join plan).")
  in
  let graph =
    Arg.(value & opt (some file) None & info [ "graph" ] ~doc:"Also evaluate over this graph file.")
  in
  Cmd.v
    (Cmd.info "explain" ~doc:"Show the compilation pipeline of a path expression")
    Term.(const run $ verbose_flag $ regex $ graph $ budget_args)

(* ---- lint ---- *)

let lint_cmd =
  let run () path regex model json limits =
    let r = parse_regex regex in
    (* Lint is static — no product is built — so only the wall-clock
       budget bites, checked around the graph-sized phases (load, schema
       extraction).  A tripped budget marks the report partial. *)
    let budget = Request.budget limits in
    let pg = load_property path in
    Gqkg_util.Budget.charge_steps budget (Property_graph.num_nodes pg + Property_graph.num_edges pg);
    ignore (Gqkg_util.Budget.check budget);
    let schema =
      match model with
      | "property" -> Gqkg_analysis.Schema.of_property pg
      | "labeled" -> Gqkg_analysis.Schema.of_labeled (Property_graph.to_labeled pg)
      | "vector" -> Gqkg_analysis.Schema.of_vector (fst (Vector_graph.of_property pg))
      | "multigraph" -> Gqkg_analysis.Schema.of_multigraph (Property_graph.base pg)
      | other ->
          fail_user ~code:"GQ046" ~subterm:other
            ~message:"unknown model (try property, labeled, vector, multigraph)"
    in
    ignore (Gqkg_util.Budget.check budget);
    let report = Analyze.run ~schema r in
    (* The GQ05x redundancy pass (subsumed branches, dead disjuncts,
       absorbed closures) rides on the same budget: once it trips, the
       remaining containment checks answer Unknown and report nothing. *)
    let redundancy = Gqkg_analysis.Decide.lint ~schema ~budget r in
    let diagnostics =
      report.Analyze.diagnostics @ redundancy
      @ (match Diagnostic.of_budget budget with Some d -> [ d ] | None -> [])
    in
    let verdict = if Analyze.is_empty report then "empty" else "possibly-nonempty" in
    if json then
      print_json
        (Jsonx.Obj
           [
             ("verdict", Jsonx.Str verdict);
             ( "expression",
               Jsonx.Str (Gqkg_automata.Regex.to_string ~top:true report.Analyze.regex) );
             ("states_before", Jsonx.int report.Analyze.states_before);
             ("states_after", Jsonx.int report.Analyze.states_after);
             ("fwd_cost", Jsonx.Num report.Analyze.fwd_cost);
             ("bwd_cost", Jsonx.Num report.Analyze.bwd_cost);
             ("diagnostics", Jsonx.Arr (List.map Jsonx.of_diagnostic diagnostics));
           ])
    else begin
      Printf.printf "verdict    : %s\n" verdict;
      Printf.printf "expression : %s\n"
        (Gqkg_automata.Regex.to_string ~top:true report.Analyze.regex);
      if not (Analyze.is_empty report) then begin
        Printf.printf "automaton  : %d states (trimmed from %d)\n"
          report.Analyze.states_after report.Analyze.states_before;
        Printf.printf "seed cost  : forward %.0f, backward %.0f\n"
          report.Analyze.fwd_cost report.Analyze.bwd_cost
      end;
      List.iter (fun d -> print_endline (Diagnostic.to_string d)) diagnostics;
      Logs.info (fun m -> m "schema:@.%s" (Gqkg_analysis.Schema.to_string schema))
    end;
    report_budget budget;
    if Analyze.is_empty report then exit 1
  in
  let model =
    Arg.(
      value
      & opt string "property"
      & info [ "model" ] ~docv:"MODEL" ~doc:"property | labeled | vector | multigraph")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.") in
  Cmd.v
    (Cmd.info "lint" ~doc:"Statically analyze a path query against a graph's vocabulary")
    Term.(const run $ verbose_flag $ graph_arg $ regex_arg 1 $ model $ json $ budget_args)

(* ---- contain ---- *)

let contain_cmd =
  let run () r1_text r2_text graph json limits =
    let module D = Gqkg_analysis.Decide in
    let r1 = parse_regex r1_text and r2 = parse_regex r2_text in
    (* With --graph, atoms are interpreted against that graph's schema
       exactly as lint's GQ0xx pass would — an out-of-vocabulary label
       has the empty language there, never a spurious refutation. *)
    let schema =
      Option.map (fun p -> Gqkg_analysis.Schema.of_snapshot (load_instance p)) graph
    in
    let budget = Request.budget limits in
    let fwd, witness = D.contains_witness ?schema ~budget r1 r2 in
    let bwd = D.contains ?schema ~budget r2 r1 in
    let name = function D.True -> "holds" | D.False -> "refuted" | D.Unknown _ -> "unknown" in
    let reason = function D.Unknown why -> Some why | D.True | D.False -> None in
    let equivalent =
      match (fwd, bwd) with
      | D.True, D.True -> "yes"
      | D.False, _ | _, D.False -> "no"
      | _ -> "unknown"
    in
    let canon r = D.canonicalize ?schema ~budget r in
    let c1 = canon r1 and c2 = canon r2 in
    if json then begin
      let dir v =
        Jsonx.Obj
          (("verdict", Jsonx.Str (name v))
          :: (match reason v with Some why -> [ ("reason", Jsonx.Str why) ] | None -> []))
      in
      let canon_json = function
        | Some c ->
            Jsonx.Obj
              [ ("states", Jsonx.int c.D.states); ("hash", Jsonx.Str (D.hash_hex c.D.hash)) ]
        | None -> Jsonx.Null
      in
      let regex r = Jsonx.Str (Gqkg_automata.Regex.to_string ~top:true r) in
      print_json
        (Jsonx.Obj
           [
             ("r1", regex r1);
             ("r2", regex r2);
             ("r1_in_r2", dir fwd);
             ("r2_in_r1", dir bwd);
             ("equivalent", Jsonx.Str equivalent);
             ( "witness",
               match witness with
               | Some w -> Jsonx.Str (D.witness_to_string w)
               | None -> Jsonx.Null );
             ("canonical", Jsonx.Obj [ ("r1", canon_json c1); ("r2", canon_json c2) ]);
           ])
    end
    else begin
      Printf.printf "r1         : %s\n" (Gqkg_automata.Regex.to_string ~top:true r1);
      Printf.printf "r2         : %s\n" (Gqkg_automata.Regex.to_string ~top:true r2);
      let dir label v =
        Printf.printf "%s : %s%s\n" label (name v)
          (match reason v with Some why -> " (" ^ why ^ ")" | None -> "")
      in
      dir "r1 <= r2  " fwd;
      dir "r2 <= r1  " bwd;
      Printf.printf "equivalent : %s\n" equivalent;
      (match witness with
      | Some w -> Printf.printf "witness    : %s\n" (D.witness_to_string w)
      | None -> ());
      let show_canon label = function
        | Some c ->
            Printf.printf "canonical  : %s %d states, hash %s\n" label c.D.states
              (D.hash_hex c.D.hash)
        | None -> ()
      in
      show_canon "r1" c1;
      show_canon "r2" c2
    end;
    (* Same contract as lint: 3 partial beats 1 findings beats 0. *)
    report_budget budget;
    match fwd with D.False -> exit 1 | D.True | D.Unknown _ -> ()
  in
  let r1 = Arg.(required & pos 0 (some string) None & info [] ~docv:"R1" ~doc:"Candidate subquery.") in
  let r2 = Arg.(required & pos 1 (some string) None & info [] ~docv:"R2" ~doc:"Candidate superquery.") in
  let graph =
    Arg.(
      value
      & opt (some file) None
      & info [ "graph" ]
          ~doc:"Interpret label atoms against this graph's schema vocabulary (as lint does).")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.") in
  Cmd.v
    (Cmd.info "contain"
       ~doc:"Decide whether every path matching R1 also matches R2 (exit 1 when refuted)")
    Term.(const run $ verbose_flag $ r1 $ r2 $ graph $ json $ budget_args)

(* ---- save (binary snapshot) ---- *)

let save_cmd =
  let run () input output order names verify =
    let order =
      match Renumber.order_of_string order with
      | Some o -> o
      | None ->
          fail_user ~code:"GQ046" ~subterm:order
            ~message:"unknown order (try degree, bfs, none)"
    in
    let names =
      match names with
      | "auto" -> `Auto
      | "keep" -> `Keep
      | "drop" -> `Drop
      | other ->
          fail_user ~code:"GQ046" ~subterm:other
            ~message:"unknown names policy (try auto, keep, drop)"
    in
    let inst = load_instance input in
    let t0 = Gqkg_util.Mclock.now_ms () in
    let renumbered, perm = Renumber.renumber order inst in
    let perm = if Renumber.is_identity perm then None else Some perm in
    let report = Snapshot_io.save ~names ?perm ~path:output renumbered in
    let save_s = (Gqkg_util.Mclock.now_ms () -. t0) /. 1000. in
    Printf.printf
      "wrote %s: %d nodes, %d edges, %d sections, %d bytes (%.1f B/edge)\n"
      output inst.Snapshot.num_nodes inst.Snapshot.num_edges
      report.Snapshot_io.sections report.Snapshot_io.file_bytes
      report.Snapshot_io.bytes_per_edge;
    Printf.printf "order: %s%s, names: %s, checksum: %016x, %.3fs\n"
      (Renumber.order_to_string order)
      (if report.Snapshot_io.renumbered then " (permutation stored)" else "")
      (if report.Snapshot_io.names_kept then "kept" else "synthetic")
      report.Snapshot_io.checksum save_s;
    if verify then begin
      let t1 = Gqkg_util.Mclock.now_ms () in
      let reloaded = load_snapshot output in
      Printf.printf "verify: reloaded %d nodes, %d edges in %.3fs\n"
        reloaded.Snapshot.num_nodes reloaded.Snapshot.num_edges
        ((Gqkg_util.Mclock.now_ms () -. t1) /. 1000.)
    end
  in
  let input = Arg.(required & pos 0 (some file) None & info [] ~docv:"INPUT" ~doc:"Graph to freeze (.pg text or .gqs snapshot).") in
  let output = Arg.(required & pos 1 (some string) None & info [] ~docv:"OUTPUT" ~doc:"Snapshot file to write (.gqs).") in
  let order =
    Arg.(value & opt string "degree" & info [ "order" ] ~doc:"Node renumbering: degree | bfs | none.")
  in
  let names =
    Arg.(
      value
      & opt string "auto"
      & info [ "names" ]
          ~doc:"Name tables: auto (drop when synthetic) | keep | drop.")
  in
  let verify = Arg.(value & flag & info [ "verify" ] ~doc:"Reload the file after writing (checksum + bounds check).") in
  Cmd.v
    (Cmd.info "save"
       ~doc:"Freeze a graph to a binary snapshot, optionally renumbered for cache locality")
    Term.(const run $ verbose_flag $ input $ output $ order $ names $ verify)

(* ---- mutate (write path + MVCC snapshot epochs) ---- *)

let mutate_cmd =
  let run () input ops_file journal_out save_out query commit_every tolerate =
    let mgr = Epochs.create (load_base input) in
    let epoch0 = (Epochs.snapshot mgr).Snapshot.epoch in
    let lines =
      match In_channel.with_open_bin ops_file In_channel.input_all with
      | text -> String.split_on_char '\n' text
      | exception Sys_error message -> fail_user ~code:"GQ041" ~subterm:ops_file ~message
    in
    (* Ctrl-C must not kill the process mid-commit: the handler only
       raises a flag, the apply loop stops at the next op boundary, the
       pending overlay is flushed as a final (consistent) commit, and
       any --journal/--save outputs are still written.  Exit is then 3
       with a GQ034 diagnostic naming how far the script got. *)
    let interrupted = ref false in
    let previous_sigint =
      try Some (Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> interrupted := true)))
      with Invalid_argument _ -> None
    in
    (* Parse and apply errors alike point at the script's line (GQ048). *)
    let { Request.applied; ops; commits; reused; rebuilt } =
      match
        Request.mutate ~tolerate_partial:tolerate ?commit_every
          ~interrupted:(fun () -> !interrupted)
          mgr lines
      with
      | Ok m -> m
      | Error e -> fail_request ~script:ops_file e
    in
    Option.iter (Sys.set_signal Sys.sigint) previous_sigint;
    let snap = Epochs.snapshot mgr in
    Printf.printf "applied %d ops in %d commit(s): %d nodes, %d edges (epoch %d -> %d)\n"
      applied commits snap.Snapshot.num_nodes snap.Snapshot.num_edges epoch0 snap.Snapshot.epoch;
    if commits > 0 then
      Printf.printf "columns: %d reused, %d rebuilt across commits (reuse ratio %.2f)\n" reused
        rebuilt
        (float_of_int reused /. float_of_int (max 1 (reused + rebuilt)));
    (match journal_out with
    | Some path ->
        let history = Overlay.history (Epochs.base mgr) in
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Journal.ops_to_string history));
        Printf.printf "journal: wrote %s (%d ops, replayable minimal history)\n" path
          (List.length history)
    | None -> ());
    (match save_out with
    | Some path ->
        let report = Snapshot_io.save ~path snap in
        Printf.printf "snapshot: wrote %s (%d bytes)\n" path report.Snapshot_io.file_bytes
    | None -> ());
    Option.iter
      (fun regex ->
        let req = validate { Request.q = regex; kind = Request.Query { max_length = None } } in
        let budget = Request.budget Request.no_limits in
        print_answer snap (Request.eval ~budget snap req).Request.answer)
      query;
    if !interrupted then begin
      prerr_diagnostic
        (Diagnostic.make ~code:"GQ034" ~severity:Diagnostic.Error
           ~subterm:ops_file
           ~message:
             (Printf.sprintf
                "interrupted: applied %d of %d ops; committed epochs and outputs are consistent"
                applied ops));
      exit 3
    end
  in
  let input =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"GRAPH" ~doc:"Input graph: .pg text, .gqs snapshot, or .log/.journal journal.")
  in
  let ops_file =
    Arg.(
      required
      & opt (some file) None
      & info [ "ops" ] ~docv:"FILE"
          ~doc:"Mutation script, one op per line (node/mergenode/edge/mergeedge/nprop/eprop/delnprop/deleprop/delnode/deledge).")
  in
  let journal_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"OUT.log"
          ~doc:"Write the final state as a replayable journal (minimal history).")
  in
  let save_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"OUT.gqs" ~doc:"Also freeze the final state to a binary snapshot.")
  in
  let query =
    Arg.(
      value
      & opt (some string) None
      & info [ "query" ] ~docv:"REGEX"
          ~doc:"After committing, print the endpoint pairs of this path query on the final epoch.")
  in
  let commit_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "commit-every" ] ~docv:"N"
          ~doc:"Commit an epoch every N ops (default: one commit at the end).")
  in
  let tolerate =
    Arg.(
      value
      & flag
      & info [ "tolerate-partial" ]
          ~doc:"Ignore a torn final line in the ops file (crash recovery).")
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:"Apply a mutation script through the delta overlay and commit new snapshot epochs")
    Term.(
      const run $ verbose_flag $ input $ ops_file $ journal_out $ save_out $ query $ commit_every
      $ tolerate)

(* ---- serve (fault-tolerant multi-tenant query daemon) ---- *)

let serve_cmd =
  let run () path port max_clients workers queue_depth per_client default_timeout_ms
      default_max_states idle_timeout_ms fault_trip fault_drop =
    if idle_timeout_ms < 1 then
      fail_user ~code:"GQ046" ~subterm:"--idle-timeout-ms"
        ~message:(Printf.sprintf "idle timeout %d ms is below 1" idle_timeout_ms);
    (* SIGTERM/SIGINT request a graceful drain: stop accepting, finish
       or trip in-flight work, flush every response, then exit 0.  Both
       are blocked before any thread or domain starts, so every one
       inherits the mask, and the main thread takes them in
       [Thread.wait_signal]: a signal that arrives as soon as the first
       request is answered still drains.  The handlers never run; they
       make the kernel list both signals as caught (SigCgt), which tells
       a supervisor the daemon is ready for SIGTERM. *)
    let signals = [ Sys.sigint; Sys.sigterm ] in
    ignore (Thread.sigmask Unix.SIG_BLOCK signals);
    List.iter
      (fun s -> try Sys.set_signal s (Sys.Signal_handle ignore) with Invalid_argument _ -> ())
      signals;
    let mgr = Epochs.create (load_base path) in
    let config =
      {
        Gqkg_server.Server.default_config with
        max_clients;
        workers;
        queue_depth;
        per_client_depth = per_client;
        default_timeout_ms = Some default_timeout_ms;
        default_max_states;
        idle_timeout_ms;
        fault_trip_after_checks = fault_trip;
        fault_drop_after = fault_drop;
      }
    in
    let server =
      match Gqkg_server.Server.start ~port ~config mgr with
      | s -> s
      | exception Unix.Unix_error (e, _, _) ->
          fail_user ~code:"GQ046" ~subterm:(string_of_int port)
            ~message:(Printf.sprintf "cannot listen on port %d: %s" port (Unix.error_message e))
    in
    let snap = Epochs.snapshot mgr in
    Printf.printf "gqkg serve: listening on 127.0.0.1:%d (epoch %d, %d nodes, %d edges)\n%!"
      (Gqkg_server.Server.port server)
      snap.Snapshot.epoch snap.Snapshot.num_nodes snap.Snapshot.num_edges;
    ignore (Thread.wait_signal signals);
    prerr_endline "gqkg serve: draining...";
    Gqkg_server.Server.stop server;
    print_json (Gqkg_server.Server.metrics server)
  in
  let flag kind default name ~docv ~doc =
    Arg.(value & opt kind default & info [ name ] ~docv ~doc)
  in
  let int_flag = flag Arg.int and some_int_flag = flag Arg.(some int) None in
  let port =
    int_flag 7687 "port" ~docv:"P" ~doc:"TCP port to listen on (0 picks an ephemeral port)."
  in
  let max_clients =
    int_flag 32 "max-clients" ~docv:"N"
      ~doc:"Concurrent connections; beyond this, new connections get GQ061 and are closed."
  in
  let workers = int_flag 4 "workers" ~docv:"N" ~doc:"Request-execution threads." in
  let queue_depth =
    int_flag 64 "queue-depth" ~docv:"N"
      ~doc:"Admission-queue capacity; beyond this, requests are shed with GQ060."
  in
  let per_client =
    int_flag 8 "per-client-depth" ~docv:"N" ~doc:"One client's share of the queue (fairness bound)."
  in
  let default_timeout_ms =
    int_flag 10_000 "default-timeout-ms" ~docv:"MS"
      ~doc:
        "Per-request deadline when the request carries no timeout_ms field; exhaustion degrades \
         to a sound partial answer."
  in
  let default_max_states =
    some_int_flag "default-max-states" ~docv:"N"
      ~doc:"Default per-request bound on interned product states."
  in
  let idle_timeout_ms =
    int_flag 30_000 "idle-timeout-ms" ~docv:"MS"
      ~doc:"Close connections silent for this long (GQ064 notice first); at least 1."
  in
  let fault_trip =
    some_int_flag "fault-trip-after-checks" ~docv:"N"
      ~doc:"Fault injector: arm every request budget to trip after N checks (soak testing)."
  in
  let fault_drop =
    some_int_flag "fault-drop-after" ~docv:"N"
      ~doc:"Fault injector: hard-drop each connection after every N responses (soak testing)."
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a graph to concurrent clients over newline-delimited JSON with admission \
          control, MVCC epochs and graceful degradation")
    Term.(
      const run $ verbose_flag $ graph_arg $ port $ max_clients $ workers $ queue_depth
      $ per_client $ default_timeout_ms $ default_max_states $ idle_timeout_ms $ fault_trip
      $ fault_drop)

(* ---- stats ---- *)

let stats_cmd =
  let run () path =
    let inst = load_instance path in
    Printf.printf "epoch: %d\n" inst.Snapshot.epoch;
    print_string (Snapshot.describe inst);
    (* The cardinality estimates the multiway-join planner consumes. *)
    print_string (Gqkg_core.Join.Index.describe (Gqkg_core.Join.Index.get inst));
    print_endline (Partition.describe (Partition.build inst));
    Fmt.pr "%a@." Gqkg_analytics.Graph_stats.pp_summary (Gqkg_analytics.Graph_stats.summarize inst);
    let _, scc = Gqkg_analytics.Traversal.strongly_connected_components inst in
    Printf.printf "strongly connected components: %d\n" scc;
    (match Gqkg_analytics.Shortest_paths.diameter_double_sweep ~directed:false inst with
    | Some d -> Printf.printf "diameter (double sweep lower bound): %d\n" d
    | None -> ());
    Printf.printf "average clustering: %.4f\n" (Gqkg_analytics.Clustering.average_clustering inst);
    let members, density = Gqkg_analytics.Densest.charikar inst in
    Printf.printf "densest subgraph (charikar): %d nodes, density %.3f\n" (List.length members) density;
    Printf.printf "degeneracy (max k-core): %d\n" (Gqkg_analytics.Kcore.degeneracy inst);
    print_cache_counters ()
  in
  Cmd.v (Cmd.info "stats" ~doc:"Structural statistics") Term.(const run $ verbose_flag $ graph_arg)

(* ---- wl ---- *)

let wl_cmd =
  let run () path =
    let pg = load_property path in
    let inst = Snapshot.of_property pg in
    let labeled =
      Gqkg_gnn.Wl.refine inst ~init:(fun v ->
          Const.hash (Property_graph.node_label pg v))
    in
    Printf.printf "WL refinement (label-aware init): %d classes after %d rounds over %d nodes\n"
      labeled.Gqkg_gnn.Wl.num_colors labeled.Gqkg_gnn.Wl.rounds inst.Snapshot.num_nodes;
    let hist = Gqkg_gnn.Wl.color_histogram labeled in
    List.iter (fun (c, n) -> Printf.printf "  class %d: %d nodes\n" c n) hist
  in
  Cmd.v (Cmd.info "wl" ~doc:"Weisfeiler-Lehman refinement summary") Term.(const run $ verbose_flag $ graph_arg)

let commands =
  [
    generate_cmd; query_cmd; match_cmd; count_cmd; sample_cmd; enumerate_cmd; centrality_cmd;
    convert_cmd; materialize_cmd; sparql_cmd; explain_cmd; lint_cmd; contain_cmd; save_cmd;
    mutate_cmd; serve_cmd; stats_cmd; wl_cmd;
  ]

let () =
  (* Friendlier failure than the parser's default on an unknown
     subcommand: name the offending token, print usage, exit 2.  Valid
     unambiguous prefixes (e.g. "enum") still go through. *)
  let known_subcommands = List.map Cmd.name commands in
  (match Array.to_list Sys.argv with
  | _ :: first :: _
    when first <> ""
         && first.[0] <> '-'
         && not (List.exists (String.starts_with ~prefix:first) known_subcommands) ->
      Printf.eprintf "gqkg: unknown subcommand %S\nusage: gqkg <%s> ...\n" first
        (String.concat "|" known_subcommands);
      exit 2
  | _ -> ());
  let default = Term.(ret (const (fun () -> `Help (`Pager, None)) $ const ())) in
  let info = Cmd.info "gqkg" ~version:"1.0.0" ~doc:"Graph databases and knowledge graphs toolbox" in
  (* [~catch:false] so file-system errors raised mid-command (unreadable
     input, unwritable output) surface as a structured GQ041 diagnostic
     instead of cmdliner's internal-error backtrace. *)
  exit
    (try Cmd.eval ~catch:false (Cmd.group ~default info commands)
     with Sys_error message -> fail_user ~code:"GQ041" ~subterm:"" ~message)
