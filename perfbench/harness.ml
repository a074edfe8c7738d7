(* Benchmark harness, called by run.py (see README.md):

     harness gen WORKLOAD --seed S --seconds T --dir D
         write the workload's inputs into D
     harness check WORKLOAD --seed S --dir D
         check the served answers sampled in D/samples.jsonl
     harness join --dir D --setups K --blocks N --block-seconds T [--replay 1]
         run join-batch in-process on the inputs in D
     harness replay WORKLOAD --dir D --ops N
         replay the first N timed ops of a served run under tracing
     harness calib
         time the host-speed kernel (calib.ml) once per line of stdin

   Every command prints one JSON object on its last stdout line. *)

open Gqkg_graph
module W = Perfbench_workloads.Workloads
module Jsonx = Gqkg_server.Jsonx
module Mclock = Gqkg_util.Mclock
module Budget = Gqkg_util.Budget
module Regex_parser = Gqkg_automata.Regex_parser
module Governor = Gqkg_core.Governor
module Semcache = Gqkg_core.Semcache
module Planner = Gqkg_core.Planner
module Rpq = Gqkg_core.Rpq
module Crpq = Gqkg_logic.Crpq
module Crpq_parser = Gqkg_logic.Crpq_parser

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("harness: " ^ m);
      exit 2)
    fmt

let flag args name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let int_flag ?default args name =
  match (Option.map int_of_string_opt (flag args name), default) with
  | Some (Some v), _ -> v
  | None, Some d -> d
  | _ -> die "missing or bad %s" name

let str_flag args name = match flag args name with Some v -> v | None -> die "missing %s" name
let ( // ) = Filename.concat

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let write_lines path lines =
  write_file path (String.concat "" (Array.to_list (Array.map (fun l -> l ^ "\n") lines)))

let read_lines path =
  let ic = open_in_bin path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let num x = Jsonx.Num x
let inum n = Jsonx.Num (float_of_int n)
let parse_json s = match Jsonx.parse s with Ok v -> v | Error e -> die "bad JSON: %s" e
let str_member k v = Option.bind (Jsonx.member k v) Jsonx.str
let int_member k v = Option.bind (Jsonx.member k v) Jsonx.int_opt
let bool_member k v = match Jsonx.member k v with Some (Jsonx.Bool b) -> Some b | _ -> None
(* Jsonx prints numbers with six significant digits; measurements are
   printed with all of theirs. *)
let rec to_json = function
  | Jsonx.Num f when Float.is_integer f && Float.abs f < 1e15 -> Printf.sprintf "%.0f" f
  | Jsonx.Num f -> Printf.sprintf "%.17g" f
  | Jsonx.Arr l -> "[" ^ String.concat "," (List.map to_json l) ^ "]"
  | Jsonx.Obj l ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Jsonx.to_string (Jsonx.Str k) ^ ":" ^ to_json v) l)
      ^ "}"
  | v -> Jsonx.to_string v

let print_json fields = print_endline (to_json (Jsonx.Obj fields))
let now_ns = Mclock.now_ns
let ms_since t0 = Mclock.ns_to_ms (Int64.sub (now_ns ()) t0)

let median = function
  | [] -> 0.0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A metric's median, or null when the workload never made the call. *)
let opt_median = function [] -> Jsonx.Null | l -> Jsonx.Num (median l)

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.0
    | line -> (
        try Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.0)
        with Scanf.Scan_failure _ | End_of_file -> scan ())
  in
  let mb = scan () in
  close_in ic;
  mb

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- gen ------------------------------------------------------------- *)

let gen workload ~seed ~seconds ~dir =
  let params =
    match workload with
    | W.Join_batch ->
        let snap = W.citations seed in
        ignore (Snapshot_io.save ~path:(dir // "citations.gqs") snap);
        let store = W.biblio seed in
        Gqkg_kg.Ntriples.save (dir // "biblio.nt") store;
        (* the write probe's daemon and scripts, as on hot-reads *)
        Graph_io.save_property_graph (dir // "graph.pg") (W.contact_graph seed);
        write_lines (dir // "probe.jsonl") (W.probe_stream ~seed ~first_id:1);
        [
          ("papers", inum snap.Snapshot.num_nodes);
          ("citations", inum snap.Snapshot.num_edges);
          ("triples", inum (Gqkg_kg.Triple_store.size store));
          ("crpq_patterns", inum (List.length W.crpq_patterns));
          ("sparql_queries", inum (List.length Gqkg_workload.Bibliometrics.keywords));
          ("connections", inum 0);
        ]
    | _ ->
        let pg = W.contact_graph seed in
        Graph_io.save_property_graph (dir // "graph.pg") pg;
        let snap = Overlay.snapshot (Overlay.base_of_property pg) in
        let s = W.stream workload ~seed ~seconds snap in
        write_lines (dir // "warm.jsonl") s.W.warm;
        write_lines (dir // "timed.jsonl") s.W.timed;
        write_lines (dir // "probe.jsonl") s.W.probe;
        [
          ("nodes", inum snap.Snapshot.num_nodes);
          ("edges", inum snap.Snapshot.num_edges);
          ("connections", inum s.W.connections);
          ("warm_requests", inum (Array.length s.W.warm));
          ("page_limit", inum W.page_limit);
        ]
        @ s.W.params
  in
  write_file (dir // "params.json") (Jsonx.to_string (Jsonx.Obj params) ^ "\n")

(* ---- check ----------------------------------------------------------- *)

let names snap pairs =
  List.map (fun (a, b) -> (snap.Snapshot.node_name a, snap.Snapshot.node_name b)) pairs

let rec take n = function [] -> [] | _ when n <= 0 -> [] | x :: r -> x :: take (n - 1) r

let response_pairs resp =
  match Jsonx.member "pairs" resp with
  | Some (Jsonx.Arr ps) ->
      List.map
        (function
          | Jsonx.Arr [ Jsonx.Str a; Jsonx.Str b ] -> (a, b) | _ -> die "malformed pair")
        ps
  | _ -> []

let apply_script base lines =
  let overlay = Overlay.create base in
  List.iteri
    (fun i line ->
      Option.iter (Overlay.apply ~line:(i + 1) overlay) (Journal.op_of_line ~line:(i + 1) line))
    lines;
  fst (Overlay.commit overlay)

let script_of req =
  match Jsonx.member "ops" req with
  | Some (Jsonx.Arr items) -> List.filter_map Jsonx.str items
  | _ -> []

(* The product kernel against the Naive reference evaluator, on a small
   graph of the same shape: the workload's own keys plus the unfiltered
   query shapes, so some answers are non-empty. *)
let naive_agrees ~seed =
  let small = W.contact_graph ~params:W.small_params seed in
  let snap = Overlay.snapshot (Overlay.base_of_property small) in
  let queries =
    [
      "?person/rides/?bus/rides^-/?person";
      "?person/contact^-/?infected/rides/?bus/rides^-/?person";
    ]
    @ List.init 4 (fun i -> W.hot_query (20 + (10 * i)))
    @ List.init 4 (fun i -> W.cold_query (20 + (10 * i)) (1 + i, 1 + (5 * i)))
  in
  List.for_all
    (fun q ->
      let r = Regex_parser.parse q in
      Rpq.eval_pairs snap r = Gqkg_core.Naive.pairs snap r ~max_length:W.max_query_length)
    queries

(* Walk the sampled ops in order (every write, warm-up ones included, is
   sampled): writes are committed to a local epoch chain exactly as the
   daemon commits them and must have applied every script line, and
   every sampled read is compared (ok, complete, total, page) with
   Rpq.eval_pairs on the epoch it was served from.  Final reads of
   write-mix are also compared with a from-scratch replay of every
   committed script. *)
let check workload ~seed ~dir =
  let pg = Graph_io.load_property_graph (dir // "graph.pg") in
  let base = ref (Overlay.base_of_property pg) in
  let version = ref 0 in
  let committed = ref [] in
  let memo = Hashtbl.create 64 in
  let totals = Hashtbl.create 64 in
  let mismatched = ref [] and checked = ref 0 in
  let final_reads = ref [] in
  List.iter
    (fun line ->
      let s = parse_json line in
      let i = Option.value (int_member "i" s) ~default:(-1) in
      let req = Option.get (Jsonx.member "req" s) and resp = Option.get (Jsonx.member "resp" s) in
      let bad () = mismatched := i :: !mismatched in
      incr checked;
      match str_member "op" req with
      | Some "mutate" -> (
          let lines = script_of req in
          if bool_member "ok" resp <> Some true || int_member "applied" resp <> Some (List.length lines)
          then bad ()
          else
            match apply_script !base lines with
            | b ->
                base := b;
                incr version;
                committed := !committed @ lines
            | exception Journal.Replay_error _ -> bad ())
      | Some "query" ->
          let q = Option.get (str_member "q" req) in
          let limit = Option.value (int_member "limit" req) ~default:W.page_limit in
          let snap = Overlay.snapshot !base in
          let expected =
            match Hashtbl.find_opt memo (!version, q) with
            | Some e -> e
            | None ->
                let e = names snap (Rpq.eval_pairs snap (Regex_parser.parse q)) in
                Hashtbl.replace memo (!version, q) e;
                e
          in
          let total = List.length expected in
          if !version = 0 then Hashtbl.replace totals q total;
          if str_member "phase" s = Some "final" then final_reads := (q, resp) :: !final_reads;
          if
            not
              (bool_member "ok" resp = Some true
              && bool_member "complete" resp = Some true
              && int_member "total" resp = Some total
              && response_pairs resp = take limit expected)
          then bad ()
      | _ -> bad ())
    (read_lines (dir // "samples.jsonl"));
  let scratch_agrees =
    match workload with
    | W.Write_mix ->
        let ops =
          Journal.ops_of_graph pg @ List.filter_map (Journal.op_of_line ~line:0) !committed
        in
        let scratch = Overlay.snapshot (Overlay.base_of_property (Journal.replay_ops ops)) in
        !final_reads <> []
        && List.for_all
             (fun (q, resp) ->
               let fresh = names scratch (Rpq.eval_pairs scratch (Regex_parser.parse q)) in
               List.sort compare fresh = List.sort compare (response_pairs resp))
             !final_reads
    | _ -> true
  in
  print_json
    [
      ("checked", inum !checked);
      ("mismatched", Jsonx.Arr (List.rev_map inum !mismatched));
      ("commits_replayed", inum !version);
      ("naive_agrees", Jsonx.Bool (naive_agrees ~seed));
      ("scratch_agrees", Jsonx.Bool scratch_agrees);
      ("totals", Jsonx.Obj (Hashtbl.fold (fun q t acc -> (q, inum t) :: acc) totals []));
    ]

(* ---- replay: the served ops in-process, under tracing --------------- *)

let span = Spans.with_span
let server_timeout_ms = 10_000

(* The daemon's query handler, with a span around each layer call. *)
let replay_query mgr req =
  let q = Option.get (str_member "q" req) in
  let limit = Option.value (int_member "limit" req) ~default:W.page_limit in
  let regex = span "regex_parser.parse" (fun () -> Regex_parser.parse q) in
  let budget = Budget.create ~timeout_ms:server_timeout_ms () in
  Epochs.with_pinned mgr (fun snap ->
      let o =
        span "governor.eval_pairs" (fun () ->
            Governor.eval_pairs ~use_cache:true ~budget snap regex)
      in
      span "server.render" (fun () ->
          let total = List.length o.Budget.value in
          Jsonx.Obj
            [
              ("ok", Jsonx.Bool true);
              ("total", inum total);
              ( "pairs",
                Jsonx.Arr
                  (List.map
                     (fun (a, b) ->
                       Jsonx.Arr
                         [
                           Jsonx.Str (snap.Snapshot.node_name a);
                           Jsonx.Str (snap.Snapshot.node_name b);
                         ])
                     (take limit o.Budget.value)) );
              ("elapsed_ms", num (Budget.elapsed_ms budget));
            ]))

(* The daemon's mutate handler: parse and apply each script line, commit
   one epoch.  Returns the commit's column-reuse ratio. *)
let replay_mutate mgr req =
  let overlay = Overlay.create (Epochs.base mgr) in
  List.iteri
    (fun i line ->
      match span "journal.parse" (fun () -> Journal.op_of_line ~line:(i + 1) line) with
      | Some op -> span "overlay.apply" (fun () -> Overlay.apply ~line:(i + 1) overlay op)
      | None -> ())
    (script_of req);
  let _, reuse = span "governor.commit" (fun () -> Governor.commit mgr overlay) in
  (Jsonx.Obj [ ("ok", Jsonx.Bool true) ], Overlay.reuse_ratio reuse)

(* Durations of the spans called [name] (or [name:...]); set-up spans
   (op -1) when [setup], otherwise the timed ops' spans. *)
let span_values ?(setup = false) name ~scale =
  let matches n =
    n = name || String.starts_with ~prefix:(name ^ ":") n
  in
  Array.to_list (Spans.with_self ())
  |> List.filter_map (fun ((s : Spans.span), _) ->
         if matches s.name && (s.op < 0) = setup then Some (Spans.duration_ns s *. scale) else None)

let span_median ?setup name ~scale = median (span_values ?setup name ~scale)
let us = 1e-3 and ms = 1e-6 and sec = 1e-9

(* Summed root-span time of each op, probes excluded. *)
let op_span_ms () =
  let per_op = Hashtbl.create 1024 in
  Array.iter
    (fun ((s : Spans.span), _) ->
      if s.parent < 0 && s.op >= 0 && not s.probe then
        Hashtbl.replace per_op s.op
          (Spans.duration_ns s +. Option.value (Hashtbl.find_opt per_op s.op) ~default:0.0))
    (Spans.with_self ());
  Hashtbl.fold (fun _ v acc -> (v *. ms) :: acc) per_op []

(* Per-layer self time, summed over the traced ops: where the time went. *)
let self_breakdown () =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun ((s : Spans.span), self) ->
      if s.op >= 0 then
        Hashtbl.replace tbl s.name
          (self +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.0))
    (Spans.with_self ());
  Jsonx.Obj (Hashtbl.fold (fun k v acc -> (k, num (v *. ms)) :: acc) tbl [] |> List.sort compare)

let gc_counters ~ops f =
  let g0 = Gc.quick_stat () in
  f ();
  let g1 = Gc.quick_stat () in
  let per_op x = x /. float_of_int (max 1 ops) in
  [
    ("gc.minor_mwords_per_op", num (per_op ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6)));
    ( "gc.major_collections_per_op",
      num (per_op (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections))) );
  ]

let replay ~dir ~ops =
  Semcache.reset ();
  Spans.set_op (-1);
  let pg =
    span "graph_io.load_property_graph" (fun () ->
        Graph_io.load_property_graph (dir // "graph.pg"))
  in
  let base = span "overlay.base_of_property" (fun () -> Overlay.base_of_property pg) in
  let mgr = Epochs.create base in
  ignore (span "planner.schema_for" (fun () -> Planner.schema_for (Epochs.snapshot mgr)));
  let missed = Hashtbl.create 1024 in
  let run_op req =
    match str_member "op" req with
    | Some "mutate" ->
        let resp, ratio = replay_mutate mgr req in
        (* The first schema derivation on the new epoch, moved out of
           the next read so it can be timed on its own. *)
        ignore (span "planner.schema_for" (fun () -> Planner.schema_for (Epochs.snapshot mgr)));
        (resp, Some ratio)
    | _ ->
        (* Timed on their own, outside the op: eval_pairs computes the
           semantic key and does the cache lookup again itself. *)
        let snap = Epochs.snapshot mgr in
        let regex = Regex_parser.parse (Option.get (str_member "q" req)) in
        let key =
          span ~probe:true "planner.semantic_key" (fun () -> Planner.semantic_key snap regex)
        in
        Option.iter
          (fun key ->
            let found =
              span ~probe:true "semcache.find_pairs" (fun () -> Semcache.find_pairs snap ~key)
            in
            match found with
            | None -> Hashtbl.replace missed !Spans.current_op ()
            | Some _ -> ())
          key;
        (replay_query mgr req, None)
  in
  let handle line =
    let req =
      span "jsonx.parse" (fun () -> match Jsonx.parse line with Ok v -> v | Error e -> die "%s" e)
    in
    let resp, ratio = run_op req in
    ignore (span "jsonx.to_string" (fun () -> Jsonx.to_string resp));
    ratio
  in
  let warm = read_lines (dir // "warm.jsonl") in
  let timed = take ops (read_lines (dir // "timed.jsonl")) in
  Spans.enabled := false;
  List.iter (fun l -> ignore (handle l)) warm;
  Spans.enabled := true;
  let states0 = Gqkg_core.Product.states_interned_total () in
  let td0 = Gqkg_core.Frontier.top_down_levels_total () in
  let bu0 = Gqkg_core.Frontier.bottom_up_levels_total () in
  let n = List.length timed in
  let ratios = ref [] in
  let gc =
    gc_counters ~ops:n (fun () ->
        List.iteri
          (fun i l ->
            Spans.set_op i;
            Option.iter (fun r -> ratios := r :: !ratios) (handle l))
          timed)
  in
  let per_op x = num (float_of_int x /. float_of_int (max 1 n)) in
  (* the miss path: eval_pairs of the ops whose cache probe missed *)
  let eval_miss =
    Array.to_list (Spans.with_self ())
    |> List.filter_map (fun ((s : Spans.span), _) ->
           if s.name = "governor.eval_pairs" && Hashtbl.mem missed s.op then
             Some (Spans.duration_ns s *. ms)
           else None)
  in
  print_json
    ([
       ("ops", inum n);
       ("op_span_ms_p50", num (median (op_span_ms ())));
       ( "graph_io.load_s",
         opt_median (span_values ~setup:true "graph_io.load_property_graph" ~scale:sec) );
       ( "overlay.base_of_property_s",
         opt_median (span_values ~setup:true "overlay.base_of_property" ~scale:sec) );
       ("jsonx.decode_us", opt_median (span_values "jsonx.parse" ~scale:us));
       ("jsonx.encode_us", opt_median (span_values "jsonx.to_string" ~scale:us));
       ("regex_parser.parse_us", opt_median (span_values "regex_parser.parse" ~scale:us));
       ("planner.semantic_key_us", opt_median (span_values "planner.semantic_key" ~scale:us));
       (* first derivation after a commit; without commits, the one at load *)
       ( "planner.schema_for_ms",
         opt_median
           (match span_values "planner.schema_for" ~scale:ms with
           | [] -> span_values ~setup:true "planner.schema_for" ~scale:ms
           | l -> l) );
       ("semcache.lookup_us", opt_median (span_values "semcache.find_pairs" ~scale:us));
       ("governor.eval_pairs_ms", opt_median eval_miss);
       ("product.states_per_op", per_op (Gqkg_core.Product.states_interned_total () - states0));
       ( "frontier.top_down_levels_per_op",
         per_op (Gqkg_core.Frontier.top_down_levels_total () - td0) );
       ( "frontier.bottom_up_levels_per_op",
         per_op (Gqkg_core.Frontier.bottom_up_levels_total () - bu0) );
       ("journal.parse_us", opt_median (span_values "journal.parse" ~scale:us));
       ("overlay.apply_us", opt_median (span_values "overlay.apply" ~scale:us));
       ("overlay.columns_reused_ratio", opt_median !ratios);
       ("governor.commit_ms", opt_median (span_values "governor.commit" ~scale:ms));
       ("self_ms", self_breakdown ());
     ]
    @ gc)

(* ---- join-batch ------------------------------------------------------ *)

(* One op: every CRPQ pattern counted through the join engine, then the
   Figure 1 counts through SPARQL-lite.  Returns the tuple count per
   pattern and the (year, publications) series per keyword. *)
let join_round snap store =
  let tuples =
    List.map
      (fun (name, text) ->
        let q = span "crpq_parser.parse" (fun () -> Crpq_parser.parse text) in
        let n = ref 0 in
        span ("crpq.iter_answers:" ^ name) (fun () ->
            Crpq.iter_answers snap q ~yield:(fun _ -> incr n));
        !n)
      W.crpq_patterns
  in
  let series =
    List.map
      (fun keyword ->
        let rows =
          span "sparql.run" (fun () -> Gqkg_kg.Sparql.run store (W.sparql_query keyword))
        in
        let years = Hashtbl.create 16 in
        List.iter
          (function
            | [ _; y ] ->
                Hashtbl.replace years y (1 + Option.value (Hashtbl.find_opt years y) ~default:0)
            | _ -> ())
          rows;
        ( keyword,
          List.sort compare
            (Hashtbl.fold (fun y n acc -> (Gqkg_kg.Term.to_string y, n) :: acc) years []) ))
      Gqkg_workload.Bibliometrics.keywords
  in
  (tuples, series)

(* Outputs checked once, outside the timed phase: every pattern's tuple
   set against the backtracking join, every Figure 1 count against the
   BGP count of Bibliometrics. *)
let join_checks snap store (tuples, series) =
  let crpq_ok =
    List.for_all2
      (fun (_, text) n ->
        let q = Crpq_parser.parse text in
        let fast = Crpq.answers snap q in
        List.length fast = n && fast = List.sort compare (Crpq.answers_backtrack snap q))
      W.crpq_patterns tuples
  in
  let module B = Gqkg_workload.Bibliometrics in
  let fig1_ok =
    List.for_all
      (fun (keyword, counts) ->
        List.for_all
          (fun year ->
            let served =
              Option.value ~default:0
                (List.assoc_opt (Gqkg_kg.Term.to_string (Gqkg_kg.Term.of_int year)) counts)
            in
            served = B.count_keyword_year store ~keyword ~year)
          (List.init (B.last_year - B.first_year + 1) (fun i -> B.first_year + i)))
      series
  in
  (crpq_ok, fig1_ok)

(* The timed phase runs [blocks] blocks of [block_seconds] each; every
   block reports its rounds' latencies, its wall time and this process's
   CPU time, and run.py turns them into metrics by the same rule as a
   served run's blocks. *)
let join ~dir ~setups ~blocks ~block_seconds ~replay =
  Spans.enabled := replay;
  Spans.set_op (-1);
  let sample, close_calib = Calib.spawn () in
  let calib_ms = ref [ sample () ] in
  (* the mean of the calib kernel's times before and after a set-up or a block *)
  let calib () =
    let before = List.hd !calib_ms and after = sample () in
    calib_ms := after :: !calib_ms;
    (before +. after) /. 2.
  in
  let setup_s = ref [] and setup_calib = ref [] and loaded = ref None in
  for _ = 1 to setups do
    let t0 = now_ns () in
    let snap = span "snapshot_io.load" (fun () -> Snapshot_io.load (dir // "citations.gqs")) in
    let store = span "ntriples.load" (fun () -> Gqkg_kg.Ntriples.load (dir // "biblio.nt")) in
    let reference = join_round snap store in
    setup_s := (ms_since t0 /. 1e3) :: !setup_s;
    setup_calib := calib () :: !setup_calib;
    loaded := Some (snap, store, reference)
  done;
  let snap, store, reference = Option.get !loaded in
  Spans.enabled := false;
  let all_ms = ref [] and failed = ref 0 in
  let block () =
    let start = now_ns () and cpu0 = cpu_s () and lat = ref [] in
    while ms_since start < float_of_int block_seconds *. 1e3 do
      let t0 = now_ns () in
      let r = join_round snap store in
      lat := ms_since t0 :: !lat;
      if r <> reference then incr failed
    done;
    all_ms := !lat @ !all_ms;
    let wall_s = ms_since start /. 1e3 and cpu = cpu_s () -. cpu0 in
    Jsonx.Obj
      [
        ("ms", Jsonx.Arr (List.rev_map num !lat));
        ("wall_s", num wall_s);
        ("cpu_s", num cpu);
        ("calib_ms", num (calib ()));
      ]
  in
  let blocks = List.init blocks (fun _ -> block ()) in
  close_calib ();
  let rounds = List.length !all_ms in
  let rss = peak_rss_mb () in
  let crpq_ok, fig1_ok = join_checks snap store reference in
  let layers =
    if not replay then []
    else begin
      Spans.enabled := true;
      let states0 = Gqkg_core.Product.states_interned_total () in
      let td0 = Gqkg_core.Frontier.top_down_levels_total () in
      let bu0 = Gqkg_core.Frontier.bottom_up_levels_total () in
      let gc =
        gc_counters ~ops:rounds (fun () ->
            for i = 0 to rounds - 1 do
              Spans.set_op i;
              ignore (join_round snap store)
            done)
      in
      let per_round name =
        let tbl = Hashtbl.create 64 in
        Array.iter
          (fun ((s : Spans.span), _) ->
            if String.starts_with ~prefix:name s.name && s.op >= 0 then
              Hashtbl.replace tbl s.op
                (Spans.duration_ns s +. Option.value (Hashtbl.find_opt tbl s.op) ~default:0.0))
          (Spans.with_self ());
        median (Hashtbl.fold (fun _ v acc -> (v *. ms) :: acc) tbl [])
      in
      let per_round_count n = num (float_of_int n /. float_of_int rounds) in
      let tuples, series = reference in
      [
        ( "layers",
          Jsonx.Obj
            ([
               ("snapshot_io.load_s", num (span_median ~setup:true "snapshot_io.load" ~scale:sec));
               ("ntriples.load_s", num (span_median ~setup:true "ntriples.load" ~scale:sec));
               ("crpq_parser.parse_us", num (span_median "crpq_parser.parse" ~scale:us));
               ("crpq.iter_answers_ms", num (per_round "crpq.iter_answers"));
               ("crpq.tuples_per_round", inum (List.fold_left ( + ) 0 tuples));
               ("sparql.run_ms", num (per_round "sparql.run"));
               ( "sparql.rows_per_round",
                 inum
                   (List.fold_left
                      (fun acc (_, counts) -> List.fold_left (fun a (_, n) -> a + n) acc counts)
                      0 series) );
               ( "product.states_per_op",
                 per_round_count (Gqkg_core.Product.states_interned_total () - states0) );
               ( "frontier.top_down_levels_per_op",
                 per_round_count (Gqkg_core.Frontier.top_down_levels_total () - td0) );
               ( "frontier.bottom_up_levels_per_op",
                 per_round_count (Gqkg_core.Frontier.bottom_up_levels_total () - bu0) );
               ("trace.coverage", num (median (op_span_ms ()) /. median !all_ms));
             ]
            @ gc) );
        ("self_ms", self_breakdown ());
      ]
    end
  in
  print_json
    ([
       ("setup_s_all", Jsonx.Arr (List.rev_map num !setup_s));
       ("setup_calib_ms", Jsonx.Arr (List.rev_map num !setup_calib));
       ("calib_ms_all", Jsonx.Arr (List.rev_map num !calib_ms));
       ("blocks", Jsonx.Arr blocks);
       ("failed", inum !failed);
       ("peak_rss_mb", num rss);
       ( "checks",
         Jsonx.Obj
           [ ("crpq_agrees", Jsonx.Bool crpq_ok); ("figure1_agrees", Jsonx.Bool fig1_ok) ] );
     ]
    @ layers)

let () =
  match Array.to_list Sys.argv |> List.tl with
  | "gen" :: w :: args -> (
      match W.of_name w with
      | Some w ->
          gen w ~seed:(int_flag args "--seed") ~seconds:(int_flag args "--seconds")
            ~dir:(str_flag args "--dir")
      | None -> die "unknown workload %s" w)
  | "check" :: w :: args -> (
      match W.of_name w with
      | Some w -> check w ~seed:(int_flag args "--seed") ~dir:(str_flag args "--dir")
      | None -> die "unknown workload %s" w)
  | "replay" :: w :: args -> (
      match W.of_name w with
      | Some _ -> replay ~dir:(str_flag args "--dir") ~ops:(int_flag args "--ops")
      | None -> die "unknown workload %s" w)
  | "join" :: args ->
      join ~dir:(str_flag args "--dir") ~setups:(int_flag args "--setups")
        ~blocks:(int_flag args "--blocks")
        ~block_seconds:(int_flag args "--block-seconds")
        ~replay:(int_flag ~default:0 args "--replay" = 1)
  | [ "calib" ] -> Calib.serve ()
  | _ -> die "usage: harness (gen|check|join|replay|calib) ..."
