(* Wall-clock gates: four throughput comparisons, each leg timed
   best-of and interleaved with the other so machine drift cancels,
   and one latency bar.
   Ratios of wall times are too noisy for every test run, so this is
   not part of [dune runtest]; run it on its own:

     dune exec test/timing_gates.exe

   It prints one line per gate and exits 1 when any gate fails.

   - governor: pair evaluation under a live, never-tripping budget
     costs at most 10% more than without one (or at most 2 ms more);
   - minimize: batched reachability over the minimized canonical
     automaton runs at least 0.9x as fast as over the trimmed one (or
     at most 2 ms slower), with identical answers;
   - commit: an incremental epoch commit of a small delta beats a full
     from-scratch freeze of the same state;
   - skew: a join whose short child slices meet a sparse root of 500k
     keys, which has no rank array, runs at most 5x as long as the same
     join renumbered so that the root is dense (or takes at most
     5 ms): seeks into the root gallop, so the merge costs
     O(shortest slice * log), which no answer test can see;
   - stop: [Server.stop] with four connected, answered clients takes at
     most 50 ms (best of 5): the accept thread and every reader block
     on their sockets and the drain wakes them, so it waits out no
     poll interval. *)

open Gqkg_graph
open Gqkg_core
module Analyze = Gqkg_analysis.Analyze
module Decide = Gqkg_analysis.Decide
module Budget = Gqkg_util.Budget
module Splitmix = Gqkg_util.Splitmix
module Contact_network = Gqkg_workload.Contact_network
module Server = Gqkg_server.Server

let parse = Gqkg_automata.Regex_parser.parse

let wall f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

let ms t = 1000.0 *. t

let gate name ok detail =
  Printf.printf "%-8s %-4s %s\n%!" name (if ok then "ok" else "FAIL") detail;
  ok

(* The 120-person contact network both planner gates run on. *)
let contact () =
  let people = 120 in
  Contact_network.generate
    ~params:
      {
        Contact_network.default with
        people;
        buses = max 3 (people / 12);
        addresses = max 5 (people / 3);
        contacts = people;
      }
    (Splitmix.create 1500)

(* Each leg evaluates on its own fresh freeze (untimed), so no plan,
   shape or postings memo is warm for either. *)
let governor () =
  let pg = contact () in
  let r = parse Contact_network.query_shared_bus in
  let t_on = ref infinity and t_off = ref infinity in
  for _ = 1 to 3 do
    let inst = Snapshot.of_property pg in
    let budget = Budget.create ~max_steps:max_int () in
    let _, t = wall (fun () -> Rpq.eval_pairs ~budget inst ~max_length:8 r) in
    t_on := Float.min !t_on t;
    let inst = Snapshot.of_property pg in
    let _, t = wall (fun () -> Rpq.eval_pairs inst ~max_length:8 r) in
    t_off := Float.min !t_off t
  done;
  let overhead = 100.0 *. ((!t_on /. Float.max 1e-9 !t_off) -. 1.0) in
  gate "governor"
    (overhead <= 10.0 || !t_on -. !t_off <= 0.002)
    (Printf.sprintf "budgeted %.2f ms vs unbudgeted %.2f ms (%+.1f%%; bar <= 10%% or <= 2 ms)"
       (ms !t_on) (ms !t_off) overhead)

(* A closure branch subsumed by its sibling: the canonical automaton is
   strictly smaller than the trimmed one.  Both products are built
   directly, fresh per repetition, over the same analyzed expression. *)
let minimize () =
  let inst = Snapshot.of_property (contact ()) in
  let report = Analyze.plan inst (parse "(((rides + visits))* + (rides)*)") in
  let trimmed = Option.get report.Analyze.nfa in
  let canon =
    Option.get
      (Decide.canonicalize_nfa ~schema:(Planner.schema_for inst) ~max_states:256 trimmed)
  in
  let sources = Array.init inst.Snapshot.num_nodes Fun.id in
  let run nfa () =
    Frontier.reachable ~max_length:8
      (Frontier.create (Product.create ~nfa inst report.Analyze.regex))
      ~sources
  in
  let t_min = ref infinity and t_raw = ref infinity in
  let agree = ref true in
  for _ = 1 to 3 do
    let a, t = wall (run canon.Decide.nfa) in
    t_min := Float.min !t_min t;
    let b, t = wall (run trimmed) in
    t_raw := Float.min !t_raw t;
    if a <> b then agree := false
  done;
  let ratio = !t_raw /. Float.max 1e-9 !t_min in
  gate "minimize"
    (!agree && (ratio >= 0.9 || !t_min -. !t_raw <= 0.002))
    (Printf.sprintf
       "%d -> %d states: minimized %.2f ms vs trimmed %.2f ms (%.2fx), agree %b (bar >= 0.9x or \
        <= 2 ms)"
       (Gqkg_automata.Nfa.num_states trimmed) canon.Decide.states (ms !t_min) (ms !t_raw) ratio
       !agree)

(* A 100-op property delta against a 2000-node, 6000-edge base: the
   overlay commit against [Snapshot.of_property] over the replayed
   post-delta graph.  Each repetition commits the same delta through a
   fresh epoch manager and overlay, and each leg starts after a full
   major collection, so neither is charged a GC slice the other's
   allocation left due. *)
let commit () =
  let nodes = 2_000 and delta_ops = 100 in
  let edges = 3 * nodes in
  let rng = Splitmix.create 1500 in
  let pg =
    Property_graph.of_labeled
      (Gqkg_workload.Gen_graph.random_labeled rng ~nodes ~edges
         ~node_labels:[ "person"; "place" ] ~edge_labels:[ "knows"; "likes" ])
  in
  let w = Const.str "w" in
  let delta =
    List.init delta_ops (fun i ->
        let i = i + 1 in
        if i mod 4 = 0 then
          let id = Property_graph.edge_id pg (Splitmix.int rng edges) in
          Mutation.Set_edge_prop { id; prop = w; value = Const.int i }
        else
          let id = Property_graph.node_id pg (Splitmix.int rng nodes) in
          Mutation.Set_node_prop { id; prop = w; value = Const.int i })
  in
  let t_commit = ref infinity and t_full = ref infinity in
  for _ = 1 to 5 do
    let mgr = Epochs.create (Overlay.base_of_property pg) in
    let ov = Overlay.create (Epochs.base mgr) in
    List.iter (Overlay.apply ov) delta;
    Gc.full_major ();
    let (base', _), t = wall (fun () -> Epochs.commit mgr ov) in
    t_commit := Float.min !t_commit t;
    let replayed = Journal.replay_ops (Overlay.history base') in
    Gc.full_major ();
    let _, t = wall (fun () -> Snapshot.of_property replayed) in
    t_full := Float.min !t_full t
  done;
  gate "commit" (!t_commit < !t_full)
    (Printf.sprintf "incremental %.2f ms vs full freeze %.2f ms (bar: incremental faster)"
       (ms !t_commit) (ms !t_full))

(* 2,000 x bindings, each opening a 1-2-key child slice of (x, y) that
   meets the root of (y, w): 500k keys spread as 8i + i mod 7, past the
   4x of their count under which a root gets a rank array, or
   renumbered to i, where seeks read the rank array.  Both relations
   are prepared untimed. *)
let skew () =
  let keys = 500_000 and outer = 2_000 in
  let rng = Splitmix.create 1500 in
  let child =
    List.concat_map
      (fun x -> List.init (1 + Splitmix.int rng 2) (fun _ -> (x, Splitmix.int rng keys)))
      (List.init outer Fun.id)
  in
  let join f =
    let xy = Join.relation_of_pairs (List.map (fun (x, i) -> (x, f i)) child) in
    let yw = Join.relation_of_pairs (List.init keys (fun i -> (f i, i))) in
    let specs =
      [ Join.atom [| "x"; "y" |] (Join.Relation xy); Join.atom [| "y"; "w" |] (Join.Relation yw) ]
    in
    fun () ->
      let rows = ref 0 in
      Join.solve ~order_hint:[| "x"; "y"; "w" |] specs ~vars:[ "x"; "y"; "w" ] ~yield:(fun _ ->
          incr rows);
      !rows
  in
  let sparse = join (fun i -> (8 * i) + (i mod 7)) and dense = join Fun.id in
  let t_sparse = ref infinity and t_dense = ref infinity and agree = ref true in
  for _ = 1 to 5 do
    let a, t = wall sparse in
    t_sparse := Float.min !t_sparse t;
    let b, t = wall dense in
    t_dense := Float.min !t_dense t;
    if a <> b || a = 0 then agree := false
  done;
  let ratio = !t_sparse /. Float.max 1e-9 !t_dense in
  gate "skew"
    (!agree && (ratio <= 5.0 || !t_sparse <= 0.005))
    (Printf.sprintf
       "sparse root %.2f ms vs dense root %.2f ms (%.2fx), agree %b (bar <= 5x or sparse <= 5 ms)"
       (ms !t_sparse) (ms !t_dense) ratio !agree)

(* Each repetition starts a daemon on a fresh epoch manager, connects
   four clients and reads each one's pong before timing the drain. *)
let stop () =
  let pg = Contact_network.scaled (Splitmix.create 42) ~scale:1 in
  let ping port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
    let line = {|{"op":"ping"}|} ^ "\n" in
    ignore (Unix.write_substring fd line 0 (String.length line));
    let buf = Bytes.create 256 in
    let rec pong () =
      let n = Unix.read fd buf 0 (Bytes.length buf) in
      if n > 0 && not (Bytes.contains (Bytes.sub buf 0 n) '\n') then pong ()
    in
    pong ();
    fd
  in
  let t_stop = ref infinity in
  for _ = 1 to 5 do
    let mgr = Epochs.create (Overlay.base_of_property pg) in
    let srv = Server.start ~port:0 ~config:Server.default_config mgr in
    let clients = List.init 4 (fun _ -> ping (Server.port srv)) in
    let (), t = wall (fun () -> Server.stop srv) in
    List.iter Unix.close clients;
    t_stop := Float.min !t_stop t
  done;
  gate "stop" (!t_stop <= 0.050)
    (Printf.sprintf "Server.stop with 4 clients %.2f ms, best of 5 (bar <= 50 ms)" (ms !t_stop))

let () =
  let governor_ok = governor () in
  let minimize_ok = minimize () in
  let commit_ok = commit () in
  let skew_ok = skew () in
  let stop_ok = stop () in
  if not (governor_ok && minimize_ok && commit_ok && skew_ok && stop_ok) then exit 1
