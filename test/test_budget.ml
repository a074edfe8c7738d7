(* Tests for the resource governor: Budget mechanics, soundness of
   partial results (budgeted ⊆ unbudgeted), and the fault-injection
   sweep that trips the budget at every reachable check site of every
   public entry point and asserts that no exception escapes and every
   partial answer is sound. *)

open Gqkg_graph
open Gqkg_core
module Budget = Gqkg_util.Budget
module Reference = Gqkg_oracle.Reference

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------- Budget mechanics ---------- *)

let test_unlimited () =
  checkb "is_unlimited" true (Budget.is_unlimited Budget.unlimited);
  checkb "never trips" false (Budget.check Budget.unlimited);
  Budget.charge_steps Budget.unlimited 1_000_000;
  Budget.note_states Budget.unlimited 1_000_000;
  checkb "still never trips" false (Budget.check Budget.unlimited);
  checkb "complete" true (Budget.completeness Budget.unlimited = Budget.Complete)

let test_step_limit () =
  let b = Budget.create ~max_steps:10 () in
  checkb "fresh" false (Budget.check b);
  Budget.charge_steps b 5;
  checkb "under" false (Budget.check b);
  Budget.charge_steps b 6;
  checkb "over" true (Budget.check b);
  checkb "sticky" true (Budget.check b);
  checkb "reason" true (Budget.exhausted b = Some Budget.Step_limit);
  checkb "partial" true (Budget.completeness b = Budget.Partial Budget.Step_limit)

let test_state_limit () =
  let b = Budget.create ~max_states:100 () in
  Budget.note_states b 100;
  checkb "at limit" false (Budget.check b);
  Budget.note_states b 101;
  checkb "over" true (Budget.check b);
  checkb "reason" true (Budget.exhausted b = Some Budget.State_limit)

let test_injector () =
  let b = Budget.create ~trip_after_checks:2 () in
  checkb "check 0" false (Budget.check b);
  checkb "check 1" false (Budget.check b);
  checkb "check 2 trips" true (Budget.check b);
  checkb "reason" true (Budget.exhausted b = Some Budget.Injected);
  checki "counted" 3 (Budget.checks_performed b);
  let b0 = Budget.create ~trip_after_checks:0 () in
  checkb "trip on first" true (Budget.check b0)

let test_similar_rearms () =
  let b = Budget.create ~max_steps:10 ~trip_after_checks:0 () in
  checkb "tripped" true (Budget.check b);
  let r = Budget.similar b in
  checkb "rearmed" false (Budget.check r);
  (* The step limit survives the rearm; the injector does not. *)
  Budget.charge_steps r 11;
  checkb "limit kept" true (Budget.check r);
  checkb "injector dropped" true (Budget.exhausted r = Some Budget.Step_limit)

let test_describe () =
  let b = Budget.create ~max_states:5 () in
  Budget.note_states b 9;
  ignore (Budget.check b);
  let d = Budget.describe b in
  checkb "mentions exhaustion" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec loop i = i + m <= n && (String.sub s i m = sub || loop (i + 1)) in
       loop 0
     in
     contains d "state-limit")

(* ---------- Monotonic deadline clocking ---------- *)

(* Deadlines are measured on an injected monotonic source, never the
   wall clock — a host clock step (NTP, suspend/resume) cannot trip a
   budget spuriously.  The fake source proves the deadline depends on
   nothing else: while it stands still no amount of real elapsed time
   trips, and advancing it past the deadline always does. *)
let test_monotonic_deadline () =
  let now = ref 1_000L in
  let clock_ns () = !now in
  let b = Budget.create ~clock_ns ~timeout_ms:50 () in
  checkb "fresh" false (Budget.check b);
  now := Int64.add 1_000L 49_000_000L;
  checkb "under deadline" false (Budget.check b);
  (* real time passes; the injected source is all that counts *)
  Unix.sleepf 0.06;
  checkb "wall clock is irrelevant" false (Budget.check b);
  now := Int64.add 1_000L 51_000_000L;
  checkb "past deadline trips" true (Budget.check b);
  checkb "reason" true (Budget.exhausted b = Some Budget.Timeout)

let test_monotonic_elapsed () =
  let now = ref 5_000_000L in
  let b = Budget.create ~clock_ns:(fun () -> !now) ~timeout_ms:1000 () in
  now := Int64.add !now 250_000_000L;
  checkb "elapsed tracks the injected clock" true
    (abs_float (Budget.elapsed_ms b -. 250.0) < 0.001);
  checkb "still under" false (Budget.check b)

let test_similar_keeps_clock () =
  let now = ref 0L in
  let b = Budget.create ~clock_ns:(fun () -> !now) ~timeout_ms:10 () in
  now := 20_000_000L;
  checkb "tripped" true (Budget.check b);
  (* the rearmed copy restarts the deadline on the same source *)
  let r = Budget.similar b in
  checkb "rearmed" false (Budget.check r);
  now := 25_000_000L;
  checkb "fresh deadline" false (Budget.check r);
  now := 31_000_000L;
  checkb "trips on the same source" true (Budget.check r)

let test_mclock_nondecreasing () =
  let prev = ref (Gqkg_util.Mclock.now_ns ()) in
  for _ = 1 to 10_000 do
    let t = Gqkg_util.Mclock.now_ns () in
    if Int64.compare t !prev < 0 then Alcotest.fail "Mclock.now_ns went backwards";
    prev := t
  done;
  checkb "ms conversion" true (Gqkg_util.Mclock.ns_to_ms 1_500_000L = 1.5)

let test_cancel () =
  let b = Budget.create ~timeout_ms:1_000_000 () in
  checkb "fresh" false (Budget.check b);
  Budget.cancel b;
  checkb "cancelled trips" true (Budget.check b);
  checkb "reason" true (Budget.exhausted b = Some Budget.Cancelled);
  checkb "partial" true (Budget.completeness b = Budget.Partial Budget.Cancelled);
  (* a budget created with no limits at all is still cancellable — the
     server's drain path relies on it *)
  let b2 = Budget.create () in
  checkb "no-limit fresh" false (Budget.check b2);
  Budget.cancel b2;
  checkb "no-limit budget cancellable" true (Budget.check b2);
  (* first writer wins: a later limit trip cannot overwrite the reason *)
  Budget.charge_steps b2 1_000_000;
  ignore (Budget.check b2);
  checkb "reason sticks" true (Budget.exhausted b2 = Some Budget.Cancelled)

(* ---------- Shared fixture ---------- *)

let make_instance = Gqkg_oracle.Small.make_instance
let make_regex = Gqkg_oracle.Small.make_regex

(* A kernel's value under [budget] with the budget's completeness, as
   {!Governor.eval_pairs} reports it. *)
let governed budget value = { Budget.value; completeness = Budget.completeness budget }

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

(* ---------- QCheck: budgeted results are sound ---------- *)

let gen =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* nodes = int_range 1 6 in
    let* edges = int_range 0 10 in
    let* rseed = int_bound 1_000_000 in
    let* max_steps = int_range 0 40 in
    return ((seed, nodes, edges), rseed, max_steps))

(* Budgeted pairs ⊆ unbudgeted pairs, and Complete implies equality.
   (The converse — equal sets imply Complete — does not hold: a budget
   can trip after the last answer was already found, which is still an
   honest Partial.) *)
let prop_pairs_sound =
  QCheck2.Test.make ~name:"budgeted eval_pairs ⊆ unbudgeted; Complete ⇒ equal" ~count:200 gen
    (fun (g, rseed, max_steps) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      let full = Rpq.eval_pairs inst ~max_length:3 r in
      let budget = Budget.create ~max_steps () in
      let out = Governor.eval_pairs ~budget ~max_length:3 inst r in
      subset out.Budget.value full
      && (out.Budget.completeness <> Budget.Complete || List.sort compare out.Budget.value = List.sort compare full))

let prop_counts_sound =
  QCheck2.Test.make ~name:"budgeted counts are undercounts" ~count:100 gen
    (fun (g, rseed, max_steps) ->
      let inst = make_instance g in
      let r = make_regex rseed in
      let full = Count.count inst r ~length:3 in
      let budget = Budget.create ~max_steps () in
      let out = governed budget (Count.count ~budget inst r ~length:3) in
      out.Budget.value <= full +. 1e-9
      && (out.Budget.completeness <> Budget.Complete || abs_float (out.Budget.value -. full) < 1e-9))

(* ---------- Fault injection: every check site, every entry point ----

   Protocol: run each entry point once under a fresh limitless counting
   budget to learn how many times it calls [Budget.check] on this input,
   then replay with [trip_after_checks = k] for every k below that
   count.  Each replay must (a) not raise, and (b) produce a value that
   is sound against the unbudgeted reference. *)

let fault_sweep ~name run =
  (* A limitless [create ()] budget is treated as unlimited and skips
     counting; a huge step limit keeps the counters live without ever
     tripping. *)
  let probe = Budget.create ~max_steps:max_int () in
  (try ignore (run probe)
   with e -> Alcotest.fail (name ^ " raised under counting budget: " ^ Printexc.to_string e));
  let sites = Budget.checks_performed probe in
  for k = 0 to sites - 1 do
    let b = Budget.create ~trip_after_checks:k () in
    match run b with
    | ok ->
        if not ok then
          Alcotest.fail (Printf.sprintf "%s: unsound partial result tripping at check %d" name k)
    | exception e ->
        Alcotest.fail
          (Printf.sprintf "%s: exception escaped tripping at check %d: %s" name k
             (Printexc.to_string e))
  done;
  sites

let test_fault_injection () =
  let inst = make_instance (0xfa017, 6, 10) in
  let insts = [ inst; make_instance (0xbeef, 4, 8) ] in
  let regexes = [ make_regex 11; make_regex 23; make_regex 1234 ] in
  let total = ref 0 in
  let sweep name run = total := !total + fault_sweep ~name run in
  List.iter
    (fun inst ->
      List.iter
        (fun r ->
          let full_pairs = Rpq.eval_pairs inst ~max_length:3 r in
          let full_paths = Naive.paths inst r ~max_length:3 in
          let full_count = Count.count inst r ~length:3 in
          sweep "Governor.eval_pairs" (fun b ->
              let out = Governor.eval_pairs ~budget:b ~max_length:3 inst r in
              subset out.Budget.value full_pairs);
          sweep "Rpq.reachable_many" (fun b ->
              let sources = Array.init inst.Snapshot.num_nodes Fun.id in
              let out = governed b (Rpq.reachable_many ~budget:b ~max_length:3 inst r ~sources) in
              Array.for_all
                (fun i ->
                  subset
                    (List.map (fun t -> (i, t)) out.Budget.value.(i))
                    full_pairs)
                sources);
          sweep "Rpq.source_nodes" (fun b ->
              let out = governed b (Rpq.source_nodes ~budget:b ~max_length:3 inst r) in
              subset out.Budget.value (List.map fst full_pairs));
          sweep "Count.count" (fun b ->
              let out = governed b (Count.count ~budget:b inst r ~length:3) in
              out.Budget.value <= full_count +. 1e-9);
          sweep "Count.count_all" (fun b ->
              let out = governed b (Count.count_all ~budget:b inst r ~max_length:3) in
              Array.for_all (fun c -> c >= 0.0) out.Budget.value);
          sweep "Approx_count.count" (fun b ->
              let out =
                governed b (Approx_count.count ~budget:b ~seed:5 inst r ~length:2 ~epsilon:0.5)
              in
              out.Budget.value >= 0.0);
          sweep "Enumerate.paths" (fun b ->
              let out = governed b (Enumerate.paths ~budget:b inst r ~length:2) in
              List.for_all (fun p -> List.exists (Path.equal p) full_paths) out.Budget.value);
          sweep "Rpq.shortest_path_length" (fun b ->
              let reference = Rpq.shortest_path_length inst ~max_length:3 r ~source:0 ~target:0 in
              let out =
                governed b
                  (Rpq.shortest_path_length ~budget:b ~max_length:3 inst r ~source:0 ~target:0)
              in
              match out.Budget.value with Some d -> reference = Some d | None -> true);
          sweep "Rpq.shortest_witness" (fun b ->
              match Rpq.shortest_witness ~budget:b ~max_length:3 inst r ~source:0 ~target:0 with
              | Some p -> Reference.matches_path inst r p
              | None -> true);
          sweep "Uniform_gen" (fun b ->
              let gen = Uniform_gen.create ~budget:b inst r ~length:2 in
              let rng = Gqkg_util.Splitmix.create 3 in
              List.for_all (Reference.matches_path inst r) (Uniform_gen.samples gen rng 4));
          sweep "Naive.pairs" (fun b ->
              subset (Naive.pairs ~budget:b inst r ~max_length:3) full_pairs);
          sweep "Gqkg_analytics.Regex_centrality.governed" (fun b ->
              let out = Gqkg_analytics.Regex_centrality.governed ~budget:b ~max_length:3 ~samples:4 inst r in
              let scores, _ = out.Budget.value in
              Array.for_all (fun s -> s >= 0.0) scores))
        regexes)
    insts;
  (* Analytics kernels (regex-independent). *)
  List.iter
    (fun inst ->
      let reference =
        Array.init inst.Snapshot.num_nodes (fun source ->
            Gqkg_analytics.Traversal.bfs_distances inst ~source)
      in
      sweep "Shortest_paths.iter_distances" (fun b ->
          (* Every reported distance must be exact; a trip only drops pairs. *)
          let ok = ref true in
          Gqkg_analytics.Shortest_paths.iter_distances ~budget:b inst (fun ~source ~target ~dist ->
              if dist <> reference.(source).(target) then ok := false);
          !ok);
      let full_diameter = Gqkg_analytics.Shortest_paths.diameter inst in
      sweep "Shortest_paths.diameter" (fun b ->
          match (Gqkg_analytics.Shortest_paths.diameter ~budget:b inst, full_diameter) with
          | None, _ -> true
          | Some d, Some full -> d <= full
          | Some _, None -> false))
    insts;
  checkb "sweep exercised at least one check site" true (!total > 0)

(* The live-seed scan in front of eval_pairs / source_nodes is a check
   site of its own, polled at node 0 and every 4096 nodes after it: the
   sweep above reaches it (it is the first check of either), and a trip
   on either poll answers an empty Partial before the frontier runs —
   not one product state interned. *)
let test_seed_scan_check_site () =
  let inst = Gqkg_workload.Gen_graph.stream_gnm (Gqkg_util.Splitmix.create 5) ~nodes:5000 ~edges:6000 in
  let r = Gqkg_automata.Regex_parser.parse "edge/edge" in
  checkb "live query" true (Rpq.eval_pairs inst r <> []);
  List.iter
    (fun k ->
      let before = Product.states_interned_total () in
      let pairs = Governor.eval_pairs ~budget:(Budget.create ~trip_after_checks:k ()) inst r in
      let sources =
        let b = Budget.create ~trip_after_checks:k () in
        governed b (Rpq.source_nodes ~budget:b inst r)
      in
      let tripped o = o.Budget.completeness = Budget.Partial Budget.Injected in
      checkb (Printf.sprintf "pairs: empty partial at check %d" k) true
        (pairs.Budget.value = [] && tripped pairs);
      checkb (Printf.sprintf "sources: empty partial at check %d" k) true
        (sources.Budget.value = [] && tripped sources);
      checki "no product state interned" before (Product.states_interned_total ()))
    [ 0; 1 ]

(* An index-anchored query walks its seed candidates instead of every
   node.  With the start test's postings already built, the first check
   is the walk's poll at candidate 0, and a trip there answers an empty
   Partial without interning a product state; on a fresh snapshot the
   first check is the postings build's, with the same answer. *)
let test_candidate_walk_check_site () =
  let pg = Gqkg_workload.Contact_network.generate (Gqkg_util.Splitmix.create 3) in
  let r = Gqkg_automata.Regex_parser.parse "?infected/rides/?bus" in
  let warm = Snapshot.of_property pg in
  checkb "live query" true (Rpq.eval_pairs warm r <> []);
  (match Rpq.seed_counts warm r with
  | Some { Rpq.forward_candidates = Some k; _ } ->
      checkb "anchored on fewer candidates than nodes" true (k < warm.Snapshot.num_nodes)
  | _ -> Alcotest.fail "expected a candidate set");
  List.iter
    (fun (what, inst) ->
      let before = Product.states_interned_total () in
      let b = Budget.create ~trip_after_checks:0 () in
      let pairs = Governor.eval_pairs ~budget:b inst r in
      checkb (what ^ ": empty partial") true
        (pairs.Budget.value = [] && pairs.Budget.completeness = Budget.Partial Budget.Injected);
      checki (what ^ ": one check") 1 (Budget.checks_performed b);
      checki (what ^ ": no product state interned") before (Product.states_interned_total ()))
    [ ("candidate 0", warm); ("postings build", Snapshot.of_property pg) ]

(* Enumerate under an injected trip must stop cleanly mid-stream. *)
let test_enumerate_fault () =
  let inst = make_instance (0xfa017, 6, 10) in
  let r = make_regex 11 in
  let full = Enumerate.paths inst r ~length:2 in
  for k = 0 to 4 do
    let b = Budget.create ~trip_after_checks:k () in
    let partial = Enumerate.paths ~budget:b inst r ~length:2 in
    checkb "prefix-sound" true
      (List.for_all (fun p -> List.exists (Path.equal p) full) partial)
  done

(* [max_states] governs the FPRAS: each level pass notes the product's
   interned states, so a small cap trips it at its first check, and the
   trip answers 0.0; a cap above the run's states changes nothing. *)
let test_approx_count_state_limit () =
  let inst = Snapshot.of_property (Gqkg_workload.Contact_network.generate (Gqkg_util.Splitmix.create 3)) in
  let r = Gqkg_automata.Regex_parser.parse "(contact + rides + rides^-)*" in
  let run b = Approx_count.count ~budget:b ~seed:5 inst r ~length:3 ~epsilon:0.5 in
  let full = run Budget.unlimited in
  checkb "nonzero unbudgeted" true (full > 0.0);
  let small = Budget.create ~max_states:5 () in
  checkb "tripped answers 0.0" true (run small = 0.0);
  checkb "state limit" true (Budget.exhausted small = Some Budget.State_limit);
  let roomy = Budget.create ~max_states:1_000_000 () in
  checkb "roomy cap: same estimate" true (run roomy = full);
  checkb "roomy cap: complete" true (Budget.completeness roomy = Budget.Complete)

(* The Regex_centrality ladder: an exact pass that trips must fall back
   to the approximate sampler and label the outcome accordingly. *)
let test_degradation_ladder () =
  let inst = make_instance (0xfa017, 6, 10) in
  let r = make_regex 11 in
  let exact_out = Gqkg_analytics.Regex_centrality.governed ~budget:(Budget.create ()) ~max_length:3 inst r in
  checkb "unlimited stays exact" true (snd exact_out.Budget.value = `Exact);
  checkb "unlimited is complete" true (exact_out.Budget.completeness = Budget.Complete);
  let tripped = Budget.create ~trip_after_checks:0 () in
  let out = Gqkg_analytics.Regex_centrality.governed ~budget:tripped ~max_length:3 ~samples:4 inst r in
  checkb "trip degrades to approximate" true (snd out.Budget.value = `Approximate)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg budget"
    [
      ( "mechanics",
        [
          Alcotest.test_case "unlimited" `Quick test_unlimited;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "state limit" `Quick test_state_limit;
          Alcotest.test_case "injector" `Quick test_injector;
          Alcotest.test_case "similar rearms" `Quick test_similar_rearms;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
      ( "monotonic clock",
        [
          Alcotest.test_case "deadline on injected source" `Quick test_monotonic_deadline;
          Alcotest.test_case "elapsed on injected source" `Quick test_monotonic_elapsed;
          Alcotest.test_case "similar keeps the source" `Quick test_similar_keeps_clock;
          Alcotest.test_case "Mclock non-decreasing" `Quick test_mclock_nondecreasing;
          Alcotest.test_case "cancel" `Quick test_cancel;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "every check site" `Quick test_fault_injection;
          Alcotest.test_case "seed scan check site" `Quick test_seed_scan_check_site;
          Alcotest.test_case "candidate walk check site" `Quick test_candidate_walk_check_site;
          Alcotest.test_case "enumerate" `Quick test_enumerate_fault;
          Alcotest.test_case "FPRAS state limit" `Quick test_approx_count_state_limit;
          Alcotest.test_case "degradation ladder" `Quick test_degradation_ladder;
        ] );
      ("properties", q [ prop_pairs_sound; prop_counts_sound ]);
    ]
