(* Tests for the decision procedures (lib/analysis/decide) and their
   wiring into the planner and the Governor's semantic cache:

   - containment / equivalence / emptiness verdicts on known pairs;
   - canonicalization: equal keys for syntactic variants, language
     equivalence with the original (unit + QCheck);
   - witness soundness: a [False] containment's witness path, rebuilt
     as a concrete line snapshot, matches r1 but not r2;
   - answer-set soundness of [True] verdicts on random snapshots;
   - minimized plans answer as the naive reference evaluator across the
     batched frontier path (including past the 63-source word boundary);
   - schema consistency: out-of-vocabulary labels never read as
     "subsumed" (GQ050), matching the GQ0xx interpretation;
   - budget degradation: procedures return Unknown / None, never raise
     or hang, under a fault-injection sweep like test_budget's;
   - semantic cache: equivalent-query hits, Partial never stored,
     epoch isolation. *)

open Gqkg_graph
open Gqkg_automata
open Gqkg_core
module Decide = Gqkg_analysis.Decide
module Schema = Gqkg_analysis.Schema
module Budget = Gqkg_util.Budget
module Reference = Gqkg_oracle.Reference

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let parse = Regex_parser.parse
let is_true = function Decide.True -> true | _ -> false
let is_false = function Decide.False -> true | _ -> false
let is_unknown = function Decide.Unknown _ -> true | _ -> false

(* ---------- Verdicts on known pairs ---------- *)

let test_contains_basics () =
  checkb "a/b <= a/(b+c)" true (is_true (Decide.contains (parse "a/b") (parse "a/(b + c)")));
  checkb "a/(b+c) </= a/b" true (is_false (Decide.contains (parse "a/(b + c)") (parse "a/b")));
  checkb "a </= b" true (is_false (Decide.contains (parse "a") (parse "b")));
  checkb "a* <= (a+b)*" true (is_true (Decide.contains (parse "(a)*") (parse "((a + b))*")));
  checkb "(a+b)* </= a*" true (is_false (Decide.contains (parse "((a + b))*") (parse "(a)*")));
  checkb "backward not forward" true (is_false (Decide.contains (parse "a^-") (parse "a")));
  checkb "node test direction" true
    (is_true (Decide.contains (parse "?x/a") (parse "(?x + ?y)/a")))

let test_equiv_basics () =
  checkb "alt commutes" true (is_true (Decide.equiv (parse "(a + b)") (parse "(b + a)")));
  checkb "seq associates" true
    (is_true (Decide.equiv (parse "((a/b)/c)") (parse "(a/(b/c))")));
  checkb "star of union" true
    (is_true (Decide.equiv (parse "((a + b))*") (parse "(((a)*/(b)*))*")));
  checkb "not equiv" true (is_false (Decide.equiv (parse "(a + b)") (parse "a")))

let test_empty_basics () =
  checkb "contradiction empty" true (is_true (Decide.empty (parse "(a & !a)")));
  checkb "label nonempty" true (is_false (Decide.empty (parse "a")));
  checkb "zero-length nonempty" true (is_false (Decide.empty (parse "?a")))

(* ---------- Schema consistency (satellite: no false "subsumed") ----- *)

let closed_schema =
  {
    Schema.num_nodes = 10;
    num_edges = 10;
    node_labels = Some [ (Const.Str "p", 10) ];
    edge_labels = Some [ (Const.Str "x", 6); (Const.Str "y", 4) ];
    node_props = Some [];
    edge_props = Some [];
    feature_dim = Some 0;
  }

let test_schema_consistency () =
  (* Out of universe: ghost's language is empty under the schema, so
     containment holds trivially... *)
  checkb "ghost <= x under closed schema" true
    (is_true (Decide.contains ~schema:closed_schema (parse "ghost") (parse "x")));
  (* ...but without the schema the same verdict must be False. *)
  checkb "ghost </= x open" true (is_false (Decide.contains (parse "ghost") (parse "x")));
  (* The lint pass must NOT call the ghost branch subsumed: emptiness
     from out-of-vocabulary labels is GQ001/GQ012 territory. *)
  let d = Decide.lint ~schema:closed_schema (parse "(x + ghost)") in
  checkb "no GQ050 for out-of-vocabulary branch" true
    (not (List.exists (fun d -> d.Gqkg_analysis.Diagnostic.code = "GQ050") d));
  (* A genuinely subsumed branch is flagged, with or without schema. *)
  let d2 = Decide.lint ~schema:closed_schema (parse "(x + (x + y))") in
  checkb "duplicate branch flagged" true
    (List.exists (fun d -> d.Gqkg_analysis.Diagnostic.code = "GQ050") d2)

let test_lint_codes () =
  let has code ds = List.exists (fun d -> d.Gqkg_analysis.Diagnostic.code = code) ds in
  checkb "GQ050 subsumed branch" true (has "GQ050" (Decide.lint (parse "(a + (a + b))")));
  checkb "GQ052 absorbed closure" true
    (has "GQ052" (Decide.lint (parse "(a)*/((a + b))*")));
  checkb "GQ052 other side" true (has "GQ052" (Decide.lint (parse "((a + b))*/(a)*")));
  checkb "GQ051 dead disjunct" true (has "GQ051" (Decide.lint (parse "((a & !a) | b)")));
  checkb "clean query clean" true (Decide.lint (parse "(a/b + c)") = []);
  (* The ?_|_|!_|_ "any" idiom is a tautology, not a dead disjunct. *)
  checkb "any_test not flagged" true
    (not (has "GQ051" (Decide.lint (Regex.Node_test Regex.any_test))))

(* ---------- Canonicalization ---------- *)

let canon_exn r =
  match Decide.canonicalize r with
  | Some c -> c
  | None -> Alcotest.failf "canonicalize gave up on %s" (Regex.to_string r)

let test_canonical_keys () =
  let same a b =
    let ca = canon_exn (parse a) and cb = canon_exn (parse b) in
    String.equal ca.Decide.key cb.Decide.key && Int64.equal ca.Decide.hash cb.Decide.hash
  in
  checkb "alt order" true (same "(a + b)" "(b + a)");
  checkb "assoc" true (same "((a/b)/c)" "(a/(b/c))");
  checkb "dup branch" true (same "(a + (b + a))" "(a + b)");
  checkb "star identity" true (same "((a + b))*" "(((a)*/(b)*))*");
  checkb "different stays different" false (same "(a + b)" "(a/b)");
  checkb "hash hex renders" true
    (String.length (Decide.hash_hex (canon_exn (parse "a")).Decide.hash) = 16)

let test_canonical_equiv_unit () =
  let r = parse "((a + b))*/(a/(b + ?x))" in
  let c = canon_exn r in
  let orig = Nfa.of_regex (Regex.simplify r) in
  checkb "orig <= canon" true (is_true (fst (Decide.contains_nfa orig c.Decide.nfa)));
  checkb "canon <= orig" true (is_true (fst (Decide.contains_nfa c.Decide.nfa orig)));
  checkb "states counted" true (c.Decide.states = c.Decide.dfa_states + 1);
  (* Regression: an automaton with no non-accepting edge-phase state
     left one seed class of the minimization partition empty, which
     masked a first-round split and stopped refinement early — the
     start and post-edge states merged into a spurious loop, so the
     "canonical" form of [?a + y^-] accepted (y^-)*. *)
  let r2 = parse "(?a + y^-)" in
  let c2 = canon_exn r2 in
  let orig2 = Nfa.of_regex (Regex.simplify r2) in
  checkb "regression: canon <= orig" true
    (is_true (fst (Decide.contains_nfa c2.Decide.nfa orig2)));
  checkb "regression: orig <= canon" true
    (is_true (fst (Decide.contains_nfa orig2 c2.Decide.nfa)))

(* ---------- Witnesses ---------- *)

(* Materialize a witness path as a line snapshot: node i carries the
   witness's label set for position i, edge i the witness label (or a
   fresh label no test mentions), oriented per the witness step. *)
let snapshot_of_witness (w : Decide.witness) =
  let steps = Array.of_list w.steps in
  let k = Array.length steps in
  let nodes = Array.of_list w.nodes in
  let fresh = Const.Str "zz-fresh-witness-label" in
  let elabels = Array.map (fun (_, l) -> Option.value l ~default:fresh) steps in
  let node_universe =
    Array.of_list (List.sort_uniq Const.compare (List.concat (Array.to_list nodes)))
  in
  let edge_universe =
    Array.of_list (List.sort_uniq Const.compare (Array.to_list elabels))
  in
  let index universe c =
    let rec go i = if Const.equal universe.(i) c then i else go (i + 1) in
    go 0
  in
  let esrc = Array.init k (fun i -> if fst steps.(i) then i else i + 1) in
  let edst = Array.init k (fun i -> if fst steps.(i) then i + 1 else i) in
  Snapshot.make ~attrs:Snapshot.no_attrs ~num_nodes:(k + 1) ~esrc ~edst
    ~num_labels:(Array.length edge_universe) ~elabel:(Array.map (index edge_universe) elabels)
    ~label_names:(Array.map Const.to_string edge_universe)
    ~label_keys:(Array.map (fun c -> [| c |]) edge_universe)
    ~num_node_labels:(Array.length node_universe)
    ~node_labels:(Array.map (List.map (index node_universe)) nodes)
    ~node_label_names:(Array.map Const.to_string node_universe)
    ~node_label_keys:(Array.map (fun c -> [| c |]) node_universe)
    ~node_name:string_of_int ~edge_name:string_of_int

let witness_refutes r1 r2 (w : Decide.witness) =
  let snap = snapshot_of_witness w in
  let k = List.length w.steps in
  let path = Path.make ~nodes:(Array.init (k + 1) Fun.id) ~edges:(Array.init k Fun.id) in
  Reference.matches_path snap r1 path && not (Reference.matches_path snap r2 path)

let test_witness_unit () =
  let r1 = parse "a/(b + c)" and r2 = parse "a/b" in
  match Decide.contains_witness r1 r2 with
  | Decide.False, Some w ->
      checkb "witness refutes" true (witness_refutes r1 r2 w);
      checkb "witness renders" true (String.length (Decide.witness_to_string w) > 0)
  | v, _ -> Alcotest.failf "expected False+witness, got %s" (Decide.verdict_to_string v)

let test_witness_backward () =
  let r1 = parse "a^-" and r2 = parse "a" in
  match Decide.contains_witness r1 r2 with
  | Decide.False, Some w -> checkb "backward witness refutes" true (witness_refutes r1 r2 w)
  | v, _ -> Alcotest.failf "expected False+witness, got %s" (Decide.verdict_to_string v)

(* ---------- Budget degradation (never hang, never raise) ---------- *)

let test_blowup_guard () =
  let r1 = parse "((a + b))*/(a/b)" and r2 = parse "((a + b))*" in
  checkb "tiny cap -> unknown" true (is_unknown (Decide.contains ~max_states:1 r1 r2));
  checkb "tiny cap -> canonicalize gives up" true
    (Decide.canonicalize ~max_states:1 (parse "((a + b))*/c") = None);
  let b = Budget.create ~trip_after_checks:0 () in
  checkb "injected trip -> unknown" true (is_unknown (Decide.contains ~budget:b r1 r2));
  (* Property/feature atoms over-approximate: refutations degrade to
     Unknown instead of a confident False... *)
  checkb "prop refutation is unknown" true
    (is_unknown (Decide.contains (parse "(p = 1)") (parse "(p = 1)/(q & !q)")));
  (* ...but True stays sound. *)
  checkb "prop containment still true" true
    (is_true (Decide.contains (parse "(p = 1)") (parse "((p = 1) + (q = 2))")))

let test_fault_injection_sweep () =
  let r1 = parse "((a + b))*/(a/b)" and r2 = parse "((a + b))*" in
  (* An unlimited budget skips check bookkeeping entirely, so count
     sites with a limited-but-untrippable one (test_budget's idiom). *)
  let probe = Budget.create ~max_steps:max_int () in
  checkb "baseline true" true (is_true (Decide.contains ~budget:probe r1 r2));
  let sites = Budget.checks_performed probe in
  checkb "sites counted" true (sites > 0);
  for i = 0 to sites do
    let b = Budget.create ~trip_after_checks:i () in
    let v = Decide.contains ~budget:b r1 r2 in
    (match Budget.exhausted b with
    | Some _ ->
        if not (is_unknown v) then
          Alcotest.failf "tripped at site %d but verdict %s" i (Decide.verdict_to_string v)
    | None ->
        if not (is_true v) then
          Alcotest.failf "untripped at site %d but verdict %s" i (Decide.verdict_to_string v));
    let b2 = Budget.create ~trip_after_checks:i () in
    (match Decide.canonicalize ~budget:b2 r1 with
    | None -> ()
    | Some c -> checkb "canonical states positive" true (c.Decide.states > 0))
  done

(* ---------- Planner integration ---------- *)

let xy_instance seed nodes edges =
  let rng = Gqkg_util.Splitmix.create seed in
  Snapshot.of_labeled
    (Gqkg_workload.Gen_graph.random_labeled rng ~nodes ~edges ~node_labels:[ "a"; "b" ]
       ~edge_labels:[ "x"; "y" ])

let test_planner_minimize () =
  let inst = xy_instance 7 12 30 in
  (* A redundant union of closures: the canonical automaton is strictly
     smaller, so the planner substitutes it... *)
  let plan = Planner.prepare_explained inst (parse "(((x + y))* + (x)*)") in
  checkb "minimized" true plan.Planner.minimized;
  checkb "canon present" true (plan.Planner.canon <> None);
  (* ...but an already-minimal automaton is left untouched. *)
  let plan2 = Planner.prepare_explained inst (parse "x") in
  checkb "identity preserved" false plan2.Planner.minimized

(* ---------- Semantic cache ---------- *)

let test_cache_hit_and_equivalence () =
  Semcache.reset ();
  let inst = xy_instance 21 14 40 in
  let r = parse "(x/(y + x))" and r' = parse "(x/(x + y))" in
  let o1 = Governor.eval_pairs ~budget:(Budget.create ()) inst r in
  let o2 = Governor.eval_pairs ~budget:(Budget.create ()) inst r' in
  checkb "equivalent query served from cache" true
    (o1.Budget.value = o2.Budget.value && (Semcache.stats ()).Semcache.result_hits >= 1);
  checkb "hit is complete" true (o2.Budget.completeness = Budget.Complete);
  (* max_length is part of the key: a shorter horizon must not reuse
     the unbounded entry. *)
  let o3 = Governor.eval_pairs ~budget:(Budget.create ()) ~max_length:1 inst r in
  checkb "max_length keyed separately" true
    (List.for_all (fun p -> List.mem p o1.Budget.value) o3.Budget.value)

let test_cache_partial_never_stored () =
  Semcache.reset ();
  let inst = xy_instance 22 16 50 in
  let r = parse "((x + y))*" in
  let starved = Budget.create ~max_states:2 () in
  let o1 = Governor.eval_pairs ~budget:starved inst r in
  (match o1.Budget.completeness with
  | Budget.Partial _ -> ()
  | Budget.Complete -> Alcotest.fail "expected a partial result under max_states 2");
  checkb "partial not stored" true
    (Semcache.find_pairs inst ~key:(Option.get (Planner.semantic_key inst r)) = None);
  let o2 = Governor.eval_pairs ~budget:(Budget.create ()) inst r in
  checkb "full run complete" true (o2.Budget.completeness = Budget.Complete);
  checkb "partial is subset" true
    (List.for_all (fun p -> List.mem p o2.Budget.value) o1.Budget.value)

(* Two queries over the same atoms whose tests merge different
   assignments into one outcome class must not share a key: on a graph
   where each node and edge carries one label, [?(a | b)] and
   [?(a & !b)] (and [(x | y)] and [(x & !y)]) agree on the assignments
   a first-come class representative would keep, and differ on the
   rest.  Each is answered through the result cache after the other. *)
let test_cache_inequivalent_keys () =
  let inst = xy_instance 23 10 30 in
  List.iter
    (fun (q, q') ->
      let r = parse q and r' = parse q' in
      checkb (q ^ " vs " ^ q' ^ ": keys differ") true
        (Planner.semantic_key inst r <> Planner.semantic_key inst r');
      List.iter
        (fun r ->
          checkb
            (Regex.to_string r ^ " after the other = naive")
            true
            ((Governor.eval_pairs ~budget:Budget.unlimited inst r).Budget.value
            = Naive.pairs inst r ~max_length:1))
        [ r; r'; r ])
    [ ("?(a | b)", "?(a & !b)"); ("(x | y)", "(x & !y)"); ("?(a | b)/x", "?(a & !b)/x") ]

let test_cache_epoch_isolation () =
  Semcache.reset ();
  let g =
    Gqkg_workload.Gen_graph.random_labeled (Gqkg_util.Splitmix.create 5) ~nodes:8 ~edges:20
      ~node_labels:[ "a" ] ~edge_labels:[ "x" ]
  in
  let s1 = Snapshot.of_labeled g and s2 = Snapshot.of_labeled g in
  checkb "epochs distinct" true (s1.Snapshot.epoch <> s2.Snapshot.epoch);
  let r = parse "x" in
  ignore (Governor.eval_pairs ~budget:(Budget.create ()) s1 r);
  let before = (Semcache.stats ()).Semcache.result_hits in
  ignore (Governor.eval_pairs ~budget:(Budget.create ()) s2 r);
  checki "no cross-snapshot hit" before (Semcache.stats ()).Semcache.result_hits

(* ---------- Shape cache ---------- *)

(* Node property p and edge property w take the values 1..12, each on
   some objects and missing on others, so renaming the values 1..4 of a
   query by a shift of up to 8 keeps every atom's analyzer verdict — the
   renamed query can meet the original's shape.  Past 9 the values'
   order and their renderings' order part ("10" < "9"). *)
let pw_graph seed =
  let module S = Gqkg_util.Splitmix in
  let module B = Property_graph.Builder in
  let rng = S.create seed in
  let b = B.create () in
  let nodes = 24 in
  for i = 0 to nodes - 1 do
    let label = Const.str (S.choose rng [| "a"; "b" |]) in
    let v = B.add_node b (Const.str (Printf.sprintf "n%d" i)) ~label in
    if i < 16 then B.set_node_property b v ~prop:(Const.str "p") ~value:(Const.int (1 + (i mod 12)))
  done;
  for k = 0 to 39 do
    let e =
      B.fresh_edge b ~src:(S.int rng nodes) ~dst:(S.int rng nodes)
        ~label:(Const.str (S.choose rng [| "x"; "y" |]))
    in
    if k < 32 then B.set_edge_property b e ~prop:(Const.str "w") ~value:(Const.int (1 + (k mod 12)))
  done;
  B.freeze b

let make_pw_regex rseed =
  let params =
    {
      Gqkg_oracle.Gen_regex.default with
      node_labels = [ "a"; "b" ];
      edge_labels = [ "x"; "y" ];
      properties = [ ("p", [ "1"; "2"; "3"; "4" ]); ("w", [ "1"; "2"; "3"; "4" ]) ];
      max_depth = 3;
    }
  in
  Gqkg_oracle.Gen_regex.generate ~params (Gqkg_util.Splitmix.create rseed)

(* An injective renaming of the values 1..4 (ints and their string
   forms alike): shifted up, order kept, or mirrored, order flipped. *)
let rename_values ~shift ~flip =
  let f v = if flip then 5 - v + shift else v + shift in
  let value = function
    | Const.Int v -> Const.Int (f v)
    | Const.Str s as c -> (
        match int_of_string_opt s with Some v -> Const.Str (string_of_int (f v)) | None -> c)
    | c -> c
  in
  let test =
    Regex.map_test_atoms (function
      | Atom.Prop (p, v) -> Atom.Prop (p, value v)
      | Atom.Feature (i, v) -> Atom.Feature (i, value v)
      | Atom.Label _ as a -> a)
  in
  let rec go = function
    | Regex.Node_test t -> Regex.Node_test (test t)
    | Regex.Fwd t -> Regex.Fwd (test t)
    | Regex.Bwd t -> Regex.Bwd (test t)
    | Regex.Alt (a, b) -> Regex.Alt (go a, go b)
    | Regex.Seq (a, b) -> Regex.Seq (go a, go b)
    | Regex.Star a -> Regex.Star (go a)
  in
  go

(* Plan [r] on one snapshot, then [r'] on it (from the shape cache when
   the shapes meet) and on a fresh freeze of the same graph (planned
   from scratch): key, canonical form and answers must agree. *)
let instantiated_equals_fresh_on warm fresh r r' =
  ignore (Planner.plan warm r);
  let a = Planner.plan warm r' in
  let b = Planner.plan fresh r' in
  let canon inst = (Planner.prepare_explained inst r').Planner.canon in
  Planner.key a = Planner.key b
  && canon warm = canon fresh
  && Rpq.eval_pairs warm r' = Rpq.eval_pairs fresh r'

let instantiated_equals_fresh pg r r' =
  instantiated_equals_fresh_on (Snapshot.of_property pg) (Snapshot.of_property pg) r r'

let shape_case_gen =
  QCheck2.Gen.(
    let* rseed = int_bound 1_000_000 in
    let* gseed = int_bound 1_000_000 in
    let* shift = int_bound 8 in
    let* flip = bool in
    return (rseed, gseed, shift, flip))

let prop_shape_instantiation =
  QCheck2.Test.make ~name:"shape cache: instantiated plan = fresh plan" ~count:150
    shape_case_gen (fun (rseed, gseed, shift, flip) ->
      let r = make_pw_regex rseed in
      let ok = instantiated_equals_fresh (pw_graph gseed) r (rename_values ~shift ~flip r) in
      ok)

(* The served cold reads differ only in their age and date constants:
   after the first, each is an instantiation, equal to a fresh plan. *)
let test_shape_cache_cold_reads () =
  Semcache.reset ();
  let pg = Gqkg_workload.Contact_network.generate (Gqkg_util.Splitmix.create 3) in
  let inst = Snapshot.of_property pg in
  let occurring postings atom values =
    List.filter (fun v -> Array.length (postings inst (atom v)) > 0) values
  in
  let ages =
    occurring Postings.nodes (fun a -> Atom.prop "age" (Const.int a)) (List.init 86 (( + ) 5))
  in
  let days =
    occurring Postings.edges
      (fun d -> Atom.prop "date" (Const.date ~year:2021 ~month:1 ~day:d))
      (List.init 28 (( + ) 1))
  in
  let cold i =
    parse
      (Printf.sprintf
         "?(person & age=%d)/(contact & date=1/%d/21)^-/?infected/rides/?bus/rides^-/?person"
         (List.nth ages i) (List.nth days i))
  in
  checkb "cold reads instantiate" true (instantiated_equals_fresh pg (cold 0) (cold 1));
  checkb "shape hits counted" true ((Semcache.stats ()).Semcache.shape_hits >= 1);
  (* a renaming that flips the order of two values of one property
     changes the shape, and still plans alike *)
  let two a b = parse (Printf.sprintf "?(person & (age=%d | age=%d))/rides" a b) in
  let a0 = List.nth ages 0 and a1 = List.nth ages 1 in
  checkb "flipped order" true (instantiated_equals_fresh pg (two a0 a1) (two a1 a0));
  (* renaming 1, 2 to 9, 10 keeps the values' order but flips their
     tests' rendering order, which orders the conjuncts of the
     canonical automaton's tests *)
  let pw = pw_graph 2 in
  let split a b = parse (Printf.sprintf "(?p=%d/x + ?p=%d/x)" a b) in
  checkb "test order" true (instantiated_equals_fresh pw (split 1 2) (split 9 10));
  (* On the flattened graph a node without p has p's feature = _|_.
     Renaming 2 -> _|_ keeps the atoms' ranks and the tests' rendering
     order, so the shapes meet.  The two exclusive tests become two
     canonical moves out of one state that differ first in that value;
     polymorphic compare puts _|_ first and Atom.compare last, so only
     the re-sort orders them as a fresh plan does. *)
  let vg, schema = Vector_graph.of_property pw in
  let f = Option.get (Vector_graph.schema_feature_index schema (Const.str "p")) in
  let branches b =
    parse (Printf.sprintf "(?(f%d=1 & !f%d=%s)/x + ?(f%d=%s & !f%d=1)/y)" f f b f b f)
  in
  let warm = Snapshot.of_vector vg in
  ignore (Planner.plan warm (branches "2"));
  let before = (Semcache.stats ()).Semcache.shape_hits in
  ignore (Planner.plan warm (branches "_|_"));
  checkb "bottom renaming is a shape hit" true ((Semcache.stats ()).Semcache.shape_hits > before);
  checkb "renamed to bottom" true
    (instantiated_equals_fresh_on (Snapshot.of_vector vg) (Snapshot.of_vector vg) (branches "2")
       (branches "_|_"));
  (* the state cap is part of the shape: under a cap of 1 state the
     same automaton gives up, so its shape key must differ from the one
     under the planner's cap of 256 *)
  let nfa =
    Option.get (Gqkg_analysis.Analyze.plan (Snapshot.of_property pw) (split 1 2)).nfa
  in
  checkb "cap 1 gives up" true (Decide.canonicalize_nfa ~max_states:1 nfa = None);
  checkb "state cap in the shape" true
    (snd (Decide.shape ~max_states:1 nfa) <> snd (Decide.shape ~max_states:256 nfa));
  (* over random queries, some renamings meet their original's shape *)
  Semcache.reset ();
  let pg = pw_graph 1 in
  for rseed = 0 to 40 do
    let r = make_pw_regex rseed in
    checkb "random instantiation" true
      (instantiated_equals_fresh pg r (rename_values ~shift:(rseed mod 5) ~flip:false r))
  done;
  checkb "random shapes hit" true ((Semcache.stats ()).Semcache.shape_hits > 0)

(* ---------- QCheck properties ---------- *)

let make_regex = Gqkg_oracle.Small.make_regex

let regex_pair_gen =
  QCheck2.Gen.(
    let* s1 = int_bound 1_000_000 in
    let* s2 = int_bound 1_000_000 in
    return (s1, s2))

let prop_canonical_equiv =
  QCheck2.Test.make ~name:"canonicalize preserves the language" ~count:150
    QCheck2.Gen.(int_bound 1_000_000)
    (fun rseed ->
      let r = make_regex rseed in
      match Decide.canonicalize r with
      | None -> QCheck2.assume_fail ()
      | Some c ->
          let orig = Nfa.of_regex (Regex.simplify r) in
          is_true (fst (Decide.contains_nfa orig c.Decide.nfa))
          && is_true (fst (Decide.contains_nfa c.Decide.nfa orig)))

let prop_contains_answers =
  QCheck2.Test.make ~name:"contains <-> answer sets / witness path" ~count:120
    QCheck2.Gen.(
      let* rp = regex_pair_gen in
      let* gseed = int_bound 1_000_000 in
      let* nodes = int_range 1 6 in
      let* edges = int_range 0 10 in
      return (rp, (gseed, nodes, edges)))
    (fun ((s1, s2), (gseed, nodes, edges)) ->
      let r1 = make_regex s1 and r2 = make_regex s2 in
      match Decide.contains_witness r1 r2 with
      | Decide.True, _ ->
          let rng = Gqkg_util.Splitmix.create gseed in
          let inst =
            Snapshot.of_labeled
              (Gqkg_workload.Gen_graph.random_labeled rng ~nodes ~edges
                 ~node_labels:[ "a"; "b" ] ~edge_labels:[ "x"; "y" ])
          in
          let p1 = Rpq.eval_pairs inst ~max_length:4 r1 in
          let p2 = Rpq.eval_pairs inst ~max_length:4 r2 in
          List.for_all (fun p -> List.mem p p2) p1
      | Decide.False, Some w -> witness_refutes r1 r2 w
      | Decide.False, None -> false (* label-pure alphabet: witness must exist *)
      | Decide.Unknown _, _ -> QCheck2.assume_fail ())

let prop_minimized_plan_naive =
  QCheck2.Test.make ~name:"minimized plan = naive oracle (batched path)" ~count:80
    QCheck2.Gen.(
      let* rseed = int_bound 1_000_000 in
      let* gseed = int_bound 1_000_000 in
      let* nodes = int_range 1 70 in
      let* edges = int_range 0 120 in
      return (rseed, gseed, nodes, edges))
    (fun (rseed, gseed, nodes, edges) ->
      let r = make_regex rseed in
      let inst = xy_instance gseed nodes edges in
      let sources = Array.init inst.Snapshot.num_nodes Fun.id in
      let naive = Naive.pairs inst r ~max_length:4 in
      let reachable =
        Rpq.reachable_many ~max_length:4 inst r ~sources
        |> Array.mapi (fun a bs -> List.map (fun b -> (a, b)) bs)
        |> Array.to_list |> List.concat
      in
      Rpq.eval_pairs inst ~max_length:4 r = naive
      && reachable = naive
      && Rpq.source_nodes ~max_length:4 inst r = List.sort_uniq compare (List.map fst naive))

let prop_semantic_cache_equivalent =
  let rec alt_swap r =
    match r with
    | Regex.Alt (a, b) -> Regex.Alt (alt_swap b, alt_swap a)
    | Regex.Seq (a, b) -> Regex.Seq (alt_swap a, alt_swap b)
    | Regex.Star a -> Regex.Star (alt_swap a)
    | (Regex.Node_test _ | Regex.Fwd _ | Regex.Bwd _) as x -> x
  in
  QCheck2.Test.make ~name:"semantic cache: syntactic variants agree" ~count:60
    QCheck2.Gen.(
      let* rseed = int_bound 1_000_000 in
      let* gseed = int_bound 1_000_000 in
      return (rseed, gseed))
    (fun (rseed, gseed) ->
      Semcache.reset ();
      let r = make_regex rseed in
      let r' = alt_swap r in
      let inst = xy_instance gseed 10 25 in
      let o1 = Governor.eval_pairs ~budget:(Budget.create ()) inst r in
      let o2 = Governor.eval_pairs ~budget:(Budget.create ()) inst r' in
      o1.Budget.value = o2.Budget.value
      && o2.Budget.completeness = Budget.Complete
      &&
      match (Planner.semantic_key inst r, Planner.semantic_key inst r') with
      | Some k1, Some k2 when String.equal k1 k2 ->
          (Semcache.stats ()).Semcache.result_hits >= 1
      | _ -> true)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "gqkg_decide"
    [
      ( "verdicts",
        [
          Alcotest.test_case "containment basics" `Quick test_contains_basics;
          Alcotest.test_case "equivalence basics" `Quick test_equiv_basics;
          Alcotest.test_case "emptiness basics" `Quick test_empty_basics;
        ] );
      ( "schema",
        [
          Alcotest.test_case "GQ0xx-consistent interpretation" `Quick test_schema_consistency;
          Alcotest.test_case "GQ05x lint codes" `Quick test_lint_codes;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "keys collapse variants" `Quick test_canonical_keys;
          Alcotest.test_case "language preserved (unit)" `Quick test_canonical_equiv_unit;
        ] );
      ( "witness",
        [
          Alcotest.test_case "refuting path" `Quick test_witness_unit;
          Alcotest.test_case "backward step" `Quick test_witness_backward;
        ] );
      ( "budget",
        [
          Alcotest.test_case "blow-up guard" `Quick test_blowup_guard;
          Alcotest.test_case "fault-injection sweep" `Quick test_fault_injection_sweep;
        ] );
      ( "planner",
        [
          Alcotest.test_case "minimized substitution" `Quick test_planner_minimize;
        ] );
      ( "cache",
        [
          Alcotest.test_case "equivalent-query hit" `Quick test_cache_hit_and_equivalence;
          Alcotest.test_case "partial never stored" `Quick test_cache_partial_never_stored;
          Alcotest.test_case "epoch isolation" `Quick test_cache_epoch_isolation;
          Alcotest.test_case "inequivalent keys differ" `Quick test_cache_inequivalent_keys;
          Alcotest.test_case "shape cache instantiation" `Quick test_shape_cache_cold_reads;
        ] );
      ( "properties",
        q
          [
            prop_canonical_equiv;
            prop_contains_answers;
            prop_minimized_plan_naive;
            prop_shape_instantiation;
            prop_semantic_cache_equivalent;
          ] );
    ]
